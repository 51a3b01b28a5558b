#include "ftm/kernelgen/hostsimd.hpp"

#include <atomic>
#include <cmath>
#include <type_traits>
#include <vector>

#include "ftm/util/assert.hpp"
#include "ftm/util/half.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define FTM_HOSTSIMD_X86 1
#define FTM_AVX2_FN __attribute__((target("avx2,fma")))
#define FTM_F16C_FN __attribute__((target("avx2,fma,f16c")))
#endif

namespace ftm::kernelgen::hostsimd {

namespace {

// ---- Scalar reference bodies (the only tier every host has) -------------

void add_f32_scalar(float* acc, const float* x_, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) acc[x] += x_[x];
}

void add_f64_scalar(double* acc, const double* x_, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) acc[x] += x_[x];
}

void relu_f32_scalar(float* x_, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) x_[x] = x_[x] > 0.0f ? x_[x] : 0.0f;
}

void narrow_half_scalar(const float* in, std::uint16_t* out, std::size_t n,
                        bool bf16) {
  if (bf16) {
    for (std::size_t x = 0; x < n; ++x) out[x] = util::f32_to_bf16(in[x]);
  } else {
    for (std::size_t x = 0; x < n; ++x) out[x] = util::f32_to_f16(in[x]);
  }
}

#if defined(FTM_HOSTSIMD_X86)

// ---- AVX2 + FMA3 bodies (per-function target attributes) ----------------
// The callers feed rows padded to vn*32 floats / vn*16 doubles, so n is a
// multiple of the vector width on the hot path; the scalar tails below
// only fire for odd n from the generic add_* entry points.

FTM_AVX2_FN void add_f32_avx2(float* acc, const float* x_, std::size_t n) {
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    _mm256_storeu_ps(acc + x, _mm256_add_ps(_mm256_loadu_ps(acc + x),
                                            _mm256_loadu_ps(x_ + x)));
  }
  for (; x < n; ++x) acc[x] += x_[x];
}

FTM_AVX2_FN void add_f64_avx2(double* acc, const double* x_, std::size_t n) {
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    _mm256_storeu_pd(acc + x, _mm256_add_pd(_mm256_loadu_pd(acc + x),
                                            _mm256_loadu_pd(x_ + x)));
  }
  for (; x < n; ++x) acc[x] += x_[x];
}

FTM_AVX2_FN void relu_f32_avx2(float* x_, std::size_t n) {
  // Compare-and-mask (not max): x > 0 keeps x, everything else — negatives,
  // -0.0, NaN — becomes +0.0, matching the scalar body bit-for-bit.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m256 vx = _mm256_loadu_ps(x_ + x);
    _mm256_storeu_ps(
        x_ + x, _mm256_and_ps(vx, _mm256_cmp_ps(vx, zero, _CMP_GT_OQ)));
  }
  for (; x < n; ++x) x_[x] = x_[x] > 0.0f ? x_[x] : 0.0f;
}

bool f16c_supported() {
  static const bool ok = __builtin_cpu_supports("f16c") != 0;
  return ok;
}

// VCVTPS2PH with an immediate rounding mode (MXCSR is not consulted)
// rounds to nearest-even with gradual underflow, overflows to inf and
// quiets NaNs keeping the top payload bits: util::f32_to_f16 exactly.
FTM_F16C_FN void narrow_f16_f16c(const float* in, std::uint16_t* out,
                                 std::size_t n) {
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm256_cvtps_ph(_mm256_loadu_ps(in + x),
                                     _MM_FROUND_TO_NEAREST_INT));
  }
  for (; x < n; ++x) out[x] = util::f32_to_f16(in[x]);
}

// util::f32_to_bf16 in integer lanes: bits + 0x7FFF + lsb, or the quieted
// NaN, then the top 16 bits. (AVX512-BF16 VCVTNEPS2BF16 is not used: it
// flushes FP32 subnormal inputs to zero, which the bias trick does not.)
FTM_AVX2_FN void narrow_bf16_avx2(const float* in, std::uint16_t* out,
                                  std::size_t n) {
  const __m256i bias = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i inf = _mm256_set1_epi32(0x7F800000);
  const __m256i quiet = _mm256_set1_epi32(0x00400000);
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + x));
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    const __m256i rounded =
        _mm256_add_epi32(bits, _mm256_add_epi32(bias, lsb));
    // |bits| > inf as signed int32 (both below 2^31) is exactly "NaN".
    const __m256i nan =
        _mm256_cmpgt_epi32(_mm256_and_si256(bits, abs_mask), inf);
    const __m256i r = _mm256_srli_epi32(
        _mm256_blendv_epi8(rounded, _mm256_or_si256(bits, quiet), nan), 16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm_packus_epi32(_mm256_castsi256_si128(r),
                                      _mm256_extracti128_si256(r, 1)));
  }
  for (; x < n; ++x) out[x] = util::f32_to_bf16(in[x]);
}

#endif

// ---- The micro-kernel replay ---------------------------------------------
//
// One loop nest serves every dtype and tier. A lane traits struct L names
// one (tier, dtype) pair:
//   T        accumulator element (float or double), V a vector of kWidth Ts;
//   kPerWord k steps one B element carries (1, or 2 for a half pair word);
//   kRegs    vector registers of the tier, which size the tile;
//   zero/load/store/bcast/fma/add on V; for the halves also load_b, which
//   widens kWidth pair words into two vectors (out[s] holds k step s of
//   the pair), and widen, which widens A.
//
// The nest keeps a tile of R rows x CV column vectors x KU banks of
// accumulators in registers for the whole k loop. Each B vector (for the
// halves: each widened pair word) is loaded once per k step and shared by
// the R rows. Every (row, column, bank) element keeps exactly the FMA
// chain of the generated VLIW code — bank u takes k = u, u + KU, ... in
// ascending order, banks are then added into bank 0 in ascending order —
// so reordering the independent chains cannot change a bit of C.

#define FTM_INLINE inline __attribute__((always_inline))
// Unrolls the next loop fully (its trip count is a template constant), so
// the accumulator arrays it indexes stay in registers at -O2 as well.
#define FTM_UNROLL _Pragma("GCC unroll 16")
// Each tier entry below flattens the whole nest, so no vector value ever
// crosses a call compiled without that entry's ISA; the ABI note GCC
// emits for the un-targeted template is moot.
#pragma GCC diagnostic ignored "-Wpsabi"

struct TileShape {
  int rows = 1;
  int cols = 1;  ///< column vectors
};

/// The tile for `ku` banks on a tier with `regs` vector registers: the
/// most accumulators (rows * ku * cols) within 3/4 of the register file,
/// with one k step's B vectors (per_word * cols) within the last quarter;
/// among those, the cheapest operands per FMA. A B vector is shared by the
/// rows and an A broadcast by the columns; a half pair word, which takes a
/// shift or convert per k step of the pair, is weighted per_word^2. rows
/// <= 6; cols is 1, 2 or 4, so cols * width divides the row pitch on every
/// tier (a multiple of 16 FP64 / 32 FP32 lanes).
constexpr TileShape tile_shape(int regs, int ku, int per_word) {
  const auto cost = [per_word](int rows, int cols) {
    return static_cast<double>(per_word * per_word) / rows + 1.0 / cols;
  };
  TileShape best;
  for (const int cols : {1, 2, 4}) {
    for (int rows = 1; rows <= 6; ++rows) {
      const int acc = rows * ku * cols;
      const int best_acc = best.rows * ku * best.cols;
      if (4 * acc > 3 * regs || 4 * per_word * cols > regs) continue;
      if (acc > best_acc ||
          (acc == best_acc &&
           cost(rows, cols) < cost(best.rows, best.cols))) {
        best = {rows, cols};
      }
    }
  }
  return best;
}

/// What a stored A element and a B row element are: T itself, or for the
/// half formats a 16-bit half and a 32-bit pair word.
template <class L>
using AElem =
    std::conditional_t<L::kPerWord == 1, typename L::T, std::uint16_t>;
template <class L>
using BElem =
    std::conditional_t<L::kPerWord == 1, typename L::T, std::uint32_t>;

template <class L>
struct Replay {
  using T = typename L::T;
  using V = typename L::V;
  using B = BElem<L>;
  static constexpr int kW = L::kWidth;
  static constexpr int kS = L::kPerWord;

  const T* a;  // A widened to T; row pitch steps * kS
  const B* b;
  T* c;
  ReplayShape s;

  FTM_INLINE void run() const {
    switch (s.ku) {
      case 1: run_ku<1>(); return;
      case 2: run_ku<2>(); return;
      case 3: run_ku<3>(); return;
      default: run_ku<4>(); return;
    }
  }

  template <int KU>
  FTM_INLINE void run_ku() const {
    constexpr TileShape t = tile_shape(L::kRegs, KU, kS);
    FTM_ASSERT(s.ld % (t.cols * kW) == 0);
    for (int col = 0; col < s.ld; col += t.cols * kW) {
      int row = 0;
      for (; row + t.rows <= s.rows; row += t.rows) {
        tile<KU, t.rows, t.cols>(row, col);
      }
      tail_rows<KU, t.rows - 1, t.cols>(row, col);
    }
  }

  // The last s.rows - row (< R + 1) rows, as one tile of exactly that
  // height.
  template <int KU, int R, int CV>
  FTM_INLINE void tail_rows(int row, int col) const {
    if constexpr (R > 0) {
      if (s.rows - row == R) {
        tile<KU, R, CV>(row, col);
      } else {
        tail_rows<KU, R - 1, CV>(row, col);
      }
    }
  }

  template <int KU, int R, int CV>
  FTM_INLINE void tile(int row, int col) const {
    const auto ld = static_cast<std::size_t>(s.ld);
    const auto lda = static_cast<std::size_t>(s.steps) * kS;
    const T* arow = a + static_cast<std::size_t>(row) * lda;
    T* crow = c + static_cast<std::size_t>(row) * ld + col;
    const B* bcol = b + col;

    V acc[KU][R][CV];
    FTM_UNROLL
    for (int r = 0; r < R; ++r) {
      FTM_UNROLL
      for (int v = 0; v < CV; ++v) {
        acc[0][r][v] = s.load_c ? L::load(crow + r * ld + v * kW) : L::zero();
        FTM_UNROLL
        for (int u = 1; u < KU; ++u) acc[u][r][v] = L::zero();
      }
    }
    int p = 0;
    for (; p + KU <= s.steps; p += KU) {
      FTM_UNROLL
      for (int u = 0; u < KU; ++u) {
        step<R, CV>(acc[u], arow, bcol, p + u);
      }
    }
    // K remainder: step p + u (p a multiple of KU) belongs to bank u.
    FTM_UNROLL
    for (int u = 0; u + 1 < KU; ++u) {
      if (p + u < s.steps) step<R, CV>(acc[u], arow, bcol, p + u);
    }
    FTM_UNROLL
    for (int r = 0; r < R; ++r) {
      FTM_UNROLL
      for (int v = 0; v < CV; ++v) {
        FTM_UNROLL
        for (int u = 1; u < KU; ++u) {
          acc[0][r][v] = L::add(acc[0][r][v], acc[u][r][v]);
        }
        L::store(crow + r * ld + v * kW, acc[0][r][v]);
      }
    }
  }

  // One k step (one k pair for the halves) into one bank: the B vectors
  // are loaded (and widened) once and shared by the R rows. For a pair,
  // every element's low-pair FMA runs before its high-pair FMA.
  template <int R, int CV>
  FTM_INLINE void step(V (&acc)[R][CV], const T* arow, const B* bcol,
                       int p) const {
    const auto lda = static_cast<std::size_t>(s.steps) * kS;
    V bv[CV][kS];
    const B* brow = bcol + static_cast<std::size_t>(p) * s.ld;
    FTM_UNROLL
    for (int v = 0; v < CV; ++v) {
      if constexpr (kS == 1) {
        bv[v][0] = L::load(brow + v * kW);
      } else {
        L::load_b(brow + v * kW, bv[v]);
      }
    }
    const T* ap = arow + static_cast<std::size_t>(p) * kS;
    FTM_UNROLL
    for (int r = 0; r < R; ++r) {
      FTM_UNROLL
      for (int k = 0; k < kS; ++k) {
        const V av = L::bcast(ap[r * lda + k]);
        FTM_UNROLL
        for (int v = 0; v < CV; ++v) {
          acc[r][v] = L::fma(av, bv[v][k], acc[r][v]);
        }
      }
    }
  }
};

// ---- Lane traits ----------------------------------------------------------

template <class T_>
struct ScalarLanes {
  using T = T_;
  using V = T_;
  static constexpr int kWidth = 1;
  static constexpr int kPerWord = 1;
  static constexpr int kRegs = 16;
  static V zero() { return T(0); }
  static V load(const T* p) { return *p; }
  static void store(T* p, V v) { *p = v; }
  static V bcast(T x) { return x; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V add(V a, V b) { return a + b; }
};

template <float (*Widen)(std::uint16_t)>
struct ScalarHalfLanes : ScalarLanes<float> {
  static constexpr int kPerWord = 2;
  static void load_b(const std::uint32_t* p, V (&out)[2]) {
    out[0] = Widen(static_cast<std::uint16_t>(*p));
    out[1] = Widen(static_cast<std::uint16_t>(*p >> 16));
  }
  static void widen(const std::uint16_t* h, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = Widen(h[i]);
  }
};

using ScalarF32 = ScalarLanes<float>;
using ScalarF64 = ScalarLanes<double>;
using ScalarF16 = ScalarHalfLanes<util::f16_to_f32>;
using ScalarBf16 = ScalarHalfLanes<util::bf16_to_f32>;

// The nest for one (tier, dtype). The half formats first widen A (exactly)
// into `aw`, once per call, so the nest broadcasts plain floats.
template <class L>
FTM_INLINE void replay_with(const AElem<L>* a, const BElem<L>* b,
                            typename L::T* c, const ReplayShape& s,
                            typename L::T* aw) {
  if constexpr (L::kPerWord == 1) {
    Replay<L>{a, b, c, s}.run();
  } else {
    L::widen(a, aw, static_cast<std::size_t>(s.rows) * s.steps * 2);
    Replay<L>{aw, b, c, s}.run();
  }
}

// One entry per tier. flatten inlines the whole nest into it, so the
// traits' intrinsics compile under the entry's target attributes.
template <class L>
__attribute__((flatten)) void replay_portable(const AElem<L>* a,
                                              const BElem<L>* b,
                                              typename L::T* c,
                                              const ReplayShape& s,
                                              typename L::T* aw) {
  replay_with<L>(a, b, c, s, aw);
}

#if defined(FTM_HOSTSIMD_X86)

struct Avx2F32 {
  using T = float;
  using V = __m256;
  static constexpr int kWidth = 8;
  static constexpr int kPerWord = 1;
  static constexpr int kRegs = 16;
  FTM_AVX2_FN static V zero() { return _mm256_setzero_ps(); }
  FTM_AVX2_FN static V load(const T* p) { return _mm256_loadu_ps(p); }
  FTM_AVX2_FN static void store(T* p, V v) { _mm256_storeu_ps(p, v); }
  FTM_AVX2_FN static V bcast(T x) { return _mm256_set1_ps(x); }
  FTM_AVX2_FN static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  FTM_AVX2_FN static V add(V a, V b) { return _mm256_add_ps(a, b); }
};

struct Avx2F64 {
  using T = double;
  using V = __m256d;
  static constexpr int kWidth = 4;
  static constexpr int kPerWord = 1;
  static constexpr int kRegs = 16;
  FTM_AVX2_FN static V zero() { return _mm256_setzero_pd(); }
  FTM_AVX2_FN static V load(const T* p) { return _mm256_loadu_pd(p); }
  FTM_AVX2_FN static void store(T* p, V v) { _mm256_storeu_pd(p, v); }
  FTM_AVX2_FN static V bcast(T x) { return _mm256_set1_pd(x); }
  FTM_AVX2_FN static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  FTM_AVX2_FN static V add(V a, V b) { return _mm256_add_pd(a, b); }
};

// bf16 widens by a 16-bit shift into the top of a binary32 — exact.
struct Avx2Bf16 : Avx2F32 {
  static constexpr int kPerWord = 2;
  FTM_AVX2_FN static void load_b(const std::uint32_t* p, V (&out)[2]) {
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    out[0] = _mm256_castsi256_ps(_mm256_slli_epi32(w, 16));
    out[1] = _mm256_castsi256_ps(_mm256_and_si256(
        w, _mm256_set1_epi32(static_cast<std::int32_t>(0xFFFF0000u))));
  }
  FTM_AVX2_FN static void widen(const std::uint16_t* h, float* out,
                                std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
      const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(v), 16);
      _mm256_storeu_ps(out + i, _mm256_castsi256_ps(w));
    }
    for (; i < n; ++i) out[i] = util::bf16_to_f32(h[i]);
  }
};

// F16C widening (VCVTPH2PS) is exact, like util::f16_to_f32.
struct Avx2F16 : Avx2F32 {
  static constexpr int kPerWord = 2;
  FTM_F16C_FN static void load_b(const std::uint32_t* p, V (&out)[2]) {
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m128i lo = _mm256_castsi256_si128(w);
    const __m128i hi = _mm256_extracti128_si256(w, 1);
    // Deinterleave the pair words into 8 even-k and 8 odd-k halves.
    const __m128i mask16 = _mm_set1_epi32(0xFFFF);
    const __m128i evens = _mm_packus_epi32(_mm_and_si128(lo, mask16),
                                           _mm_and_si128(hi, mask16));
    const __m128i odds = _mm_packus_epi32(_mm_srli_epi32(lo, 16),
                                          _mm_srli_epi32(hi, 16));
    out[0] = _mm256_cvtph_ps(evens);
    out[1] = _mm256_cvtph_ps(odds);
  }
  FTM_F16C_FN static void widen(const std::uint16_t* h, float* out,
                                std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
      _mm256_storeu_ps(out + i, _mm256_cvtph_ps(v));
    }
    for (; i < n; ++i) out[i] = util::f16_to_f32(h[i]);
  }
};

template <class L>
FTM_AVX2_FN __attribute__((flatten)) void replay_avx2(const AElem<L>* a,
                                                      const BElem<L>* b,
                                                      typename L::T* c,
                                                      const ReplayShape& s,
                                                      typename L::T* aw) {
  replay_with<L>(a, b, c, s, aw);
}

template <class L>
FTM_F16C_FN __attribute__((flatten)) void replay_f16c(const AElem<L>* a,
                                                      const BElem<L>* b,
                                                      typename L::T* c,
                                                      const ReplayShape& s,
                                                      typename L::T* aw) {
  replay_with<L>(a, b, c, s, aw);
}

#endif

/// Per-thread buffer for a half kernel's widened A (ms * ka floats).
float* widened_a(const ReplayShape& s) {
  thread_local std::vector<float> buf;
  const auto n = static_cast<std::size_t>(s.rows) * s.steps * 2;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

void check(const void* a, const void* b, const void* c,
           const ReplayShape& s) {
  FTM_EXPECTS(s.rows >= 0 && s.steps >= 0 && s.ld >= 0);
  FTM_EXPECTS(s.ku >= 1 && s.ku <= 4);
  FTM_EXPECTS(s.rows == 0 || s.ld == 0 ||
              (a != nullptr && b != nullptr && c != nullptr));
}

bool supported(Tier t) {
  switch (t) {
    case Tier::Scalar:
      return true;
    case Tier::Avx2:
#if defined(FTM_HOSTSIMD_X86)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

std::atomic<Tier>& active_slot() {
  static std::atomic<Tier> tier{best_tier()};
  return tier;
}

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::Scalar: return "scalar";
    case Tier::Avx2: return "avx2";
  }
  return "?";
}

Tier best_tier() {
  static const Tier best = [] {
    if (supported(Tier::Avx2)) return Tier::Avx2;
    return Tier::Scalar;
  }();
  return best;
}

Tier active_tier() { return active_slot().load(std::memory_order_relaxed); }

Tier set_active_tier(Tier t) {
  if (!supported(t)) t = Tier::Scalar;
  active_slot().store(t, std::memory_order_relaxed);
  return t;
}

void add_f32(float* acc, const float* x_, std::size_t n) {
  FTM_EXPECTS(n == 0 || (acc != nullptr && x_ != nullptr));
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: add_f32_avx2(acc, x_, n); return;
#endif
    default: add_f32_scalar(acc, x_, n); return;
  }
}

void add_f64(double* acc, const double* x_, std::size_t n) {
  FTM_EXPECTS(n == 0 || (acc != nullptr && x_ != nullptr));
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: add_f64_avx2(acc, x_, n); return;
#endif
    default: add_f64_scalar(acc, x_, n); return;
  }
}

void relu_f32(float* x_, std::size_t n) {
  FTM_EXPECTS(n == 0 || x_ != nullptr);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: relu_f32_avx2(x_, n); return;
#endif
    default: relu_f32_scalar(x_, n); return;
  }
}

void narrow_half(const float* in, std::uint16_t* out, std::size_t n,
                 DType dtype) {
  FTM_EXPECTS(is_half(dtype));
  FTM_EXPECTS(n == 0 || (in != nullptr && out != nullptr));
  const bool bf16 = dtype == DType::BF16;
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2:
      if (bf16) {
        narrow_bf16_avx2(in, out, n);
        return;
      }
      if (f16c_supported()) {
        narrow_f16_f16c(in, out, n);
        return;
      }
      break;  // AVX2 without F16C: the scalar tier is the f16 reference
#endif
    default: break;
  }
  narrow_half_scalar(in, out, n, bf16);
}

void replay_f32(const float* a, const float* b, float* c,
                const ReplayShape& s) {
  check(a, b, c, s);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: replay_avx2<Avx2F32>(a, b, c, s, nullptr); return;
#endif
    default: replay_portable<ScalarF32>(a, b, c, s, nullptr); return;
  }
}

void replay_f64(const double* a, const double* b, double* c,
                const ReplayShape& s) {
  check(a, b, c, s);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: replay_avx2<Avx2F64>(a, b, c, s, nullptr); return;
#endif
    default: replay_portable<ScalarF64>(a, b, c, s, nullptr); return;
  }
}

void replay_f16(const std::uint16_t* a, const std::uint32_t* b, float* c,
                const ReplayShape& s) {
  check(a, b, c, s);
  float* aw = widened_a(s);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2:
      if (f16c_supported()) {
        replay_f16c<Avx2F16>(a, b, c, s, aw);
        return;
      }
      break;  // AVX2 without F16C: the scalar tier is the f16 reference
#endif
    default: break;
  }
  replay_portable<ScalarF16>(a, b, c, s, aw);
}

void replay_bf16(const std::uint16_t* a, const std::uint32_t* b, float* c,
                 const ReplayShape& s) {
  check(a, b, c, s);
  float* aw = widened_a(s);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: replay_avx2<Avx2Bf16>(a, b, c, s, aw); return;
#endif
    default: replay_portable<ScalarBf16>(a, b, c, s, aw); return;
  }
}

}  // namespace ftm::kernelgen::hostsimd
