// Host SIMD fast paths for the functional micro-kernel and the strategy
// reduction loops (docs/performance.md).
//
// Two kinds of entry point live here:
//   - replay_*: the host replay of one generated micro-kernel. One
//     register-tiled loop nest, written once as a template over per-tier
//     lane traits, serves every dtype and tier. It keeps a tile of rows x
//     column vectors x k_u banks of accumulators in registers for the whole
//     k loop. Every output element still gets exactly the FMA chain the
//     VLIW core computes: tiling only reorders *independent* chains, so C
//     is bit-identical to the detailed simulation on every tier.
//   - add_f32/add_f64/relu_f32: elementwise helpers. Element x of the
//     output depends only on element x of the inputs, through exactly one
//     IEEE-754 operation, so every tier gives the same bits.
// Vector FMAs (AVX2 vfmadd, NEON vfma) round once, exactly like
// std::fmaf/std::fma, which is why the dispatch tier can change freely
// without changing a single output bit. Tests (microkernel_test,
// host_exec_test) enforce this on every supported tier.
//
// Dispatch is decided at runtime from CPUID (x86) or baked in (NEON is
// baseline on AArch64); the AVX2 bodies are compiled with per-function
// target attributes so the rest of the build needs no -march flags, and a
// -march=x86-64-v3 CI leg runs them on the CI hosts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ftm::kernelgen::hostsimd {

enum class Tier {
  Scalar = 0,  ///< portable std::fmaf/std::fma loops
  Avx2 = 1,    ///< AVX2 + FMA3, runtime-detected on x86-64
  Neon = 2,    ///< baseline on AArch64
};

const char* to_string(Tier t);

/// Best tier this host supports (detected once, then cached).
Tier best_tier();

/// Tier the entry points currently dispatch to; defaults to best_tier().
Tier active_tier();

/// Forces a tier (tests/benchmarks); unsupported tiers clamp to Scalar.
/// Returns the tier actually installed.
Tier set_active_tier(Tier t);

/// Every entry point below validates its operands the way sgemm does —
/// null arrays with a non-zero length throw ftm::ContractViolation rather
/// than silently reading through nullptr.

/// Shape of one micro-kernel replay. A is row-major with `steps` k steps
/// per row (two halves per step for F16/BF16, whose row pitch is the
/// even-padded ka); B has `steps` rows and C has `rows` rows, both with
/// row pitch `ld` (vn * lanes elements; pair words for half B).
struct ReplayShape {
  int rows = 0;   ///< rows of A and C (KernelSpec::ms)
  int steps = 0;  ///< k steps; k *pairs* for the half formats
  int ku = 1;     ///< accumulator banks (Tiling::ku), 1..4
  int ld = 0;     ///< B/C row pitch in elements
  bool load_c = true;
};

/// C = (load_c ? C : 0) + A * B with the generated kernel's FMA order:
/// bank `kui` accumulates k = i*ku + kui in ascending k (so a K remainder
/// step j lands in bank j % ku), and banks 1..ku-1 are added into bank 0
/// in ascending order. All ld columns are computed, pad lanes included.
void replay_f32(const float* a, const float* b, float* c,
                const ReplayShape& s);
void replay_f64(const double* a, const double* b, double* c,
                const ReplayShape& s);

/// Half replay — the host side of VFMULAH32. Each b word packs a k-adjacent
/// half pair (lo16 = even k, hi16 = odd k); per element and k pair
///   acc = fma(widen(a1), widen(b.hi), fma(widen(a0), widen(b.lo), acc))
/// with the low pair's FMA strictly first. Widening is exact on every tier
/// (F16C VCVTPH2PS / bf16 shift == ftm::util conversions), so all tiers are
/// bit-identical for finite and subnormal operands. The AVX2 tier of F16
/// additionally requires F16C at runtime and runs the scalar tier without
/// it; BF16 needs only AVX2+FMA.
void replay_f16(const std::uint16_t* a, const std::uint32_t* b, float* c,
                const ReplayShape& s);
void replay_bf16(const std::uint16_t* a, const std::uint32_t* b, float* c,
                 const ReplayShape& s);

/// acc[x] += x_[x] for x in [0, n) — GSM partial merge, and the graph
/// executor's elementwise add/bias ops.
void add_f32(float* acc, const float* x_, std::size_t n);
void add_f64(double* acc, const double* x_, std::size_t n);

/// x_[x] = x_[x] > 0 ? x_[x] : 0 for x in [0, n) — the graph executor's
/// ReLU. Defined via compare-and-mask on every tier, so NaN and -0.0
/// inputs produce +0.0 identically under scalar, AVX2, and NEON dispatch.
void relu_f32(float* x_, std::size_t n);

}  // namespace ftm::kernelgen::hostsimd
