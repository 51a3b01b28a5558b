// Mixed-precision tier correctness (docs/precision.md): FP16/BF16 GEMM
// against a double reference with sqrt-law bounds, conversion edge cases
// (subnormals, NaN payloads, BF16 truncation-vs-RNE), detailed-vs-fast
// half kernel bit identity, and the half replay's dot2 contract on every
// tier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "ftm/core/hgemm.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/util/half.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/util/prng.hpp"
#include "microkernel_tester.hpp"

namespace ftm::core {
namespace {

using kernelgen::DType;

FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

struct Shape {
  std::size_t m, n, k;
};

// ---- FP16/BF16 GEMM vs double reference ---------------------------------

/// Double-precision reference on the *rounded* operands: the only error
/// left is the FP32 accumulation, which grows as sqrt(k) for random
/// inputs (the sqrt-law bound below; eps_f32 = 2^-24 with headroom).
void check_half_gemm(const Shape& s, DType dt) {
  const bool bf = dt == DType::BF16;
  Prng rng(s.m * 13 + s.n * 7 + s.k * 3 + (bf ? 1 : 0));
  HostMatrix a(s.m, s.k), b(s.k, s.n), c(s.m, s.n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  std::vector<double> expect(s.m * s.n);
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t j = 0; j < s.n; ++j)
      expect[i * s.n + j] = c.at(i, j);
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t p = 0; p < s.k; ++p) {
      const double av =
          util::half_to_f32(util::f32_to_half(a.at(i, p), bf), bf);
      for (std::size_t j = 0; j < s.n; ++j)
        expect[i * s.n + j] +=
            av * util::half_to_f32(util::f32_to_half(b.at(p, j), bf), bf);
    }

  FtimmOptions opt;
  opt.dtype = dt;
  const GemmResult r =
      engine().sgemm(GemmInput::bound(a.view(), b.view(), c.view()), opt);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.dtype, dt);
  double worst = 0;
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t j = 0; j < s.n; ++j) {
      const double denom = std::max(1.0, std::abs(expect[i * s.n + j]));
      worst = std::max(
          worst, std::abs(c.at(i, j) - expect[i * s.n + j]) / denom);
    }
  EXPECT_LT(worst, 1e-6 * std::sqrt(static_cast<double>(s.k)))
      << s.m << "x" << s.n << "x" << s.k << (bf ? " bf16" : " f16");
}

class HalfGemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(HalfGemmShapes, F16MatchesDoubleReference) {
  check_half_gemm(GetParam(), DType::F16);
}

TEST_P(HalfGemmShapes, BF16MatchesDoubleReference) {
  check_half_gemm(GetParam(), DType::BF16);
}

// The n > 96 shapes exercise the 96-column panel loop in hgemm_f32; the
// odd k values exercise the pad-to-multiple-of-4 path.
INSTANTIATE_TEST_SUITE_P(
    Shapes, HalfGemmShapes,
    ::testing::Values(Shape{64, 32, 64}, Shape{100, 96, 33},
                      Shape{70, 250, 36}, Shape{17, 5, 9},
                      Shape{33, 130, 257}, Shape{256, 48, 512}));

// ---- conversion edge cases ----------------------------------------------

TEST(HalfPacking, SubnormalsRoundTripGradually) {
  // 1e-5 sits below FP16's min normal (2^-14 ~ 6.1e-5): it must become a
  // half subnormal, not zero, and widen back within one ulp (2^-24).
  const float tiny = 1e-5f;
  const float rt = util::f16_to_f32(util::f32_to_f16(tiny));
  EXPECT_NE(rt, 0.0f);
  EXPECT_NEAR(rt, tiny, std::ldexp(1.0f, -24));
  // An FP32 subnormal is below even FP16's subnormal range: flush to a
  // signed zero, never garbage.
  EXPECT_EQ(util::f32_to_f16(1e-40f), 0x0000u);
  EXPECT_EQ(util::f32_to_f16(-1e-40f), 0x8000u);
  // BF16 shares FP32's exponent range, so the same value stays normal.
  EXPECT_NEAR(util::bf16_to_f32(util::f32_to_bf16(tiny)), tiny,
              1e-5f / 128);
}

TEST(HalfPacking, NanPayloadsSurviveQuieted) {
  const float payload_nan =
      util::f32_from_bits(0x7F800000u | 0x123456u);  // signaling-ish NaN
  const std::uint16_t h = util::f32_to_f16(payload_nan);
  EXPECT_TRUE(std::isnan(util::f16_to_f32(h)));
  EXPECT_EQ(h & 0x0200u, 0x0200u);  // quiet bit forced
  EXPECT_EQ(h & 0x01FFu, (0x123456u >> 13) & 0x01FFu);  // top payload kept
  const std::uint16_t bh = util::f32_to_bf16(payload_nan);
  EXPECT_TRUE(std::isnan(util::bf16_to_f32(bh)));
  EXPECT_EQ(bh & 0x0040u, 0x0040u);
  // Widening keeps the half payload left-aligned in the f32 fraction.
  EXPECT_EQ(util::f32_bits(util::f16_to_f32(h)) & 0x7FE000u,
            static_cast<std::uint32_t>(h & 0x3FFu) << 13);
}

TEST(HalfPacking, Bf16TruncationDiffersFromRne) {
  // 0x3F80FFFF: truncation drops the set low bits, RNE rounds up.
  const float f = util::f32_from_bits(0x3F80FFFFu);
  EXPECT_EQ(util::f32_to_bf16_trunc(f), 0x3F80u);
  EXPECT_EQ(util::f32_to_bf16(f), 0x3F81u);
  // Exact tie with an even target: RNE agrees with truncation.
  const float tie_even = util::f32_from_bits(0x3F808000u);
  EXPECT_EQ(util::f32_to_bf16(tie_even), 0x3F80u);
  EXPECT_EQ(util::f32_to_bf16_trunc(tie_even), 0x3F80u);
  // Exact tie with an odd target: RNE rounds to even, truncation stays.
  const float tie_odd = util::f32_from_bits(0x3F818000u);
  EXPECT_EQ(util::f32_to_bf16(tie_odd), 0x3F82u);
  EXPECT_EQ(util::f32_to_bf16_trunc(tie_odd), 0x3F81u);
}

// ---- the half replay vs the scalar dot2 contract ------------------------

void check_dot2_tier(DType dt) {
  // One row, two k pairs: k_u = 2 puts pair 0 in bank 0 and pair 1 in
  // bank 1, so every tier's replay must give, lane by lane,
  //   fma(a1, b1, fma(a0, b0, c)) + fma(a3, b3, fma(a2, b2, 0))
  // bit-for-bit — the documented VFMULAH32 semantics, low pair first.
  const bool bf = dt == DType::BF16;
  kernelgen::KernelSpec spec{1, 4, 96};
  spec.dtype = dt;
  const kernelgen::MicroKernel uk(spec, isa::default_machine());
  ASSERT_EQ(uk.tiling().ku, 2);
  const std::size_t ld = static_cast<std::size_t>(spec.am_row_elems());
  Prng rng(bf ? 77 : 42);
  std::vector<std::uint16_t> a(4);
  std::vector<std::uint32_t> b(2 * ld);
  std::vector<float> c0(ld);
  for (auto& v : a) v = util::f32_to_half(rng.next_float(-2, 2), bf);
  for (std::size_t i = 0; i < b.size(); ++i) {
    // Mix magnitudes so some halves land subnormal after rounding.
    const float lo = rng.next_float(-1, 1) * (i % 7 == 0 ? 1e-6f : 1.0f);
    const float hi = rng.next_float(-1, 1);
    b[i] = util::f32_to_half(lo, bf) |
           (static_cast<std::uint32_t>(util::f32_to_half(hi, bf)) << 16);
  }
  for (auto& v : c0) v = rng.next_float(-2, 2);
  const auto w = [bf](std::uint32_t h) {
    return util::half_to_f32(static_cast<std::uint16_t>(h & 0xFFFFu), bf);
  };
  const kernelgen::hostsimd::Tier prev = kernelgen::hostsimd::active_tier();
  for (const auto tier : kernelgen::MicroKernelTester::tiers()) {
    kernelgen::hostsimd::set_active_tier(tier);
    std::vector<float> c = c0;
    uk.run_fast_half(a.data(), b.data(), c.data());
    for (std::size_t x = 0; x < ld; ++x) {
      const float lo0 = std::fmaf(w(a[0]), w(b[x]), c0[x]);
      const float bank0 = std::fmaf(w(a[1]), w(b[x] >> 16), lo0);
      const float lo1 = std::fmaf(w(a[2]), w(b[ld + x]), 0.0f);
      const float bank1 = std::fmaf(w(a[3]), w(b[ld + x] >> 16), lo1);
      EXPECT_EQ(c[x], bank0 + bank1)
          << "lane " << x << " tier " << kernelgen::hostsimd::to_string(tier);
    }
  }
  kernelgen::hostsimd::set_active_tier(prev);
}

TEST(HostSimd, Dot2F16TierMatchesScalarContract) {
  check_dot2_tier(DType::F16);
}
TEST(HostSimd, Dot2Bf16TierMatchesScalarContract) {
  check_dot2_tier(DType::BF16);
}

// ---- detailed simulator vs fast path ------------------------------------

TEST(HalfFastPath, BitIdenticalToDetailed) {
  for (const DType dt : {DType::F16, DType::BF16}) {
    kernelgen::MicroKernelTester().dtype(dt).ms(6).ka(64).na(96).test();
  }
}

}  // namespace
}  // namespace ftm::core
