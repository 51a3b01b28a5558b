// The cross-dtype micro-kernel tester, swept: F32, F64, F16 and BF16, on
// every SIMD tier this host supports, bit-for-bit against run_detailed on
// the VLIW core (microkernel_tester.hpp). The shapes hit every row-tile
// remainder of the host replay (every ms from 1 to 16), every k_u the
// tiling picks with and without a K remainder, na below one vector and at
// each regime edge, and both load_c modes.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "microkernel_tester.hpp"

namespace ftm::kernelgen {
namespace {

struct Case {
  int ms, ka, na;
  bool load_c;
};

/// na below one vector, at the regime edges 32/33/64/65/96, and for F64
/// (16 lanes, na <= 48) the vector edges 16/17/32/33 plus 48.
std::vector<int> na_edges(DType dt) {
  if (dt == DType::F64) return {7, 16, 17, 32, 33, 48};
  return {7, 32, 33, 64, 65, 96};
}

/// ka values whose k-step count (k pairs for the halves) is 24..27:
/// remainders 0..3 modulo 4, 0..2 modulo 3 and 0..1 modulo 2.
std::vector<int> ka_remainders(DType dt) {
  if (is_half(dt)) return {48, 50, 52, 54};
  return {24, 25, 26, 27};
}

std::vector<Case> cases(DType dt) {
  std::vector<Case> out;
  const int na_max = 3 * lanes(dt);
  const int ka_odd = is_half(dt) ? 38 : 37;
  for (int ms = 1; ms <= 16; ++ms) out.push_back({ms, ka_odd, na_max, true});
  for (const int na : na_edges(dt)) {
    for (const int ka : ka_remainders(dt)) {
      for (const int ms : {1, 2, 3, 8}) {  // k_u 4, 3, 2 and 1 in F32
        for (const bool load_c : {true, false}) {
          out.push_back({ms, ka, na, load_c});
        }
      }
    }
  }
  return out;
}

KernelSpec spec_of(const Case& c, DType dt) {
  KernelSpec s{c.ms, c.ka, c.na, c.load_c};
  s.dtype = dt;
  return s;
}

std::string dtype_name(const ::testing::TestParamInfo<DType>& info) {
  switch (info.param) {
    case DType::F32: return "F32";
    case DType::F64: return "F64";
    case DType::F16: return "F16";
    case DType::BF16: return "BF16";
  }
  return "unknown";
}

class MicroKernelSweep : public ::testing::TestWithParam<DType> {};

TEST_P(MicroKernelSweep, BitIdenticalToDetailedOnEveryTier) {
  for (const Case& c : cases(GetParam())) {
    MicroKernelTester()
        .dtype(GetParam())
        .ms(c.ms)
        .ka(c.ka)
        .na(c.na)
        .load_c(c.load_c)
        .test();
    if (HasFailure()) return;  // one shape's report is enough
  }
}

/// The sweep covers every k_u the tiling can pick for this dtype, each
/// with and without a K remainder — so a bank-mapping bug in the replay's
/// remainder steps cannot hide behind the chosen shapes.
TEST_P(MicroKernelSweep, CoversEveryKuWithAndWithoutRemainder) {
  const DType dt = GetParam();
  const isa::MachineConfig& mc = isa::default_machine();
  const auto steps = [dt](const KernelSpec& s) {
    return is_half(dt) ? s.kpairs() : s.ka;
  };
  std::set<int> possible;
  for (int ms = 1; ms <= 16; ++ms) {
    for (int na = 1; na <= 3 * lanes(dt); ++na) {
      for (const int ka : ka_remainders(dt)) {
        possible.insert(choose_tiling(spec_of({ms, ka, na, true}, dt), mc).ku);
      }
    }
  }
  std::set<std::pair<int, bool>> covered;
  for (const Case& c : cases(dt)) {
    const KernelSpec s = spec_of(c, dt);
    const int ku = choose_tiling(s, mc).ku;
    covered.insert({ku, steps(s) % ku != 0});
  }
  for (const int ku : possible) {
    EXPECT_TRUE(covered.count({ku, false})) << "ku=" << ku << " no remainder";
    if (ku > 1) {
      EXPECT_TRUE(covered.count({ku, true})) << "ku=" << ku << " remainder";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, MicroKernelSweep,
                         ::testing::Values(DType::F32, DType::F64,
                                           DType::F16, DType::BF16),
                         dtype_name);

TEST(MicroKernelTester, ScalarTierIsAlwaysAvailable) {
  const auto tiers = MicroKernelTester::tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), hostsimd::Tier::Scalar);
  EXPECT_EQ(tiers.back(), hostsimd::best_tier());
}

}  // namespace
}  // namespace ftm::kernelgen
