// Unit tests of the Huang–Abraham checksum layer (src/abft/, ISSUE 8):
// no false positives on clean GEMMs across shapes and strategies,
// single-element locate-and-correct, typed escalation of everything
// beyond in-place repair, and the engine-level cycle accounting (the
// integrity-off path stays cycle-identical, the on path charges exactly
// checksum_cycles).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "ftm/abft/abft.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/util/half.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::abft {
namespace {

using core::FtimmEngine;
using core::FtimmOptions;
using core::GemmInput;
using core::IntegrityMode;
using core::Strategy;

struct Shape {
  std::size_t m, n, k;
};

const std::vector<Shape> kShapes = {
    {64, 48, 32}, {31, 7, 13}, {96, 16, 64}, {24, 24, 96},
    {128, 16, 16}, {16, 96, 16}, {1, 1, 1},
};

/// Reference problem with the post-GEMM C computed on the host; the
/// Checker is captured against the *pre*-GEMM C, as the engine does.
struct RefProblem {
  workload::GemmProblem p;
  Checker checker;
};

RefProblem make_ref(const Shape& s, std::uint64_t seed) {
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, seed);
  Checker checker(p.a.view(), p.b.view(), p.c.view());
  cpu::reference_gemm(p.a.view(), p.b.view(), p.c.view());
  return {std::move(p), std::move(checker)};
}

TEST(Abft, CleanGemmHasNoFalsePositives) {
  for (const Shape& s : kShapes) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      RefProblem rp = make_ref(s, seed * 97);
      const VerifyStats vs = rp.checker.verify(rp.p.c.view(), true);
      EXPECT_EQ(vs.checks, static_cast<int>(s.m + s.n));
      EXPECT_EQ(vs.detected, 0)
          << s.m << "x" << s.n << "x" << s.k << " seed " << seed;
      EXPECT_EQ(vs.corrected, 0);
    }
  }
}

TEST(Abft, SingleFlipIsLocatedAndCorrectedInPlace) {
  for (const Shape& s : kShapes) {
    RefProblem rp = make_ref(s, 11);
    const std::size_t i = s.m / 2, j = s.n / 2;
    const float original = rp.p.c.at(i, j);
    rp.p.c.at(i, j) = original + 1000.0f;

    const VerifyStats vs = rp.checker.verify(rp.p.c.view(), true);
    EXPECT_EQ(vs.detected, 2) << "one row + one column must flag";
    EXPECT_EQ(vs.corrected, 1);
    // Restored to within the checksum's rounding noise — tiny against
    // the injected damage, though looser than pure FP32 ulps.
    EXPECT_NEAR(rp.p.c.at(i, j), original, 1e-2)
        << s.m << "x" << s.n << "x" << s.k;
    // A second pass sees a clean block.
    const VerifyStats again = rp.checker.verify(rp.p.c.view(), true);
    EXPECT_EQ(again.detected, 0);
  }
}

// The injector's flips (fault::FaultInjector::on_store) set or clear the
// exponent MSB, scaling an element by 2^128 or 2^-128. The repair must
// rebuild the element's value, not cancel the huge damaged value against
// a delta of the same size, which loses the element.
TEST(Abft, ExponentFlipIsRebuiltToTheElementsValue) {
  RefProblem rp = make_ref({64, 48, 32}, 29);
  int rebuilt = 0;
  for (std::size_t i = 0; i < 64; i += 7) {
    for (std::size_t j = 0; j < 48; j += 5) {
      HostMatrix c(64, 48);
      std::memcpy(c.data(), rp.p.c.data(), 64 * 48 * sizeof(float));
      const float original = c.at(i, j);
      c.at(i, j) = util::f32_from_bits(util::f32_bits(original) ^
                                       ((1u << 30) | (1u << 27)));
      if (!std::isfinite(c.at(i, j))) continue;
      const VerifyStats vs = rp.checker.verify(c.view(), true);
      EXPECT_EQ(vs.corrected, 1) << i << "," << j;
      EXPECT_NEAR(c.at(i, j), original, 1e-4) << i << "," << j;
      ++rebuilt;
    }
  }
  EXPECT_GT(rebuilt, 90);
}

// A flip to inf or NaN makes its row and column sums non-finite; that is
// damage, never a clean block.
TEST(Abft, NonFiniteDamageEscalates) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    RefProblem rp = make_ref({64, 48, 32}, 31);
    rp.p.c.at(6, 9) = bad;
    try {
      rp.checker.verify(rp.p.c.view(), /*correct=*/true);
      FAIL() << bad << " passed verification";
    } catch (const IntegrityError& e) {
      EXPECT_EQ(e.detected(), 2) << bad;
    }
  }
}

TEST(Abft, VerifyOnlyModeEscalatesInsteadOfCorrecting) {
  RefProblem rp = make_ref({64, 48, 32}, 13);
  const float original = rp.p.c.at(3, 5);
  rp.p.c.at(3, 5) = original + 1000.0f;
  try {
    rp.checker.verify(rp.p.c.view(), /*correct=*/false, /*cluster=*/2);
    FAIL() << "verify-only mode must throw on damage";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.kind(), FaultKind::IntegrityError);
    EXPECT_EQ(e.cluster(), 2);
    EXPECT_EQ(e.detected(), 2);
  }
  // The damaged element is untouched: recompute is the caller's job.
  EXPECT_FLOAT_EQ(rp.p.c.at(3, 5), original + 1000.0f);
}

TEST(Abft, MultiElementDamageEscalatesWithDetectionCount) {
  RefProblem rp = make_ref({64, 48, 32}, 17);
  rp.p.c.at(2, 3) += 500.0f;
  rp.p.c.at(10, 20) -= 750.0f;  // distinct row and column
  try {
    rp.checker.verify(rp.p.c.view(), /*correct=*/true);
    FAIL() << "two damaged elements exceed in-place repair";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.detected(), 4) << "two rows + two columns flagged";
  }
}

// Two errors in the same row can collapse the column deltas into a
// pattern that *looks* single-element from the row side; the re-verify
// after a candidate repair must catch the miscorrection and escalate.
TEST(Abft, InconsistentDeltasAreNeverMiscorrected) {
  RefProblem rp = make_ref({64, 48, 32}, 19);
  rp.p.c.at(4, 1) += 600.0f;
  rp.p.c.at(4, 2) += 600.0f;  // same row, different columns
  EXPECT_THROW(rp.checker.verify(rp.p.c.view(), /*correct=*/true),
               IntegrityError);
}

TEST(Abft, ToleranceScaleKnobLoosensDetection) {
  workload::GemmProblem p = workload::make_problem(64, 48, 32, 23);
  // A deliberately absurd scale swallows even an exponent-bit flip:
  // the knob exists for data distributions the default calibration
  // doesn't cover, and must actually reach the comparison.
  Checker loose(p.a.view(), p.b.view(), p.c.view(),
                /*tolerance_scale=*/1e12);
  cpu::reference_gemm(p.a.view(), p.b.view(), p.c.view());
  p.c.at(1, 1) += 1000.0f;
  const VerifyStats vs = loose.verify(p.c.view(), true);
  EXPECT_EQ(vs.detected, 0);
}

TEST(Abft, CostModelFormulas) {
  EXPECT_EQ(checksum_flops(10, 20, 30), 3u * 300 + 3u * 600 + 4u * 200);
  EXPECT_EQ(checksum_bytes(10, 20, 30), 4u * (10 + 20 + 2 * 30));
}

// --- engine integration: the policy lives in FtimmOptions ------------------

TEST(Abft, EngineVerifiesFunctionalRunsAndChargesCycles) {
  for (Strategy s :
       {Strategy::ParallelM, Strategy::ParallelK, Strategy::TGemm}) {
    workload::GemmProblem p = workload::make_problem(96, 48, 64, 29);
    FtimmEngine e;
    FtimmOptions opt;
    opt.force = s;
    opt.integrity.mode = IntegrityMode::VerifyCorrect;
    const core::GemmResult r =
        e.sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
    EXPECT_EQ(r.checksum_checks, 96u + 48u) << to_string(s);
    EXPECT_EQ(r.sdc_detected, 0u) << to_string(s);
    EXPECT_GT(r.checksum_cycles, 0u) << to_string(s);
  }
}

// Integrity off must stay cycle-identical to a pre-ABFT build, and the
// on-path must cost exactly the modeled checksum cycles — together the
// bench gate's "0.0% drift" claim, provable at unit scope.
TEST(Abft, CycleModelChargesExactlyChecksumCycles) {
  const GemmInput shape = GemmInput::shape_only(512, 64, 256);
  FtimmEngine e;
  FtimmOptions off;
  off.functional = false;
  const core::GemmResult r_off = e.sgemm(shape, off);
  EXPECT_EQ(r_off.checksum_cycles, 0u);
  EXPECT_EQ(r_off.checksum_checks, 0u);

  FtimmOptions on = off;
  on.integrity.mode = IntegrityMode::Verify;
  const core::GemmResult r_on = e.sgemm(shape, on);
  // Timing-only runs have no data to verify but still pay the modeled
  // cost, so checksum overhead shows up in cycle sweeps.
  EXPECT_EQ(r_on.checksum_checks, 0u);
  EXPECT_GT(r_on.checksum_cycles, 0u);
  EXPECT_EQ(r_on.cycles, r_off.cycles + r_on.checksum_cycles);
}

}  // namespace
}  // namespace ftm::abft
