#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/util/prng.hpp"

namespace ftm::core {
namespace {

FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

struct Shape {
  std::size_t m, n, k;
};

void check_dgemm(const Shape& s, int cores) {
  Prng rng(s.m * 3 + s.n * 5 + s.k * 7);
  std::vector<double> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n),
      expect(s.m * s.n);
  for (auto& v : a) v = rng.next_float(-1, 1);
  for (auto& v : b) v = rng.next_float(-1, 1);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = rng.next_float(-1, 1);
    expect[i] = c[i];
  }
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t j = 0; j < s.n; ++j)
        expect[i * s.n + j] += a[i * s.k + p] * b[p * s.n + j];

  FtimmOptions opt;
  opt.cores = cores;
  const GemmResult r = dgemm(
      engine(),
      DGemmInput::bound(a.data(), b.data(), c.data(), s.m, s.n, s.k), opt);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.dtype, kernelgen::DType::F64);
  double worst = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double denom = std::max(1.0, std::abs(expect[i]));
    worst = std::max(worst, std::abs(c[i] - expect[i]) / denom);
  }
  EXPECT_LT(worst, 1e-10 * std::sqrt(double(s.k)))
      << s.m << "x" << s.n << "x" << s.k << " cores=" << cores;
}

class DgemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(DgemmShapes, MatchesDoubleReference) { check_dgemm(GetParam(), 8); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, DgemmShapes,
    ::testing::Values(Shape{512, 32, 32}, Shape{2048, 16, 16},
                      Shape{1000, 48, 800}, Shape{333, 7, 1300},
                      Shape{100, 48, 48}, Shape{17, 5, 9},
                      Shape{4096, 8, 8}, Shape{64, 33, 2000}));

TEST(Dgemm, SingleCoreCorrect) { check_dgemm({777, 24, 555}, 1); }

TEST(Dgemm, RejectsWideN) {
  FtimmOptions opt;
  opt.functional = false;
  EXPECT_THROW(dgemm(engine(), DGemmInput::shape_only(128, 49, 64), opt),
               ContractViolation);
}

TEST(Dgemm, ReportsF64) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult r =
      dgemm(engine(), DGemmInput::shape_only(256, 16, 64), opt);
  EXPECT_EQ(r.dtype, kernelgen::DType::F64);
  EXPECT_EQ(r.strategy, Strategy::ParallelM);
}

TEST(Dgemm, Fp32EntryPointsRejectF64) {
  // The FP32-view entry points cannot carry FP64 data: an F64 request
  // must fail loudly instead of silently running FP32.
  FtimmOptions opt;
  opt.functional = false;
  opt.dtype = kernelgen::DType::F64;
  const GemmInput in = GemmInput::shape_only(256, 16, 64);
  EXPECT_THROW(engine().plan(in.m, in.n, in.k, opt), ContractViolation);
  EXPECT_THROW(engine().sgemm(in, opt), ContractViolation);
  FtimmOptions f32 = opt;
  f32.dtype = kernelgen::DType::F32;
  const GemmPlan plan = engine().plan(in.m, in.n, in.k, f32);
  EXPECT_THROW(engine().sgemm_planned(in, plan, opt), ContractViolation);
}

TEST(Dgemm, EfficiencyAgainstFp64Peak) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult r =
      dgemm(engine(), DGemmInput::shape_only(20480, 48, 20480), opt);
  // FP64 cluster peak is 1382.4 GFlops; bandwidth-bound shapes stay well
  // under it but must show meaningful throughput.
  EXPECT_GT(r.gflops, 50.0);
  EXPECT_LE(r.efficiency, 1.0);
  EXPECT_GT(r.efficiency, 0.05);
}

TEST(Dgemm, TimingOnlyMatchesFunctional) {
  const Shape s{1024, 32, 256};
  Prng rng(1);
  std::vector<double> a(s.m * s.k, 0.5), b(s.k * s.n, 0.25), c(s.m * s.n);
  FtimmOptions opt;
  const GemmResult rf = dgemm(
      engine(),
      DGemmInput::bound(a.data(), b.data(), c.data(), s.m, s.n, s.k), opt);
  opt.functional = false;
  const GemmResult rt =
      dgemm(engine(), DGemmInput::shape_only(s.m, s.n, s.k), opt);
  EXPECT_EQ(rf.cycles, rt.cycles);
  EXPECT_EQ(rf.ddr_bytes, rt.ddr_bytes);
}

TEST(Dgemm, HalfTheFp32ThroughputOnComputeBoundShapes) {
  // Same shape, both precisions, compute-heavy: FP64 should land near
  // half the FP32 GFlops (16 vs 32 lanes).
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult r64 =
      dgemm(engine(), DGemmInput::shape_only(8192, 48, 8192), opt);
  const GemmResult r32 =
      engine().sgemm(GemmInput::shape_only(8192, 48, 8192), opt);
  const double ratio = r32.gflops / r64.gflops;
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 3.0);
}

}  // namespace
}  // namespace ftm::core
