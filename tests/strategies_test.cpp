#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::core {
namespace {

/// Shared engine: kernel calibration is memoized across tests.
FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

struct Shape {
  std::size_t m, n, k;
};

GemmResult run_and_check(Strategy force, const Shape& s, int cores,
                         bool dynamic = true) {
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 101);
  HostMatrix expect(s.m, s.n);
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t j = 0; j < s.n; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  FtimmOptions opt;
  opt.cores = cores;
  opt.force = force;
  opt.dynamic_blocks = dynamic;
  const GemmInput in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  const GemmResult r = force == Strategy::TGemm ? engine().tgemm(in, opt)
                                                : engine().sgemm(in, opt);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(s.k))
      << "m=" << s.m << " n=" << s.n << " k=" << s.k
      << " strat=" << to_string(force) << " cores=" << cores;
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.gflops, 0.0);
  return r;
}

// --- Numerical correctness across strategies / shapes / core counts --------

class TgemmShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(TgemmShapes, MatchesReference) {
  run_and_check(Strategy::TGemm, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, TgemmShapes,
    ::testing::Values(Shape{64, 96, 64}, Shape{512, 96, 512},
                      Shape{600, 200, 300},  // N > 96: multiple t blocks
                      Shape{1024, 32, 64}, Shape{100, 8, 700},
                      Shape{513, 97, 513},  // every dimension ragged
                      Shape{6, 96, 512}, Shape{1, 1, 1}));

class StrategyMShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(StrategyMShapes, MatchesReference) {
  run_and_check(Strategy::ParallelM, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, StrategyMShapes,
    ::testing::Values(Shape{4096, 32, 32}, Shape{2048, 96, 96},
                      Shape{1000, 17, 33},  // ragged
                      Shape{4096, 8, 8}, Shape{2048, 64, 2048},
                      Shape{300, 96, 5000}, Shape{100, 32, 32},
                      Shape{64, 1, 1}, Shape{9, 9, 9}));

class StrategyKShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(StrategyKShapes, MatchesReference) {
  run_and_check(Strategy::ParallelK, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, StrategyKShapes,
    ::testing::Values(Shape{32, 32, 8192}, Shape{64, 64, 4096},
                      Shape{32, 32, 100000},  // huge ragged K
                      Shape{16, 8, 2048}, Shape{96, 96, 2048},
                      Shape{33, 17, 999}, Shape{8, 8, 8}));

TEST(Strategies, SingleCoreMatchesReference) {
  for (const Shape s : {Shape{512, 32, 512}, Shape{32, 32, 4096}}) {
    run_and_check(Strategy::ParallelM, s, 1);
    run_and_check(Strategy::ParallelK, s, 1);
    run_and_check(Strategy::TGemm, s, 1);
  }
}

TEST(Strategies, IntermediateCoreCounts) {
  for (int cores : {2, 3, 5, 7}) {
    run_and_check(Strategy::ParallelM, Shape{2048, 32, 32}, cores);
    run_and_check(Strategy::ParallelK, Shape{32, 32, 4096}, cores);
  }
}

TEST(Strategies, StaticBlocksAlsoCorrect) {
  run_and_check(Strategy::ParallelM, Shape{2048, 32, 32}, 8,
                /*dynamic=*/false);
  run_and_check(Strategy::ParallelK, Shape{32, 32, 8192}, 8,
                /*dynamic=*/false);
}

TEST(Strategies, PingPongAblationPreservesResults) {
  workload::GemmProblem p = workload::make_problem(1024, 32, 32, 55);
  HostMatrix expect(1024, 32);
  for (std::size_t i = 0; i < 1024; ++i)
    for (std::size_t j = 0; j < 32; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
  FtimmOptions opt;
  opt.pingpong = false;
  opt.force = Strategy::ParallelM;
  const GemmResult r = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(32));
  // Without overlap the same work must take at least as long.
  workload::GemmProblem q = workload::make_problem(1024, 32, 32, 55);
  FtimmOptions on = opt;
  on.pingpong = true;
  const GemmResult r2 = engine().sgemm(
      GemmInput::bound(q.a.view(), q.b.view(), q.c.view()), on);
  EXPECT_GE(r.cycles, r2.cycles);
}

TEST(Strategies, TimingOnlyAgreesWithFunctionalCycles) {
  const Shape s{2048, 32, 64};
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 77);
  FtimmOptions opt;
  opt.force = Strategy::ParallelM;
  const GemmResult rf = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  opt.functional = false;
  const GemmResult rt =
      engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
  EXPECT_EQ(rf.cycles, rt.cycles);
  EXPECT_EQ(rf.ddr_bytes, rt.ddr_bytes);
  EXPECT_EQ(rf.kernel_calls, rt.kernel_calls);
}

// --- Golden cross-dtype M-parallel runs -------------------------------------
//
// One Algorithm-4 loop nest serves F32, F64 and the half formats, so a
// change to it (or to the block solver) must leave every dtype's cycles,
// DDR traffic, kernel-call count and C bits exactly where they were.
// The expected values were recorded before the dtype copies were folded
// into one nest; each case runs timing-only, functional inline, and
// functional on a 4-thread pool, and all three must agree with them.

struct Golden {
  kernelgen::DType dtype;
  std::size_t m, n, k;
  int cores;
  std::uint64_t cycles, ddr_bytes, kernel_calls, c_hash;
};

struct Observed {
  std::uint64_t cycles, ddr_bytes, kernel_calls, c_hash;
};

/// FNV-1a over the bytes of C.
template <class T>
std::uint64_t hash_bits(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

Observed run_golden(const Golden& g, bool functional, TaskPool* pool) {
  FtimmOptions opt;
  opt.cores = g.cores;
  opt.functional = functional;
  opt.host_pool = pool;
  opt.force = Strategy::ParallelM;
  Prng rng(g.m * 31 + g.n * 17 + g.k);
  GemmResult r;
  std::uint64_t hash = 0;
  if (g.dtype == kernelgen::DType::F64) {
    std::vector<double> a(g.m * g.k), b(g.k * g.n), c(g.m * g.n);
    for (auto* v : {&a, &b, &c})
      for (double& x : *v) x = rng.next_float(-1, 1);
    DGemmInput in = DGemmInput::shape_only(g.m, g.n, g.k);
    if (functional) {
      in = DGemmInput::bound(a.data(), b.data(), c.data(), g.m, g.n, g.k);
    }
    r = dgemm(engine(), in, opt);
    if (functional) hash = hash_bits(c);
  } else {
    opt.dtype = g.dtype;
    std::vector<float> a(g.m * g.k), b(g.k * g.n), c(g.m * g.n);
    for (auto* v : {&a, &b, &c})
      for (float& x : *v) x = rng.next_float(-1, 1);
    GemmInput in = GemmInput::shape_only(g.m, g.n, g.k);
    if (functional) {
      in = GemmInput::bound(ConstMatrixView(a.data(), g.m, g.k, g.k),
                            ConstMatrixView(b.data(), g.k, g.n, g.n),
                            MatrixView(c.data(), g.m, g.n, g.n));
    }
    r = engine().sgemm(in, opt);
    if (functional) hash = hash_bits(c);
  }
  EXPECT_EQ(r.strategy, Strategy::ParallelM);
  return {r.cycles, r.ddr_bytes, r.kernel_calls, hash};
}

class GoldenCrossDtype : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenCrossDtype, CyclesTrafficAndBitsUnchanged) {
  const Golden& g = GetParam();
  static TaskPool pool(4);
  const Observed timing = run_golden(g, false, nullptr);
  const Observed inline_run = run_golden(g, true, nullptr);
  const Observed pooled = run_golden(g, true, &pool);
  for (const Observed& o : {timing, inline_run, pooled}) {
    EXPECT_EQ(o.cycles, g.cycles);
    EXPECT_EQ(o.ddr_bytes, g.ddr_bytes);
    EXPECT_EQ(o.kernel_calls, g.kernel_calls);
  }
  EXPECT_EQ(inline_run.c_hash, g.c_hash);
  EXPECT_EQ(pooled.c_hash, g.c_hash);
}

using kernelgen::DType;
const Golden kGolden[] = {
    // F32: N tails 17 / 96 / 200 (two N tiles), M and K tails, and
    // K = 9000 > k_g (two B panels).
    {DType::F32, 1000, 17, 333, 1, 180790, 1490644, 125, 0xbd3e9698fd61da3e},
    {DType::F32, 1000, 17, 333, 8, 78393, 1490644, 125, 0xbd3e9698fd61da3e},
    {DType::F32, 515, 96, 1100, 1, 657993, 3479440, 130, 0x5f67114efba35786},
    {DType::F32, 515, 96, 1100, 8, 316218, 3479440, 130, 0x5f67114efba35786},
    {DType::F32, 301, 200, 700, 1, 602867, 3570000, 114, 0xb68eea1d7dd319b6},
    {DType::F32, 301, 200, 700, 8, 363364, 3570000, 114, 0xb68eea1d7dd319b6},
    {DType::F32, 40, 96, 9000, 1, 593754, 4957440, 55, 0x6eb91a537a5f4ca8},
    {DType::F32, 40, 96, 9000, 8, 942620, 4957440, 55, 0x6eb91a537a5f4ca8},
    // F64: N tails 5 / 33 / 48, K tails past k_a = 512, two B panels.
    {DType::F64, 333, 5, 1300, 1, 452153, 3568480, 126, 0x5a88482aeaed14ab},
    {DType::F64, 333, 5, 1300, 8, 184218, 3568480, 126, 0x5a88482aeaed14ab},
    {DType::F64, 257, 33, 700, 1, 210478, 1895392, 66, 0xcbf910329c2cdd9d},
    {DType::F64, 257, 33, 700, 8, 148784, 1895392, 66, 0xcbf910329c2cdd9d},
    {DType::F64, 130, 48, 1030, 1, 177116, 1666400, 51, 0xb99aac8efa0a6772},
    {DType::F64, 130, 48, 1030, 8, 182047, 1666400, 51, 0xb99aac8efa0a6772},
    {DType::F64, 45, 48, 9000, 1, 650462, 6765120, 108, 0x4afdffea09f2c98e},
    {DType::F64, 45, 48, 9000, 8, 1190349, 6765120, 108, 0x4afdffea09f2c98e},
    // Halves: N tails 7 / 96, K padded up to a multiple of 4, two B
    // panels at K = 17003.
    {DType::F16, 333, 7, 1030, 1, 102508, 739056, 84, 0x000253ce0663cd23},
    {DType::F16, 333, 7, 1030, 8, 44217, 739056, 84, 0x000253ce0663cd23},
    {DType::F16, 129, 96, 601, 1, 58503, 469944, 22, 0x12bb7f5bb439b4aa},
    {DType::F16, 129, 96, 601, 8, 55636, 469944, 22, 0x12bb7f5bb439b4aa},
    {DType::F16, 19, 96, 17003, 1, 391349, 3940104, 68, 0x49b50714a96e863b},
    {DType::F16, 19, 96, 17003, 8, 485984, 3940104, 68, 0x49b50714a96e863b},
    {DType::BF16, 333, 7, 1030, 1, 102508, 739056, 84, 0xf8b1700425370d4d},
    {DType::BF16, 333, 7, 1030, 8, 44217, 739056, 84, 0xf8b1700425370d4d},
    {DType::BF16, 129, 96, 601, 1, 58503, 469944, 22, 0xcffea342ffa6fbb2},
    {DType::BF16, 129, 96, 601, 8, 55636, 469944, 22, 0xcffea342ffa6fbb2},
};

INSTANTIATE_TEST_SUITE_P(
    AllDtypes, GoldenCrossDtype, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      const Golden& g = info.param;
      return std::string(kernelgen::to_string(g.dtype)) + "_" +
             std::to_string(g.m) + "x" + std::to_string(g.n) + "x" +
             std::to_string(g.k) + "_c" + std::to_string(g.cores);
    });

// --- Kernel lookups stay per run -------------------------------------------
//
// Each loop nest resolves a micro-kernel spec in the shared KernelCache
// once per run (RunCtx::kernel_for), so a warm cache sees one hit per
// distinct spec the run used, not one per kernel call.

struct LookupCase {
  const char* name;
  Strategy strategy;
  Shape shape;
};

// Without this, gtest lists the case as a byte dump that starts with the
// address of `name`, so the listed test name would change with every link.
void PrintTo(const LookupCase& lc, std::ostream* os) { *os << lc.name; }

class KernelLookups : public ::testing::TestWithParam<LookupCase> {};

TEST_P(KernelLookups, OncePerDistinctSpecPerRun) {
  const LookupCase& lc = GetParam();
  FtimmEngine eng;  // its own cache, so generated() counts this shape only
  FtimmOptions opt;
  opt.functional = false;
  opt.force = lc.strategy;
  const GemmInput in =
      GemmInput::shape_only(lc.shape.m, lc.shape.n, lc.shape.k);
  auto run = [&] {
    return lc.strategy == Strategy::TGemm ? eng.tgemm(in, opt)
                                          : eng.sgemm(in, opt);
  };
  const GemmResult cold = run();
  const std::size_t specs = eng.kernels().generated();
  const std::size_t hits = eng.kernels().hits();
  const GemmResult warm = run();
  EXPECT_EQ(warm.strategy, lc.strategy);
  EXPECT_EQ(warm.cycles, cold.cycles);
  EXPECT_EQ(eng.kernels().generated(), specs);
  EXPECT_LE(eng.kernels().hits() - hits, specs);
  EXPECT_GT(warm.kernel_calls, 4 * specs);  // so the bound means something
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, KernelLookups,
    ::testing::Values(
        LookupCase{"ParallelM", Strategy::ParallelM, {4000, 40, 1000}},
        LookupCase{"ParallelK", Strategy::ParallelK, {40, 40, 20000}},
        LookupCase{"TGemm", Strategy::TGemm, {600, 200, 300}}),
    [](const ::testing::TestParamInfo<LookupCase>& info) {
      return std::string(info.param.name);
    });

// --- Dispatcher -------------------------------------------------------------

TEST(Dispatcher, PaperShapeRouting) {
  FtimmEngine& e = engine();
  // Type I (tall x small) and type III (regular x tall-skinny): M strategy.
  EXPECT_EQ(e.choose_strategy(20480, 32, 32), Strategy::ParallelM);
  EXPECT_EQ(e.choose_strategy(1 << 22, 32, 32), Strategy::ParallelM);
  EXPECT_EQ(e.choose_strategy(20480, 32, 20480), Strategy::ParallelM);
  // Type II (skinny-tall x tall-skinny): K strategy.
  EXPECT_EQ(e.choose_strategy(32, 32, 1 << 16), Strategy::ParallelK);
  EXPECT_EQ(e.choose_strategy(32, 32, 20480), Strategy::ParallelK);
  // Wide N: traditional path.
  EXPECT_EQ(e.choose_strategy(4096, 4096, 4096), Strategy::TGemm);
}

TEST(Dispatcher, AutoRunsAndMatchesReference) {
  for (const Shape s :
       {Shape{8192, 32, 32}, Shape{32, 32, 8192}, Shape{2048, 32, 2048}}) {
    workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 31);
    HostMatrix expect(s.m, s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j) expect.at(i, j) = p.c.at(i, j);
    cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
    const GemmResult r = engine().sgemm(
        GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
    EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(s.k));
    EXPECT_NE(r.strategy, Strategy::Auto);
  }
}

// --- Performance-shape assertions (the paper's headline claims) -----------

TEST(Performance, FtimmBeatsTgemmOnTallSkinny) {
  // Fig. 5(a): with N=K=32 and large M, ftIMM uses all 8 cores while TGEMM
  // is stuck on one; a multiple-x speedup must appear.
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 16, 32, 32);
  const GemmResult ft = engine().sgemm(in, opt);
  FtimmOptions topt = opt;
  const GemmResult tg = engine().tgemm(in, topt);
  EXPECT_LT(ft.cycles * 2, tg.cycles)
      << "ftIMM " << ft.gflops << " vs TGEMM " << tg.gflops;
}

TEST(Performance, FtimmBeatsTgemmOnSkinnyTall) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(32, 32, 1 << 16);
  const GemmResult ft = engine().sgemm(in, opt);
  const GemmResult tg = engine().tgemm(in, opt);
  EXPECT_LT(ft.cycles, tg.cycles);
}

TEST(Performance, MultiCoreScalesForTypeOne) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 18, 32, 32);
  opt.cores = 1;
  const GemmResult c1 = engine().sgemm(in, opt);
  opt.cores = 8;
  const GemmResult c8 = engine().sgemm(in, opt);
  const double speedup =
      static_cast<double>(c1.cycles) / static_cast<double>(c8.cycles);
  EXPECT_GT(speedup, 1.5);   // memory-bound: not 8x (paper Fig. 6)
  EXPECT_LT(speedup, 8.01);
}

TEST(TreeReduction, MatchesReferenceAcrossCoreCounts) {
  for (int cores : {2, 3, 5, 8}) {
    workload::GemmProblem p = workload::make_problem(64, 32, 8192, 99);
    HostMatrix expect(64, 32);
    for (std::size_t i = 0; i < 64; ++i)
      for (std::size_t j = 0; j < 32; ++j) expect.at(i, j) = p.c.at(i, j);
    cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
    FtimmOptions opt;
    opt.cores = cores;
    opt.force = Strategy::ParallelK;
    opt.tree_reduction = true;
    engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()),
                   opt);
    EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(8192))
        << "cores=" << cores;
  }
}

TEST(TreeReduction, CompetitiveWithSerial) {
  // The tree halves the *serial depth* but moves ~3x the chunk bytes; with
  // core 0's DMA engine pipelining the serial chunks, the two schemes land
  // within a few percent of each other (see `ftm_bench ablation-reduction`).
  FtimmOptions opt;
  opt.functional = false;
  opt.force = Strategy::ParallelK;
  const GemmInput in = GemmInput::shape_only(64, 32, 1 << 18);
  opt.tree_reduction = false;
  const GemmResult serial = engine().sgemm(in, opt);
  opt.tree_reduction = true;
  const GemmResult tree = engine().sgemm(in, opt);
  EXPECT_LT(static_cast<double>(tree.cycles),
            static_cast<double>(serial.cycles) * 1.05);
  EXPECT_GT(static_cast<double>(tree.cycles),
            static_cast<double>(serial.cycles) * 0.5);
}

TEST(TreeReduction, NoopForSingleCore) {
  workload::GemmProblem p = workload::make_problem(32, 16, 2048, 4);
  HostMatrix expect(32, 16);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 16; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
  FtimmOptions opt;
  opt.cores = 1;
  opt.force = Strategy::ParallelK;
  opt.tree_reduction = true;
  engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(2048));
}

TEST(Performance, UnderRoofline) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 18, 32, 32);
  const GemmResult r = engine().sgemm(in, opt);
  EXPECT_LE(r.gflops, engine().roofline(in.m, in.n, in.k, 8) * 1.001);
}

}  // namespace
}  // namespace ftm::core
