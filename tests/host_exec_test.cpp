// Host execution engine tests (docs/performance.md): the TaskPool, the
// SIMD dispatch tiers, and the determinism gate — simulated cycles and
// the C output must be bit-identical for every tier and pool size.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"
#include "microkernel_tester.hpp"

namespace ftm::core {
namespace {

namespace hostsimd = kernelgen::hostsimd;
using hostsimd::Tier;

/// Restores the installed SIMD tier on scope exit (tests force tiers).
struct TierGuard {
  Tier prev = hostsimd::active_tier();
  ~TierGuard() { hostsimd::set_active_tier(prev); }
};

FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

// ---- TaskPool ------------------------------------------------------------

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  TaskPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.emplace_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run_batch(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, EmptyBatchAndSingleThreadWork) {
  TaskPool pool(1);  // spawns no worker threads
  EXPECT_EQ(pool.parallelism(), 1u);
  pool.run_batch({});
  int x = 0;
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&x] { ++x; });
  pool.run_batch(std::move(tasks));
  EXPECT_EQ(x, 1);
}

TEST(TaskPool, ConcurrentClientsEachWaitForOwnBatch) {
  // The runtime's per-cluster workers all share one pool: batches from
  // different client threads must overlap without cross-talk.
  TaskPool pool(4);
  constexpr int kClients = 4, kRounds = 25, kTasks = 8;
  std::vector<std::atomic<int>> counts(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &counts, c] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::function<void()>> tasks;
        for (int t = 0; t < kTasks; ++t) {
          tasks.emplace_back([&counts, c] { counts[c].fetch_add(1); });
        }
        pool.run_batch(std::move(tasks));
        // run_batch returned => this client's tasks all finished.
        ASSERT_EQ(counts[c].load() % kTasks, 0);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& c : counts) EXPECT_EQ(c.load(), kRounds * kTasks);
}

// ---- SIMD tier dispatch --------------------------------------------------

TEST(HostSimd, TierForcingClampsToSupported) {
  TierGuard guard;
  EXPECT_EQ(hostsimd::set_active_tier(Tier::Scalar), Tier::Scalar);
  EXPECT_EQ(hostsimd::active_tier(), Tier::Scalar);
  EXPECT_EQ(hostsimd::set_active_tier(hostsimd::best_tier()),
            hostsimd::best_tier());
  // AVX2 installs only where it is the best tier; elsewhere (an x86 host
  // without AVX2+FMA, or any other ISA) it clamps to Scalar.
  EXPECT_EQ(hostsimd::set_active_tier(Tier::Avx2),
            hostsimd::best_tier() == Tier::Avx2 ? Tier::Avx2 : Tier::Scalar);
  // A value that names no tier clamps too.
  EXPECT_EQ(hostsimd::set_active_tier(static_cast<Tier>(2)), Tier::Scalar);
  EXPECT_STRNE(hostsimd::to_string(hostsimd::best_tier()), "");
}

/// The elementwise helpers must agree with their scalar loops bit-for-bit
/// on the best tier, including the vector-width remainder tails. (The
/// micro-kernel replay has its own tester: microkernel_test.)
TEST(HostSimd, PrimitivesBitIdenticalToScalar) {
  TierGuard guard;
  Prng rng(42);
  for (std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
                        100u, 257u}) {
    std::vector<float> fx(n), facc0(n), facc1(n);
    std::vector<double> dx(n), dacc0(n), dacc1(n);
    for (std::size_t i = 0; i < n; ++i) {
      fx[i] = rng.next_float(-2, 2);
      facc0[i] = facc1[i] = rng.next_float(-2, 2);
      dx[i] = rng.next_float(-2, 2);
      dacc0[i] = dacc1[i] = rng.next_float(-2, 2);
    }

    hostsimd::set_active_tier(Tier::Scalar);
    hostsimd::add_f32(facc0.data(), fx.data(), n);
    hostsimd::add_f64(dacc0.data(), dx.data(), n);
    hostsimd::set_active_tier(hostsimd::best_tier());
    hostsimd::add_f32(facc1.data(), fx.data(), n);
    hostsimd::add_f64(dacc1.data(), dx.data(), n);
    ASSERT_EQ(std::memcmp(facc0.data(), facc1.data(), n * sizeof(float)), 0)
        << "add_f32 n=" << n;
    ASSERT_EQ(std::memcmp(dacc0.data(), dacc1.data(), n * sizeof(double)), 0)
        << "add_f64 n=" << n;
  }
}

// ---- run_fast on every tier vs the detailed core, bit for bit -----------
// Regression shapes routed through the cross-dtype tester; microkernel_test
// sweeps ms, k_u, K remainders and na edges systematically.

struct SpecCase {
  int ms, ka, na;
  bool load_c;
};

class FastPathTiers : public ::testing::TestWithParam<SpecCase> {};

/// The cases cover every unroll regime (wide/medium/narrow na), ku/mu edge
/// shapes, K remainders (ka % ku != 0), and both load_c modes.
TEST_P(FastPathTiers, F32BitIdenticalAcrossTiers) {
  const SpecCase sc = GetParam();
  kernelgen::MicroKernelTester()
      .ms(sc.ms)
      .ka(sc.ka)
      .na(sc.na)
      .load_c(sc.load_c)
      .test();
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, FastPathTiers,
    ::testing::Values(SpecCase{6, 512, 96, true},    // wide regime, ku = 1
                      SpecCase{12, 511, 96, true},   // wide, odd ka
                      SpecCase{8, 512, 64, true},    // medium, ku > 1
                      SpecCase{8, 513, 64, true},    // medium, K remainder
                      SpecCase{11, 127, 33, true},   // medium, ragged all
                      SpecCase{12, 512, 32, true},   // narrow, max ku
                      SpecCase{12, 509, 32, true},   // narrow, K remainder
                      SpecCase{16, 255, 17, true},   // narrow, na < lanes
                      SpecCase{1, 1, 1, true},       // degenerate
                      SpecCase{6, 512, 96, false},   // zero-init C, wide
                      SpecCase{12, 509, 32, false},  // zero-init, remainder
                      SpecCase{3, 97, 48, false}));

struct SpecCase64 {
  int ms, ka, na;
};

class FastPathTiersF64 : public ::testing::TestWithParam<SpecCase64> {};

TEST_P(FastPathTiersF64, F64BitIdenticalAcrossTiers) {
  const SpecCase64 sc = GetParam();
  kernelgen::MicroKernelTester()
      .dtype(kernelgen::DType::F64)
      .ms(sc.ms)
      .ka(sc.ka)
      .na(sc.na)
      .test();
}

INSTANTIATE_TEST_SUITE_P(EdgeShapes, FastPathTiersF64,
                         ::testing::Values(SpecCase64{6, 256, 48},
                                           SpecCase64{8, 257, 16},
                                           SpecCase64{12, 129, 32},
                                           SpecCase64{1, 1, 1},
                                           SpecCase64{5, 93, 7}));

TEST(FastPathTiers, NativeTierBitIdenticalToDetailed) {
  // K remainder in the narrow regime.
  kernelgen::MicroKernelTester().ms(8).ka(129).na(32).test();
}

// ---- Determinism gate: cycles and C independent of the pool size ---------

struct GemmRun {
  std::uint64_t cycles = 0;
  std::vector<float> c;
};

GemmRun run_f32(Strategy force, bool tree, std::size_t m, std::size_t n,
                std::size_t k, TaskPool* pool) {
  workload::GemmProblem p = workload::make_problem(m, n, k, 2026);
  FtimmOptions opt;
  opt.force = force;
  opt.tree_reduction = tree;
  opt.host_pool = pool;
  const GemmResult r = force == Strategy::TGemm
                           ? engine().tgemm(
                                 GemmInput::bound(p.a.view(), p.b.view(),
                                                  p.c.view()),
                                 opt)
                           : engine().sgemm(
                                 GemmInput::bound(p.a.view(), p.b.view(),
                                                  p.c.view()),
                                 opt);
  GemmRun out;
  out.cycles = r.cycles;
  out.c.reserve(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.c.push_back(p.c.at(i, j));
  EXPECT_GE(r.host_wall_us, 0.0);
  return out;
}

GemmRun run_f64(std::size_t m, std::size_t n, std::size_t k, TaskPool* pool) {
  Prng rng(99);
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.next_float(-1, 1);
  for (auto& v : b) v = rng.next_float(-1, 1);
  for (auto& v : c) v = rng.next_float(-1, 1);
  FtimmOptions opt;
  opt.host_pool = pool;
  const GemmResult r = dgemm(
      engine(), DGemmInput::bound(a.data(), b.data(), c.data(), m, n, k),
      opt);
  GemmRun out;
  out.cycles = r.cycles;
  out.c.reserve(c.size());
  for (double v : c) out.c.push_back(static_cast<float>(v));
  return out;
}

/// The engine's core guarantee: for every strategy, running with no pool,
/// a 2-way pool, and an 8-way pool yields byte-identical C and the exact
/// same simulated cycle count.
TEST(HostExecEngine, CyclesAndOutputIndependentOfPoolSize) {
  TaskPool pool2(2), pool8(8);
  struct Case {
    Strategy force;
    bool tree;
    std::size_t m, n, k;
  };
  const Case cases[] = {
      {Strategy::TGemm, false, 300, 200, 150},
      {Strategy::ParallelM, false, 2048, 32, 64},
      {Strategy::ParallelK, false, 32, 32, 4096},
      {Strategy::ParallelK, true, 48, 24, 3000},  // tree reduction
  };
  for (const Case& cs : cases) {
    const GemmRun base = run_f32(cs.force, cs.tree, cs.m, cs.n, cs.k,
                                 nullptr);
    for (TaskPool* pool : {&pool2, &pool8}) {
      const GemmRun run = run_f32(cs.force, cs.tree, cs.m, cs.n, cs.k, pool);
      EXPECT_EQ(run.cycles, base.cycles)
          << to_string(cs.force) << " pool=" << pool->parallelism();
      ASSERT_EQ(std::memcmp(run.c.data(), base.c.data(),
                            base.c.size() * sizeof(float)),
                0)
          << to_string(cs.force) << " tree=" << cs.tree
          << " pool=" << pool->parallelism();
    }
  }
}

TEST(HostExecEngine, DgemmIndependentOfPoolSize) {
  TaskPool pool2(2), pool8(8);
  const GemmRun base = run_f64(333, 24, 700, nullptr);
  for (TaskPool* pool : {&pool2, &pool8}) {
    const GemmRun run = run_f64(333, 24, 700, pool);
    EXPECT_EQ(run.cycles, base.cycles);
    ASSERT_EQ(std::memcmp(run.c.data(), base.c.data(),
                          base.c.size() * sizeof(float)),
              0)
        << "pool=" << pool->parallelism();
  }
}

/// The scalar tier must also leave cycles and C untouched (the dispatch
/// tier is a pure host-speed knob, like the pool).
TEST(HostExecEngine, OutputIndependentOfSimdTier) {
  TierGuard guard;
  hostsimd::set_active_tier(hostsimd::best_tier());
  const GemmRun simd =
      run_f32(Strategy::ParallelM, false, 1024, 48, 96, nullptr);
  hostsimd::set_active_tier(Tier::Scalar);
  const GemmRun scalar =
      run_f32(Strategy::ParallelM, false, 1024, 48, 96, nullptr);
  EXPECT_EQ(simd.cycles, scalar.cycles);
  ASSERT_EQ(std::memcmp(simd.c.data(), scalar.c.data(),
                        simd.c.size() * sizeof(float)),
            0);
}

// ---- Observability counters ----------------------------------------------

TEST(HostExecEngine, TraceCountersReportTierAndPool) {
  TaskPool pool(4);
  workload::GemmProblem p = workload::make_problem(256, 64, 128, 5);
  FtimmOptions opt;
  opt.force = Strategy::ParallelM;
  opt.host_pool = &pool;
  trace::TraceSession session;
  session.start();
  engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  session.stop();
  const auto counters = session.counters();
  EXPECT_TRUE(counters.has("host.simd_tier"));
  EXPECT_EQ(counters.value("host.pool_threads"), 4u);
  EXPECT_EQ(counters.value("host.simd_tier"),
            static_cast<std::uint64_t>(hostsimd::active_tier()));
}

}  // namespace
}  // namespace ftm::core
