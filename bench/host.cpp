// Host wall-clock experiments: they time the simulator itself, so their
// numbers depend on the host and are never checked in.
//
// host-throughput (docs/performance.md): wall-clock GEMMs/s, GFLOPS and
// DDR GB/s of *functional* runs across the paper's shape taxonomy, swept
// over SIMD dispatch tier x host thread count. Simulated cycles are
// identical in every cell (the determinism gate in
// tests/host_exec_test.cpp enforces that); only the host wall clock moves.
// The speedup column is relative to (scalar tier, 1 thread), the
// pre-engine configuration.
//
// trace-overhead: runs the same GEMM workload with no session installed
// vs. with an active session and gates the median per-rep host-time
// ratio. The headline check uses functional mode — the configuration real
// users profile, where DMA memcpys and kernel math dominate — and must
// stay under 2% overhead. Timing-only mode (no data movement, so
// instrumentation is the largest remaining cost per site) is reported as
// the worst case but not gated. Built with -DFTM_TRACE=OFF the
// instrumentation does not exist at all, so both columns measure
// identical code and the experiment just confirms that.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

using core::FtimmOptions;
using core::GemmInput;
namespace hostsimd = kernelgen::hostsimd;

struct Shape {
  std::size_t m, n, k;
  const char* cls;  ///< paper taxonomy label
};

/// Best-of-reps wall time of one functional GEMM, in milliseconds.
double run_ms(core::FtimmEngine& eng, workload::GemmProblem& p,
              const FtimmOptions& opt, int reps, core::GemmResult& out) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    out = eng.sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()),
                    opt);
    best = std::min(
        best, std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
  }
  return best;
}


double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  core::FtimmEngine& eng;
  bool functional;

  void run() {
    FtimmOptions opt;
    opt.cores = 8;
    opt.functional = functional;
    if (functional) {
      // Irregular shapes sized so one run is a few ms of host work.
      for (auto [m, n, k] : {std::array<std::size_t, 3>{1536, 32, 512},
                             {256, 64, 2048},
                             {2048, 96, 256}}) {
        workload::GemmProblem p = workload::make_problem(m, n, k, /*seed=*/7);
        (void)eng.sgemm(
            GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
      }
    } else {
      // Timing-only: no memcpys, so per-site instrumentation cost is as
      // exposed as it can get.
      for (auto [m, n, k] : {std::array<std::size_t, 3>{20480, 32, 2048},
                             {4096, 32, 20480},
                             {8192, 96, 4096}}) {
        (void)eng.sgemm(GemmInput::shape_only(m, n, k), opt);
      }
    }
  }
};

/// Per-rep paired measurement. Each rep times one untraced and one traced
/// pass back-to-back so slow drift (thermal, page cache, competing load)
/// hits both sides equally; the order alternates every rep to cancel any
/// first-runner advantage. Two estimators come out: the MEDIAN of the
/// per-rep overhead ratios (robust to single-rep scheduler blips) and the
/// ratio of best-of floors (robust to sustained drift windows, since the
/// floor of a deterministic workload is its true runtime). The gate takes
/// the smaller — real overhead registers in both, while host noise (±4%
/// heavy-tailed here, vs a true signal of 1871 events in ~200 ms ≈ 0.03%)
/// rarely corrupts both the same way.
struct Timing {
  double untraced_ms = 1e300;  // best-of floors
  double traced_ms = 1e300;
  double median_pct = 0.0;

  double gated_pct() const {
    const double floor_pct =
        untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0
                        : 0.0;
    return std::min(median_pct, floor_pct);
  }
};

Timing measure(Workload& w, int reps) {
  Timing t;
  std::vector<double> pcts;
  for (int r = 0; r < reps; ++r) {
    double off_ms = 0.0;
    double on_ms = 0.0;
    const bool traced_first = (r % 2) != 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == traced_first;
      trace::TraceSession session;
      if (traced) session.start();
      const double t0 = now_ms();
      w.run();
      (traced ? on_ms : off_ms) = now_ms() - t0;
      if (traced) session.stop();
    }
    t.untraced_ms = std::min(t.untraced_ms, off_ms);
    t.traced_ms = std::min(t.traced_ms, on_ms);
    if (off_ms > 0) pcts.push_back((on_ms - off_ms) / off_ms * 100.0);
  }
  if (!pcts.empty()) {
    std::sort(pcts.begin(), pcts.end());
    const std::size_t n = pcts.size();
    t.median_pct = (n % 2) ? pcts[n / 2]
                           : 0.5 * (pcts[n / 2 - 1] + pcts[n / 2]);
  }
  return t;
}

}  // namespace

int host_throughput(const Cli& cli) {
  const bool smoke = cli.get_bool("smoke", false);
  const int reps = static_cast<int>(cli.get_int("reps", smoke ? 1 : 2));
  const std::string csv = cli.get("csv", result_path("host_throughput.csv"));

  // Moderate representatives of the paper's irregular-shape taxonomy;
  // smoke mode shrinks them so CI spends seconds, not minutes.
  std::vector<Shape> shapes;
  if (smoke) {
    shapes = {{256, 96, 256, "square"},
              {4096, 32, 32, "tall"},
              {32, 32, 4096, "deep"}};
  } else {
    shapes = {{1024, 96, 1024, "square"},
              {65536, 32, 32, "tall"},
              {32, 32, 65536, "deep"},
              {2048, 64, 2048, "large"}};
  }

  struct Config {
    hostsimd::Tier tier;
    unsigned threads;
  };
  std::vector<hostsimd::Tier> tiers = {hostsimd::Tier::Scalar};
  if (hostsimd::best_tier() != hostsimd::Tier::Scalar) {
    tiers.push_back(hostsimd::best_tier());
  }
  std::vector<Config> configs;
  for (const hostsimd::Tier tier : tiers) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      configs.push_back({tier, threads});
    }
  }

  core::FtimmEngine eng;
  TaskPool pool2(2), pool8(8);
  auto pool_for = [&](unsigned threads) -> TaskPool* {
    if (threads == 2) return &pool2;
    if (threads == 8) return &pool8;
    return nullptr;  // 1 = inline, the pre-engine behavior
  };

  Table t({"shape", "class", "tier", "threads", "wall ms", "gemms/s",
           "gflops", "ddr GB/s", "speedup"});
  double headline = 0.0;  // best speedup of the (best tier, 8 threads) cell

  const hostsimd::Tier prev = hostsimd::active_tier();
  for (const Shape& s : shapes) {
    workload::GemmProblem p =
        workload::make_problem(s.m, s.n, s.k, /*seed=*/11);
    FtimmOptions opt;
    opt.cores = 8;

    // Warm-up: kernel generation/calibration, plan choice, page faults.
    core::GemmResult r;
    (void)run_ms(eng, p, opt, 1, r);

    double base_ms = 0.0;
    for (const Config& cfg : configs) {
      hostsimd::set_active_tier(cfg.tier);
      opt.host_pool = pool_for(cfg.threads);
      const double ms = run_ms(eng, p, opt, reps, r);
      if (cfg.tier == hostsimd::Tier::Scalar && cfg.threads == 1) {
        base_ms = ms;
      }
      const double flops = 2.0 * s.m * s.n * s.k;
      const double speedup = ms > 0 ? base_ms / ms : 0.0;
      if (cfg.tier == hostsimd::best_tier() && cfg.threads == 8) {
        headline = std::max(headline, speedup);
      }
      t.begin_row()
          .cell(shape_key(s.m, s.n, s.k))
          .cell(s.cls)
          .cell(hostsimd::to_string(cfg.tier))
          .cell(static_cast<long long>(cfg.threads))
          .cell(ms, 3)
          .cell(ms > 0 ? 1000.0 / ms : 0.0, 1)
          .cell(ms > 0 ? flops / (ms * 1e6) : 0.0, 2)
          .cell(ms > 0 ? static_cast<double>(r.ddr_bytes) / (ms * 1e6)
                       : 0.0,
                2)
          .cell(speedup, 2);
    }
  }
  hostsimd::set_active_tier(prev);

  t.print("Host execution engine throughput (functional runs)");
  if (!csv.empty()) save(t, csv);
  std::printf("host parallelism: %u hw threads; best tier: %s\n",
              std::thread::hardware_concurrency(),
              hostsimd::to_string(hostsimd::best_tier()));
  std::printf("headline speedup (best tier, 8 threads vs scalar, 1): "
              "%.2fx\n",
              headline);
  return 0;
}

int trace_overhead(const Cli& cli) {
  const int reps = cli.get_int("reps", 11);
  const double limit_pct = cli.get_double("limit_pct", 2.0);

  core::FtimmEngine eng;
  Table t({"mode", "untraced ms", "traced ms", "overhead %", "events"});

  double headline_pct = 0.0;
  for (const bool functional : {true, false}) {
    Workload w{eng, functional};
    w.run();  // warm-up: kernel cache, page faults

    const Timing tm = measure(w, reps);
    const double off = tm.untraced_ms;
    const double on = tm.traced_ms;
    const double pct = tm.gated_pct();

    // Event volume of one traced pass, for context.
    std::size_t events = 0;
    {
      trace::TraceSession session;
      session.start();
      w.run();
      session.stop();
      events = session.event_count();
    }

    t.begin_row()
        .cell(functional ? "functional" : "timing-only")
        .cell(off, 3)
        .cell(on, 3)
        .cell(pct, 2)
        .cell(events);
    if (functional) headline_pct = pct;
  }
  t.print("Trace overhead (active session vs none)");

#if FTM_TRACE_ENABLED
  std::printf("\ninstrumentation: compiled in (FTM_TRACE=ON)\n");
#else
  std::printf("\ninstrumentation: compiled out (FTM_TRACE=OFF)\n");
#endif
  const bool pass = headline_pct < limit_pct;
  std::printf("headline (functional) overhead %.2f%% vs limit %.2f%%: %s\n",
              headline_pct, limit_pct, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace ftm::bench
