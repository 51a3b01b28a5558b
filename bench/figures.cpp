// GEMM-level paper figures: Fig. 4 (single core), Fig. 5 (8 cores, with
// the roofline and the forced-strategy table), Fig. 6 (1-8 core
// scalability) and Fig. 7 (efficiency against a host-CPU SGEMM).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/cpu/peak.hpp"
#include "ftm/trace/chrome.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/workload/generators.hpp"
#include "ftm/workload/sweeps.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using core::Strategy;

void fig4_panel(core::FtimmEngine& eng, const char* title,
                const std::vector<workload::GemmShape>& shapes, Table& all,
                const char* panel) {
  Table t({"M", "N", "K", "ftIMM GFlops", "TGEMM GFlops", "speedup",
           "strategy"});
  for (const auto& s : shapes) {
    const FtimmOptions opt = timing_only(1);
    const GemmInput in = GemmInput::shape_only(s.m, s.n, s.k);
    const GemmResult ft = eng.sgemm(in, opt);
    const GemmResult tg = eng.tgemm(in, opt);
    const double speedup = tg.seconds / ft.seconds;
    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(ft.gflops, 1)
        .cell(tg.gflops, 1)
        .cell(speedup, 2)
        .cell(to_string(ft.strategy));
    all.begin_row()
        .cell(panel)
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(ft.gflops, 1)
        .cell(tg.gflops, 1)
        .cell(speedup, 2);
  }
  t.print(title);
}

void fig5_panel(core::FtimmEngine& eng, const char* title,
                const std::vector<workload::GemmShape>& shapes, Table& all,
                const char* panel) {
  Table t({"M", "N", "K", "ftIMM GFlops", "TGEMM GFlops", "speedup",
           "roofline", "% of roof", "strategy"});
  for (const auto& s : shapes) {
    const FtimmOptions opt = timing_only();
    const GemmInput in = GemmInput::shape_only(s.m, s.n, s.k);
    const GemmResult ft = eng.sgemm(in, opt);
    const GemmResult tg = eng.tgemm(in, opt);
    const double roof = eng.roofline(s.m, s.n, s.k, 8);
    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(ft.gflops, 1)
        .cell(tg.gflops, 1)
        .cell(tg.seconds / ft.seconds, 2)
        .cell(roof, 1)
        .cell(100.0 * ft.gflops / roof, 1)
        .cell(to_string(ft.strategy));
    all.begin_row()
        .cell(panel)
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(ft.gflops, 1)
        .cell(tg.gflops, 1)
        .cell(tg.seconds / ft.seconds, 2)
        .cell(roof, 1);
  }
  t.print(title);
}

/// Forced M vs K parallelization against the dispatcher's choice: the
/// table that quantifies the auto strategy selection.
void forced_strategy_panel(core::FtimmEngine& eng) {
  Table t({"M", "N", "K", "auto", "force-M GFlops", "force-K GFlops",
           "tgemm GFlops"});
  struct Case {
    std::size_t m, n, k;
  };
  for (const Case s : {Case{1 << 18, 32, 32}, Case{32, 32, 1 << 18},
                       Case{20480, 32, 20480}, Case{4096, 96, 4096},
                       Case{1024, 32, 1024}}) {
    FtimmOptions opt = timing_only();
    const GemmInput in = GemmInput::shape_only(s.m, s.n, s.k);
    const Strategy chosen = eng.choose_strategy(s.m, s.n, s.k);
    opt.force = Strategy::ParallelM;
    const GemmResult rm = eng.sgemm(in, opt);
    opt.force = Strategy::ParallelK;
    const GemmResult rk = eng.sgemm(in, opt);
    opt.force = Strategy::Auto;
    const GemmResult rt = eng.tgemm(in, opt);
    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(to_string(chosen))
        .cell(rm.gflops, 1)
        .cell(rk.gflops, 1)
        .cell(rt.gflops, 1);
  }
  t.print("Ablation: forced parallelization strategy (8 cores)");
}

double time_cpu_gemm(workload::GemmProblem& p, cpu::ThreadPool& pool,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    p.c.fill(0.0f);
    const auto t0 = std::chrono::steady_clock::now();
    cpu::cpu_gemm(p.a.view(), p.b.view(), p.c.view(), &pool);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, dt);
  }
  return best;
}

void fig7_panel(core::FtimmEngine& eng, cpu::ThreadPool& pool,
                double cpu_peak_gflops, const char* title,
                const std::vector<workload::GemmShape>& shapes, int reps,
                Table& all, const char* panel) {
  Table t({"M", "N", "K", "DSP GFlops", "DSP eff", "CPU GFlops", "CPU eff",
           "eff ratio"});
  const double dsp_peak = eng.machine().cluster_peak_gflops();
  for (const auto& s : shapes) {
    const FtimmOptions opt = timing_only();
    const GemmResult dsp =
        eng.sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
    const double dsp_eff = dsp.gflops / dsp_peak;

    workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 5);
    const double secs = time_cpu_gemm(p, pool, reps);
    const double cpu_gflops = p.flops() / secs / 1e9;
    const double cpu_eff = cpu_gflops / cpu_peak_gflops;

    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(dsp.gflops, 1)
        .cell(dsp_eff, 3)
        .cell(cpu_gflops, 1)
        .cell(cpu_eff, 3)
        .cell(dsp_eff / cpu_eff, 2);
    all.begin_row()
        .cell(panel)
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(dsp_eff, 4)
        .cell(cpu_eff, 4)
        .cell(dsp_eff / cpu_eff, 2);
  }
  t.print(title);
}

}  // namespace

// Fig. 4: single-core ftIMM vs TGEMM on the three irregular types
// (timing-only: cycles come from calibrated kernels plus the DMA model).
int fig4(const Cli&) {
  core::FtimmEngine eng;
  Table all({"panel", "M", "N", "K", "ftimm_gflops", "tgemm_gflops",
             "speedup"});
  fig4_panel(eng, "Fig. 4(a): tall-and-skinny x small, M=20480, single core",
             workload::fig4_type1(), all, "a");
  fig4_panel(eng,
             "Fig. 4(b): skinny-and-tall x tall-and-skinny, K=20480, single "
             "core",
             workload::fig4_type2(), all, "b");
  fig4_panel(eng,
             "Fig. 4(c): large regular x tall-and-skinny, M=K=20480, single "
             "core",
             workload::fig4_type3(), all, "c");
  save(all, result_path("fig4_singlecore.csv"));
  return 0;
}

// Fig. 5: ftIMM vs TGEMM on an 8-core cluster, all six panels, with the
// roofline bound the paper plots. --trace FILE dumps a Perfetto trace.
int fig5(const Cli& cli) {
  const std::string trace_path = cli.get("trace", "");
  trace::TraceSession session;
  if (!trace_path.empty()) session.start();

  core::FtimmEngine eng;
  Table all({"panel", "M", "N", "K", "ftimm_gflops", "tgemm_gflops",
             "speedup", "roofline"});

  fig5_panel(eng, "Fig. 5(a): type I, M=2^16, N=K sweep, 8 cores",
             workload::fig5a(
                 static_cast<std::size_t>(cli.get_int("fig5a_m", 1 << 16))),
             all, "a");
  fig5_panel(eng, "Fig. 5(b): type II, K=2^16, M=N sweep, 8 cores",
             workload::fig5b(), all, "b");
  fig5_panel(eng, "Fig. 5(c): type III, M=K=20480, N sweep, 8 cores",
             workload::fig5c(), all, "c");
  fig5_panel(eng, "Fig. 5(d): type I, N=K=32, M=2^16..2^22, 8 cores",
             workload::fig5d(), all, "d");
  fig5_panel(eng, "Fig. 5(e): type II, M=N=32, K=2^16..2^22, 8 cores",
             workload::fig5e(), all, "e");
  fig5_panel(eng, "Fig. 5(f): type III, N=32, M=K=4096..20480, 8 cores",
             workload::fig5f(), all, "f");
  save(all, result_path("fig5_multicore.csv"));

  forced_strategy_panel(eng);

  if (session.active()) {
    session.stop();
    trace::write_chrome_json(session, trace_path);
    std::printf("trace: %zu events -> %s\n", session.event_count(),
                trace_path.c_str());
    session.summary().print("Trace summary");
  }
  return 0;
}

// Fig. 6: speedup over one core, 1-8 cores, on the three 20480-scale
// irregular GEMMs. Scaling is sub-linear (DDR-bandwidth-bound).
int fig6(const Cli&) {
  core::FtimmEngine eng;
  const auto cases = workload::fig6_cases();

  Table t({"cores", "typeI speedup", "typeI GFlops", "typeII speedup",
           "typeII GFlops", "typeIII speedup", "typeIII GFlops"});
  Table csv({"cores", "case", "M", "N", "K", "gflops", "speedup"});

  std::vector<double> base(cases.size(), 0.0);
  for (int cores = 1; cores <= 8; ++cores) {
    t.begin_row().cell(static_cast<long long>(cores));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& s = cases[i];
      const FtimmOptions opt = timing_only(cores);
      const GemmResult r =
          eng.sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
      if (cores == 1) base[i] = r.seconds;
      const double speedup = base[i] / r.seconds;
      t.cell(speedup, 2).cell(r.gflops, 1);
      csv.begin_row()
          .cell(static_cast<long long>(cores))
          .cell(static_cast<long long>(i) + 1)
          .cell(s.m)
          .cell(s.n)
          .cell(s.k)
          .cell(r.gflops, 2)
          .cell(speedup, 3);
    }
  }
  t.print(
      "Fig. 6: scalability (type I: 20480x32x32 | type II: 32x32x20480 | "
      "type III: 20480x32x20480)");
  save(csv, result_path("fig6_scalability.csv"));
  return 0;
}

// Fig. 7: efficiency (achieved / device peak) of ftIMM on the simulated
// cluster vs a packed multi-threaded SGEMM on the host CPU. The DSP side
// is simulated cycles against the 2764.8 GFlops cluster peak, the CPU side
// wall-clock against the host's measured FMA peak, so this CSV is
// host-dependent. --full runs type III at the paper's M=K=20480 instead of
// 10240; --reps N takes the best of N CPU timings.
int fig7(const Cli& cli) {
  const int reps = static_cast<int>(cli.get_int("reps", 2));
  const bool full = cli.get_bool("full", false);

  core::FtimmEngine eng;
  cpu::ThreadPool pool;
  print_banner("Measuring host CPU FP32 peak");
  const double cpu_peak = cpu::measure_peak_gflops(pool);
  std::printf("Host peak (FMA microbenchmark, %u threads): %.1f GFlops\n",
              pool.size(), cpu_peak);
  std::printf("Simulated GPDSP cluster peak: %.1f GFlops\n",
              eng.machine().cluster_peak_gflops());

  Table all({"panel", "M", "N", "K", "dsp_eff", "cpu_eff", "ratio"});
  fig7_panel(eng, pool, cpu_peak, "Fig. 7(a): type I (M=20480, N=K sweep)",
             workload::fig7_type1(), reps, all, "a");
  fig7_panel(eng, pool, cpu_peak, "Fig. 7(b): type II (K=20480, M=N sweep)",
             workload::fig7_type2(), reps, all, "b");

  std::vector<workload::GemmShape> t3 = workload::fig7_type3();
  if (!full) {
    for (auto& s : t3) {
      s.m = 10240;
      s.k = 10240;
    }
  }
  fig7_panel(eng, pool, cpu_peak,
             full ? "Fig. 7(c): type III (M=K=20480, N sweep)"
                  : "Fig. 7(c): type III (M=K=10240, N sweep; --full for "
                    "20480)",
             t3, reps, all, "c");
  save(all, result_path("fig7_cpu_vs_dsp.csv"));
  return 0;
}

}  // namespace ftm::bench
