// ftm_bench: one driver for every paper table/figure, ablation, extension
// sweep, CI smoke check and the perf gate.
//
//   ftm_bench <experiment> [flags]   run one experiment
//   ftm_bench all                    rewrite every reproducible results/*.csv
//   ftm_bench help                   list the experiments and their flags
//   ftm_bench <experiment> --help    list one experiment's flags
//
// An unknown experiment, a flag the experiment does not take, or a stray
// positional argument exits 2 before anything runs, so a typo in a CI step
// fails instead of silently running the default sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using ftm::Cli;
namespace bench = ftm::bench;

struct Experiment {
  const char* name;
  int (*run)(const Cli&);
  std::vector<std::string> flags;
  /// Run without flags, it writes only byte-reproducible CSVs (simulated
  /// cycles, no host clock), so `all` regenerates them and CI diffs them
  /// against the checked-in copies.
  bool reproducible;
  const char* summary;
};

int run_all(const Cli& none);

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> kAll = {
      {"all", run_all, {}, false,
       "every reproducible experiment, rewriting its results/*.csv"},
      {"tables", bench::tables, {"columns", "disasm"}, true,
       "Tables I-III: generated micro-kernel pipelines"},
      {"fig3", bench::fig3, {}, true, "Fig. 3: micro-kernel efficiency"},
      {"fig4", bench::fig4, {}, true, "Fig. 4: single-core ftIMM vs TGEMM"},
      {"fig5", bench::fig5, {"trace", "fig5a_m"}, true,
       "Fig. 5: 8-core ftIMM vs TGEMM + roofline + forced strategies"},
      {"fig6", bench::fig6, {}, true, "Fig. 6: 1-8 core scalability"},
      {"fig7", bench::fig7, {"reps", "full"}, false,
       "Fig. 7: efficiency vs a host-CPU SGEMM (host-measured)"},
      {"ablation-pingpong", bench::ablation_pingpong, {}, true,
       "DMA/compute ping-pong on vs off"},
      {"ablation-dynamic", bench::ablation_dynamic, {}, true,
       "dynamic block adjusting vs fixed initial blocks"},
      {"ablation-model", bench::ablation_model, {}, true,
       "detailed kernel simulation vs the analytic II bound"},
      {"ablation-reduction", bench::ablation_reduction, {}, true,
       "pairwise-tree vs serial K-strategy reduction"},
      {"batched", bench::batched, {}, true,
       "batch-parallel small GEMMs vs per-problem runs"},
      {"fp64", bench::fp64, {}, true,
       "FP64 micro-kernels vs the moved broadcast wall"},
      {"sensitivity", bench::sensitivity, {}, true,
       "DDR bandwidth / DMA startup / broadcast what-ifs"},
      {"mixed", bench::mixed, {"smoke", "csv"}, true,
       "FP16/BF16 tier vs the doubled roofline"},
      {"runtime", bench::runtime_sweep,
       {"replay", "sdc-rate", "fault-rate", "requests", "seed", "smoke",
        "json", "trace"},
       true,
       "multi-cluster runtime throughput; --replay serving sweep; "
       "--sdc-rate ABFT sweep"},
      {"graph", bench::graph_chains, {"smoke", "csv"}, false,
       "operator-graph chains with/without residency planning"},
      {"nodes", bench::node_sweep, {"smoke", "csv", "m-tile", "k-panel"},
       false, "multi-node scale-out + link-bandwidth sensitivity"},
      {"host-throughput", bench::host_throughput, {"smoke", "reps", "csv"},
       false, "host wall-clock of functional runs: SIMD tier x threads"},
      {"trace-overhead", bench::trace_overhead, {"reps", "limit_pct"}, false,
       "trace-layer host overhead gate (< 2%)"},
      {"gate", bench::gate, {"out", "budget"}, false,
       "perf-gate cycle matrix + node entries as JSON for bench_compare.py"},
  };
  return kAll;
}

void usage(std::FILE* out) {
  std::fprintf(out, "usage: ftm_bench <experiment> [flags]\nexperiments:\n");
  for (const Experiment& e : experiments()) {
    std::fprintf(out, "  %-19s %s\n", e.name, e.summary);
    if (!e.flags.empty()) {
      std::fprintf(out, "%21s%s\n", "", Cli::flag_list(e.flags).c_str());
    }
  }
}

int run_all(const Cli& none) {
  int failed = 0;
  for (const Experiment& e : experiments()) {
    if (e.reproducible && e.run(none) != 0) {
      std::fprintf(stderr, "ftm_bench all: %s failed\n", e.name);
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "--help" || name == "help") {
    usage(stdout);
    return 0;
  }
  const Experiment* exp = nullptr;
  for (const Experiment& e : experiments()) {
    if (name == e.name) exp = &e;
  }
  if (exp == nullptr) {
    std::fprintf(stderr, "ftm_bench: unknown experiment '%s'\n",
                 name.c_str());
    usage(stderr);
    return 2;
  }

  const Cli cli(argc - 1, argv + 1);
  if (cli.has("help")) {
    std::printf("ftm_bench %s%s\n  %s\n", exp->name,
                Cli::flag_list(exp->flags).c_str(), exp->summary);
    return 0;
  }
  if (!cli.check(std::string("ftm_bench ") + exp->name, exp->flags)) {
    return 2;
  }
  return exp->run(cli);
}
