// Feature ablations: the same shapes with one FtimmOptions switch on and
// off, reported as GFlops both ways plus the feature's gain (off time / on
// time). One table-driven loop serves all three:
//   * ping-pong — the paper's three-level DMA/compute overlap;
//   * dynamic — the §IV-C block-size adjuster vs the shape-agnostic
//     initial blocks (the CMR optimum for large matrices);
//   * reduction — the pairwise-tree K-strategy reduction vs the paper's
//     serial one through core 0 (whose overhead the paper blames for the
//     K strategy's scaling limit in Fig. 6).
#include <string>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using core::Strategy;

struct ToggleCase {
  std::vector<std::string> label;  ///< leading cells of the row
  std::size_t m, n, k;
  int cores = 8;
  Strategy force = Strategy::Auto;
};

struct Toggle {
  const char* title;
  const char* csv;
  std::vector<std::string> header;
  bool FtimmOptions::*feature;
  bool off_first;  ///< the "off" GFlops column comes before the "on" one
  int gain_digits;
  bool strategy;  ///< trailing column: the strategy the "on" run chose
  std::vector<ToggleCase> cases;
};

int run_toggle(const Toggle& tg) {
  core::FtimmEngine eng;
  Table t(tg.header);
  for (const ToggleCase& c : tg.cases) {
    FtimmOptions on = timing_only(c.cores);
    on.force = c.force;
    on.*tg.feature = true;
    FtimmOptions off = on;
    off.*tg.feature = false;
    const GemmInput in = GemmInput::shape_only(c.m, c.n, c.k);
    // N > 96 is past every generated kernel's width: regular TGEMM.
    const auto run = [&](const FtimmOptions& o) {
      return c.n > 96 ? eng.tgemm(in, o) : eng.sgemm(in, o);
    };
    const GemmResult r_on = run(on);
    const GemmResult r_off = run(off);
    t.begin_row();
    for (const std::string& cell : c.label) t.cell(cell);
    const GemmResult& first = tg.off_first ? r_off : r_on;
    const GemmResult& second = tg.off_first ? r_on : r_off;
    t.cell(first.gflops, 1)
        .cell(second.gflops, 1)
        .cell(r_off.seconds / r_on.seconds, tg.gain_digits);
    if (tg.strategy) t.cell(to_string(r_on.strategy));
  }
  report(t, tg.title, tg.csv);
  return 0;
}

struct Shape {
  std::size_t m, n, k;
};

std::vector<std::string> mnk(std::size_t m, std::size_t n, std::size_t k) {
  return {std::to_string(m), std::to_string(n), std::to_string(k)};
}

}  // namespace

int ablation_pingpong(const Cli&) {
  return run_toggle(
      {.title = "Ablation: ping-pong (DMA/compute overlap) on vs off, 8 cores",
       .csv = "ablation_pingpong.csv",
       .header = {"case", "overlap GFlops", "serial GFlops", "overlap gain",
                  "strategy"},
       .feature = &FtimmOptions::pingpong,
       .off_first = false,
       .gain_digits = 2,
       .strategy = true,
       .cases = {{{"type I 2^18x32x32"}, 1 << 18, 32, 32},
                 {{"type I 2^16x96x96"}, 1 << 16, 96, 96},
                 {{"type II 32x32x2^18"}, 32, 32, 1 << 18},
                 {{"type III 20480x32x20480"}, 20480, 32, 20480},
                 {{"tgemm-regular 4096x512x4096"}, 4096, 512, 4096}}});
}

int ablation_dynamic(const Cli&) {
  Toggle tg{.title = "Ablation: dynamic block adjusting vs fixed initial "
                     "blocks",
            .csv = "ablation_dynamic.csv",
            .header = {"M", "N", "K", "dynamic GFlops", "static GFlops",
                       "gain", "strategy"},
            .feature = &FtimmOptions::dynamic_blocks,
            .off_first = false,
            .gain_digits = 2,
            .strategy = true,
            .cases = {}};
  for (const auto& [m, n, k] : {Shape{1 << 18, 8, 8}, Shape{1 << 18, 32, 32},
                                Shape{1 << 18, 96, 96}, Shape{1 << 16, 16, 64},
                                Shape{20480, 32, 20480},
                                Shape{32, 32, 1 << 18}}) {
    tg.cases.push_back({mnk(m, n, k), m, n, k});
  }
  return run_toggle(tg);
}

int ablation_reduction(const Cli&) {
  Toggle tg{
      .title =
          "Ablation: K-strategy reduction — serial (paper) vs pairwise tree",
      .csv = "ablation_reduction.csv",
      .header = {"M", "N", "K", "cores", "serial GFlops", "tree GFlops",
                 "tree gain"},
      .feature = &FtimmOptions::tree_reduction,
      .off_first = true,
      .gain_digits = 3,
      .strategy = false,
      .cases = {}};
  for (const auto& [m, n, k] :
       {Shape{32, 32, 1 << 18}, Shape{64, 64, 1 << 16}, Shape{32, 32, 20480},
        Shape{96, 96, 1 << 16}}) {
    for (int cores : {2, 4, 8}) {
      std::vector<std::string> label = mnk(m, n, k);
      label.push_back(std::to_string(cores));
      tg.cases.push_back({label, m, n, k, cores, Strategy::ParallelK});
    }
  }
  return run_toggle(tg);
}

}  // namespace ftm::bench
