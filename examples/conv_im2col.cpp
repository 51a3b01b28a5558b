// CNN convolution layers lowered to GEMM via im2col — the paper's third
// motivating workload. Early layers produce huge-M / tiny-K-and-N GEMMs
// (type I); deeper layers grow K while M shrinks.
//
// Default path: each layer is expressed as an operator graph
// (graph::conv2d = im2col node + GEMM node) and run through the
// GraphExecutor, so the patch matrix — the im2col-lowered A, by far the
// largest intermediate — stays scratchpad-resident instead of making a
// DDR round-trip between lowering and GEMM. The table reports the DDR
// bytes the planner deletes per layer. `--no-graph` keeps the original
// direct-engine sweep (ftIMM vs TGEMM) for A/B comparison.
//
//   ./conv_im2col [--batch 1] [--verify true] [--no-graph]
#include <cstdio>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"
#include "ftm/workload/generators.hpp"

namespace {

using namespace ftm;

// Original pre-graph path: every layer's GEMM as an isolated engine call,
// ftIMM vs TGEMM on the simulated cluster.
int run_direct(std::size_t batch, bool verify) {
  core::FtimmEngine engine;
  Table t({"layer", "M", "K", "N", "type", "strategy", "ftIMM GFlops",
           "TGEMM GFlops", "speedup", "layer ms"});

  double total_ft = 0, total_tg = 0;
  for (const workload::ConvLayer& l : workload::vgg_style_layers(batch)) {
    const std::size_t m = l.gemm_m(), k = l.gemm_k(), n = l.gemm_n();
    core::FtimmOptions opt;
    opt.functional = false;  // timing sweep; functional check below
    const auto in = core::GemmInput::shape_only(m, n, k);
    const core::GemmResult ft = engine.sgemm(in, opt);
    const core::GemmResult tg = engine.tgemm(in, opt);
    total_ft += ft.seconds;
    total_tg += tg.seconds;
    t.begin_row()
        .cell(l.name)
        .cell(m)
        .cell(k)
        .cell(n)
        .cell(to_string(workload::classify(m, n, k)))
        .cell(to_string(ft.strategy))
        .cell(ft.gflops, 1)
        .cell(tg.gflops, 1)
        .cell(tg.seconds / ft.seconds, 2)
        .cell(ft.seconds * 1e3, 3);
  }
  t.print("VGG-style convolution stack via im2col on one GPDSP cluster");
  std::printf("stack total: ftIMM %.2f ms vs TGEMM %.2f ms -> %.2fx\n",
              total_ft * 1e3, total_tg * 1e3, total_tg / total_ft);

  if (verify) {
    // Functional check on a reduced first layer: im2col + ftIMM == im2col
    // + reference GEMM.
    workload::ConvLayer small;
    small.name = "verify";
    small.batch = 1;
    small.in_ch = 3;
    small.height = small.width = 32;
    small.out_ch = 16;
    workload::GemmProblem p = workload::make_im2col_gemm(small);
    HostMatrix expect(p.m, p.n);
    cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
    const core::GemmResult r = engine.sgemm(
        core::GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
    const double err = max_rel_diff(p.c.view(), expect.view());
    std::printf(
        "verification layer (%zux%zux%zu): max rel err %.2e (%s), %.1f "
        "GFlops via %s\n",
        p.m, p.k, p.n, err, err < gemm_tolerance(p.k) ? "OK" : "FAIL",
        r.gflops, to_string(r.strategy));
    return err < gemm_tolerance(p.k) ? 0 : 1;
  }
  return 0;
}

graph::ConvParams to_conv_params(const workload::ConvLayer& l) {
  graph::ConvParams p;
  p.batch = l.batch;
  p.in_ch = l.in_ch;
  p.height = l.height;
  p.width = l.width;
  p.kh = l.kh;
  p.kw = l.kw;
  p.stride = l.stride;
  p.pad = l.pad;
  return p;
}

// Graph path: conv2d = im2col node + GEMM node per layer; the planner
// keeps the patch matrix on-chip between the two.
int run_graph(std::size_t batch, bool verify) {
  runtime::GemmRuntime rt{runtime::RuntimeOptions{}};
  Table t({"layer", "M", "K", "N", "type", "strategy", "GFlops",
           "DDR MB (all-DDR)", "DDR MB (planned)", "saved %", "layer ms"});

  graph::GraphOptions opt;
  opt.gemm.functional = false;  // timing sweep; functional check below
  graph::GraphExecutor ex(rt, opt);

  double total_s = 0;
  std::uint64_t total_ddr = 0, total_unplanned = 0;
  for (const workload::ConvLayer& l : workload::vgg_style_layers(batch)) {
    const std::size_t m = l.gemm_m(), k = l.gemm_k(), n = l.gemm_n();
    graph::Graph g;
    const graph::TensorId img =
        g.input("img", l.batch * l.in_ch * l.height, l.width);
    const graph::TensorId filters = g.input("filters", k, n);
    g.mark_output(graph::conv2d(g, img, filters, to_conv_params(l), l.name));
    const graph::GraphResult r = ex.run(g, {});
    total_s += r.seconds;
    total_ddr += r.ddr_bytes;
    total_unplanned += r.ddr_bytes_unplanned;
    core::Strategy strat = core::Strategy::Auto;
    for (const graph::NodeStats& ns : r.node_stats) {
      if (ns.kind == graph::OpKind::Gemm) strat = ns.strategy;
    }
    t.begin_row()
        .cell(l.name)
        .cell(m)
        .cell(k)
        .cell(n)
        .cell(to_string(workload::classify(m, n, k)))
        .cell(to_string(strat))
        .cell(2.0 * m * n * k / r.seconds / 1e9, 1)
        .cell(r.ddr_bytes_unplanned / 1e6, 1)
        .cell(r.ddr_bytes / 1e6, 1)
        .cell(100.0 * r.ddr_bytes_saved / r.ddr_bytes_unplanned, 1)
        .cell(r.seconds * 1e3, 3);
  }
  t.print("VGG-style stack as operator graphs (im2col + GEMM per layer)");
  std::printf(
      "stack total: %.2f ms; DDR %.1f MB planned vs %.1f MB all-DDR "
      "(%.1f%% saved)\n",
      total_s * 1e3, total_ddr / 1e6, total_unplanned / 1e6,
      100.0 * (total_unplanned - total_ddr) / total_unplanned);

  if (verify) {
    // Functional check on a reduced first layer: the graph's im2col+GEMM
    // against im2col + reference GEMM on the same deterministic image.
    workload::ConvLayer small;
    small.batch = 1;
    small.in_ch = 3;
    small.height = small.width = 32;
    small.out_ch = 16;
    const workload::GemmProblem p = workload::make_im2col_gemm(small);
    const graph::ConvParams cp = to_conv_params(small);
    Prng rng(11);  // same seed/order as make_im2col_gemm's image fill
    HostMatrix image(cp.batch * cp.in_ch * cp.height, cp.width);
    image.fill_random(rng);

    graph::Graph g;
    const graph::TensorId img = g.input("img", image.rows(), image.cols());
    const graph::TensorId filters = g.input("filters", p.k, p.n);
    const graph::TensorId out = graph::conv2d(g, img, filters, cp, "verify");
    g.mark_output(out);
    HostMatrix got(p.m, p.n);
    got.fill(0.0f);
    graph::Bindings bind;
    bind.bind_input(img, image.view()).bind_input(filters, p.b.view());
    bind.bind_output(out, got.view());
    graph::GraphExecutor fex(rt);  // functional defaults
    const graph::GraphResult r = fex.run(g, bind);

    HostMatrix expect(p.m, p.n);
    expect.fill(0.0f);
    cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
    const double err = max_rel_diff(got.view(), expect.view());
    std::printf(
        "verification layer (%zux%zux%zu): max rel err %.2e (%s), "
        "%.1f KB DDR saved by residency\n",
        p.m, p.k, p.n, err, err < gemm_tolerance(p.k) ? "OK" : "FAIL",
        r.ddr_bytes_saved / 1e3);
    return err < gemm_tolerance(p.k) ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (!cli.check("conv_im2col", {"batch", "verify", "no-graph"})) return 2;
  const std::size_t batch =
      static_cast<std::size_t>(cli.get_int("batch", 1));
  const bool verify = cli.get_bool("verify", true);
  if (cli.get_bool("no-graph", false)) return run_direct(batch, verify);
  return run_graph(batch, verify);
}
