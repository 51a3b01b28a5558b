// Three-layer MLP inference expressed as one operator graph — the
// workload the ISSUE-6 graph subsystem exists for. Every layer is an
// irregular GEMM (tall-skinny activations against small square-ish
// weights, paper type I/III) followed by bias-add and ReLU, so seven of
// the nine nodes produce intermediates the memory planner can keep in
// GSM/AM or fold in place instead of round-tripping through DDR.
//
// Runs the same graph twice — planning on, planning off — prints the
// per-node breakdown and the planner's placement report, and verifies the
// planned output bit-for-bit against the same ops as separate engine
// calls.
//
//   ./mlp_chain [--rows 1847] [--verify true] [--report true]
#include <cstdio>
#include <cstring>

#include "ftm/core/ftimm.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  if (!cli.check("mlp_chain", {"rows", "verify", "report"})) return 2;
  // Deliberately not a multiple of anything: an irregular batch.
  const std::size_t rows =
      static_cast<std::size_t>(cli.get_int("rows", 1847));
  const bool verify = cli.get_bool("verify", true);
  const bool report = cli.get_bool("report", true);
  const std::size_t dims[4] = {512, 256, 64, 10};  // tapering MLP

  // Owner storage for the external tensors.
  Prng rng(2026);
  HostMatrix xm(rows, dims[0]);
  xm.fill_random(rng);
  HostMatrix wm[3] = {{dims[0], dims[1]}, {dims[1], dims[2]},
                      {dims[2], dims[3]}};
  HostMatrix bm[3] = {{1, dims[1]}, {1, dims[2]}, {1, dims[3]}};
  for (int l = 0; l < 3; ++l) {
    wm[l].fill_random(rng);
    bm[l].fill_random(rng, -0.5f, 0.5f);
  }
  HostMatrix outm(rows, dims[3]);
  outm.fill(0.0f);

  // x -> [gemm -> bias -> relu] x3 (no ReLU after the last layer).
  graph::Graph g;
  graph::Bindings bind;
  const graph::TensorId x = g.input("x", rows, dims[0]);
  bind.bind_input(x, xm.view());
  graph::TensorId h = x;
  for (int l = 0; l < 3; ++l) {
    char name[16];
    std::snprintf(name, sizeof(name), "l%d", l + 1);
    const graph::TensorId w = g.input(std::string(name) + ".w", dims[l],
                                      dims[l + 1]);
    const graph::TensorId b =
        g.input(std::string(name) + ".b", 1, dims[l + 1]);
    bind.bind_input(w, wm[l].view());
    bind.bind_input(b, bm[l].view());
    h = g.bias_add(g.gemm(h, w, name), b);
    if (l < 2) h = g.relu(h);
  }
  g.mark_output(h);
  bind.bind_output(h, outm.view());

  runtime::RuntimeOptions ro;
  // Sharding a wide GEMM across clusters re-blocks each shard, which can
  // reorder FP32 accumulation; keep it off so the graph stays bit-identical
  // to the separate engine calls the verification compares against.
  ro.split_wide = false;
  runtime::GemmRuntime rt(ro);
  graph::GraphExecutor planned(rt);
  const graph::GraphResult rp = planned.run(g, bind);

  graph::GraphOptions off;
  off.planner.residency = false;
  off.planner.inplace = false;
  HostMatrix out_unplanned(rows, dims[3]);
  out_unplanned.fill(0.0f);
  graph::Bindings bind2 = bind;
  bind2.bind_output(h, out_unplanned.view());
  const graph::GraphResult ru = graph::GraphExecutor(rt, off).run(g, bind2);

  Table t({"node", "op", "strategy", "cycles", "DDR KB (all-DDR)",
           "DDR KB (planned)"});
  for (const graph::NodeStats& ns : rp.node_stats) {
    t.begin_row()
        .cell(g.node(ns.node).name)
        .cell(graph::to_string(ns.kind))
        .cell(ns.kind == graph::OpKind::Gemm ? to_string(ns.strategy) : "-")
        .cell(ns.cycles)
        .cell(ns.ddr_bytes_unplanned / 1e3, 1)
        .cell(ns.ddr_bytes / 1e3, 1);
  }
  t.print("3-layer MLP (" + std::to_string(rows) +
          " rows): per-node cost with residency planning");
  const graph::MemoryPlan& mp = planned.last_plan();
  std::printf(
      "planned: %llu cycles, %.1f KB DDR | unplanned: %.1f KB DDR | saved "
      "%.1f KB (%zu resident, %zu in-place, %zu spilled)\n",
      static_cast<unsigned long long>(rp.cycles), rp.ddr_bytes / 1e3,
      ru.ddr_bytes / 1e3, rp.ddr_bytes_saved / 1e3, mp.resident_tensors,
      mp.inplace_tensors, mp.spilled_tensors);
  if (report) mp.report(g).print("memory plan");

  if (!verify) return 0;

  // The planned and unplanned runs must agree bit-for-bit, and both must
  // match the same math as separate engine + hostsimd calls.
  core::FtimmEngine eng;
  HostMatrix cur(rows, dims[0]);
  std::memcpy(cur.data(), xm.data(), xm.size() * sizeof(float));
  for (int l = 0; l < 3; ++l) {
    HostMatrix next(cur.rows(), dims[l + 1]);
    next.fill(0.0f);
    eng.sgemm(core::GemmInput::bound(cur.view(), wm[l].view(), next.view()));
    const MatrixView nv = next.view();
    for (std::size_t r = 0; r < next.rows(); ++r) {
      kernelgen::hostsimd::add_f32(nv.row(r), bm[l].view().row(0),
                                   next.cols());
      if (l < 2) kernelgen::hostsimd::relu_f32(nv.row(r), next.cols());
    }
    cur = std::move(next);
  }
  const bool same_ab = std::memcmp(outm.data(), out_unplanned.data(),
                                   outm.size() * sizeof(float)) == 0;
  const bool same_ref =
      std::memcmp(outm.data(), cur.data(), outm.size() * sizeof(float)) == 0;
  std::printf("verify: planned==unplanned %s, graph==engine-calls %s\n",
              same_ab ? "OK" : "FAIL", same_ref ? "OK" : "FAIL");
  return same_ab && same_ref ? 0 : 1;
}
