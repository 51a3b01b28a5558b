// Layer-chain sweep for the operator-graph executor (docs/graph.md): for
// each representative chain, run the same graph with scratchpad-residency
// planning on and off and report simulated cycles, DDR traffic both ways,
// the bytes residency deletes, and host wall-clock. The simulator is
// deterministic, so the cycle and byte columns are bit-reproducible;
// wall-clock is informational.
//
// Also the CI guard for the graph acceptance invariants (exit 1 on
// violation):
//   * planned DDR bytes < unplanned DDR bytes on every chain that has a
//     scratchpad-sized intermediate (strict decrease, ddr_bytes_saved>0);
//   * saved == unplanned - planned exactly;
//   * planning never changes simulated cycles of a pure-GEMM chain;
//   * repeated runs are bit-identical.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ftm/graph/executor.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/runtime/runtime.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

struct Chain {
  std::string name;
  graph::Graph g;
  bool pure_gemm = false;  ///< no elementwise/im2col nodes
  bool expect_savings = true;
};

struct Row {
  std::string name;
  graph::GraphResult planned, unplanned;
  std::size_t resident, inplace, spilled;
};

}  // namespace

graph::Graph mlp_chain(std::size_t rows,
                       const std::vector<std::size_t>& dims) {
  graph::Graph g;
  graph::TensorId h = g.input("x", rows, dims[0]);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::string ln = "l" + std::to_string(l + 1);
    const graph::TensorId w = g.input(ln + ".w", dims[l], dims[l + 1]);
    const graph::TensorId b = g.input(ln + ".b", 1, dims[l + 1]);
    h = g.bias_add(g.gemm(h, w, ln), b);
    if (l + 2 < dims.size()) h = g.relu(h);
  }
  g.mark_output(h);
  return g;
}

graph::Graph gemm3_chain(std::size_t m, std::size_t k, std::size_t n) {
  graph::Graph g;
  const graph::TensorId x = g.input("x", m, k);
  const graph::TensorId w1 = g.input("w1", k, n);
  const graph::TensorId w2 = g.input("w2", n, n);
  const graph::TensorId w3 = g.input("w3", n, n);
  g.mark_output(g.gemm(g.gemm(g.gemm(x, w1), w2), w3));
  return g;
}

graph::Graph conv_chain(std::size_t in_ch, std::size_t hw, std::size_t out_ch,
                        const std::string& name) {
  graph::Graph g;
  graph::ConvParams p;
  p.in_ch = in_ch;
  p.height = p.width = hw;
  const graph::TensorId img = g.input("img", p.batch * in_ch * hw, hw);
  const graph::TensorId filters = g.input("filters", p.gemm_k(), out_ch);
  g.mark_output(graph::conv2d(g, img, filters, p, name));
  return g;
}

int graph_chains(const Cli& cli) {
  const bool smoke = cli.get_bool("smoke", false);
  const std::string csv =
      cli.get("csv", smoke ? "" : result_path("graph_chains.csv"));

  // Irregular layer chains: tall-skinny MLPs (paper type I/III
  // activations), a pure GEMM chain, and conv layers whose patch matrix
  // is the dominant intermediate. Smoke mode shrinks rows, not structure.
  const std::size_t r1 = smoke ? 640 : 1847;
  const std::size_t r2 = smoke ? 1024 : 16384;
  std::vector<Chain> chains;
  chains.push_back({"mlp3-taper", mlp_chain(r1, {512, 256, 64, 10})});
  chains.push_back({"mlp3-wide", mlp_chain(r2, {256, 96, 96, 32})});
  chains.push_back({"gemm3-384x64", gemm3_chain(384, 64, 64), true});
  // Patch matrix 48*48 x 576 = 5.3 MB: fits the 6 MB GSM arena.
  chains.push_back({"conv-48x48x64",
                    conv_chain(64, smoke ? 28 : 48, 96, "conv-48x48x64")});
  // A chain whose patch matrix exceeds GSM (56*56 x 576 = 7.2 MB):
  // exercises the deterministic spill path; the conv output is a graph
  // output (DDR by rule), so this chain legitimately saves nothing.
  chains.push_back({"conv-56x56x64", conv_chain(64, 56, 96, "conv-56x56x64"),
                    false, false});

  runtime::RuntimeOptions ro;
  // Wide-split shard count depends on which clusters happen to be idle at
  // submit time — inherently wall-clock-dependent. Off, so cycles and DDR
  // bytes are bit-reproducible and the planned/unplanned diff is exact.
  ro.split_wide = false;
  runtime::GemmRuntime rt(ro);
  graph::GraphOptions timing;
  timing.gemm.functional = false;
  graph::GraphOptions off = timing;
  off.planner.residency = false;
  off.planner.inplace = false;

  Table t({"chain", "nodes", "gemms", "cycles", "ms", "DDR MB (all-DDR)",
           "DDR MB (planned)", "saved %", "resident", "inplace", "spilled",
           "wall us"});
  std::vector<Row> rows;
  int failures = 0;
  for (Chain& c : chains) {
    graph::GraphExecutor pex(rt, timing);
    Row r;
    r.name = c.name;
    r.planned = pex.run(c.g, {});
    r.unplanned = graph::GraphExecutor(rt, off).run(c.g, {});
    const graph::MemoryPlan& mp = pex.last_plan();
    r.resident = mp.resident_tensors;
    r.inplace = mp.inplace_tensors;
    r.spilled = mp.spilled_tensors;
    rows.push_back(r);

    // Invariants (the CI guard).
    const auto& p = r.planned;
    const auto& u = r.unplanned;
    if (p.ddr_bytes_saved != u.ddr_bytes_unplanned - p.ddr_bytes ||
        p.ddr_bytes_unplanned != u.ddr_bytes) {
      std::fprintf(stderr, "FAIL %s: savings accounting inconsistent\n",
                   c.name.c_str());
      ++failures;
    }
    if (c.expect_savings &&
        !(p.ddr_bytes_saved > 0 && p.ddr_bytes < u.ddr_bytes)) {
      std::fprintf(stderr, "FAIL %s: no strict DDR decrease\n",
                   c.name.c_str());
      ++failures;
    }
    if (c.pure_gemm && p.cycles != u.cycles) {
      std::fprintf(stderr, "FAIL %s: planning changed GEMM cycles\n",
                   c.name.c_str());
      ++failures;
    }
    const graph::GraphResult again = pex.run(c.g, {});
    if (again.cycles != p.cycles || again.ddr_bytes != p.ddr_bytes) {
      std::fprintf(stderr, "FAIL %s: run not deterministic\n",
                   c.name.c_str());
      ++failures;
    }

    t.begin_row()
        .cell(c.name)
        .cell(p.nodes)
        .cell(p.gemm_nodes)
        .cell(static_cast<std::size_t>(p.cycles))
        .cell(p.seconds * 1e3, 3)
        .cell(u.ddr_bytes / 1e6, 2)
        .cell(p.ddr_bytes / 1e6, 2)
        .cell(100.0 * p.ddr_bytes_saved / u.ddr_bytes, 1)
        .cell(r.resident)
        .cell(r.inplace)
        .cell(r.spilled)
        .cell(p.host_wall_us, 0);
  }
  t.print(std::string("operator-graph layer chains") +
          (smoke ? " (smoke)" : ""));

  if (!csv.empty()) {
    make_parent_dirs(csv);
    std::ofstream f(csv);
    f << "chain,nodes,gemm_nodes,cycles,seconds,ddr_bytes_unplanned,"
         "ddr_bytes_planned,ddr_bytes_saved,resident,inplace,spilled,"
         "host_wall_us\n";
    for (const Row& r : rows) {
      f << r.name << ',' << r.planned.nodes << ',' << r.planned.gemm_nodes
        << ',' << r.planned.cycles << ',' << r.planned.seconds << ','
        << r.unplanned.ddr_bytes << ',' << r.planned.ddr_bytes << ','
        << r.planned.ddr_bytes_saved << ',' << r.resident << ','
        << r.inplace << ',' << r.spilled << ',' << r.planned.host_wall_us
        << '\n';
    }
    std::printf("wrote %s\n", csv.c_str());
  }
  if (failures == 0) std::printf("graph invariants: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace ftm::bench
