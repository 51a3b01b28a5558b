// Multi-node scale-out sweeps (docs/scaleout.md).
//
// Default mode reproduces a Fig. 6-style scaling study one level up the
// hierarchy: the three 20480-scale taxonomy problems plus a regular
// 4096^3 anchor, sharded across 1/2/4/8 modeled FT-m7032 nodes, timing
// only — per-phase cycles (input distribution, compute, K reduction),
// interconnect traffic, and speedup over one node. A second sweep holds
// the grid fixed and varies link bandwidth, isolating how fast an
// interconnect the sharding needs before collectives stop mattering. The
// `gate` experiment also emits the scaling cycles, as informational
// entries: the node layer sits above the frozen single-processor cycle
// model, so they are never gated.
//
//   --csv PREFIX   write PREFIX_scaling.csv and PREFIX_bandwidth.csv
//   --smoke        CI invariants instead of the sweeps: N-node functional
//                  results bit-identical to 1-node and correct against a
//                  host reference; compute cycles monotone non-increasing
//                  in node count; makespan monotone non-increasing in
//                  link bandwidth. Exit 0 iff all hold.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ftm/nodes/scaleout.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/workload/generators.hpp"
#include "ftm/workload/sweeps.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

using core::GemmInput;

const std::vector<int> kNodeCounts = {1, 2, 4, 8};
const std::vector<double> kBandwidths = {4, 16, 64, 256};

std::vector<workload::GemmShape> sweep_shapes() {
  std::vector<workload::GemmShape> shapes = workload::fig6_cases();
  shapes.push_back({4096, 4096, 4096});  // regular anchor
  return shapes;
}

nodes::NodeResult run_nodes(const workload::GemmShape& s, int n,
                            double bytes_per_cycle, bool model_input,
                            std::size_t tile = 8192,
                            std::size_t panel = 8192) {
  nodes::NodeOptions no;
  no.nodes = n;
  no.link.bytes_per_cycle = bytes_per_cycle;
  no.model_input_distribution = model_input;
  no.m_tile_rows = tile;
  no.k_panel = panel;
  no.runtime.gemm.functional = false;
  nodes::NodeCluster nc(no);
  return nc.gemm(GemmInput::shape_only(s.m, s.n, s.k));
}


/// Host reference C += A*B with double accumulation — the independent
/// yardstick for the functional bit-identity check.
void reference_gemm(const workload::GemmProblem& p, MatrixView c) {
  for (std::size_t i = 0; i < p.m; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) {
      double acc = c(i, j);
      for (std::size_t l = 0; l < p.k; ++l) {
        acc += static_cast<double>(p.a.at(i, l)) *
               static_cast<double>(p.b.at(l, j));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
}

int check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
  return ok ? 0 : 1;
}

int smoke() {
  int failures = 0;

  // 1) Bit-identity: every taxonomy type, miniature scale so the full
  // canonical grid (several M tiles x K panels) is exercised, across
  // node counts including non-powers of two. The N-node C must be
  // byte-identical to the 1-node C (docs/scaleout.md "Determinism") and
  // correct against the host reference.
  const std::vector<workload::GemmShape> minis = {
      {256, 16, 48},    // type I mini  (Tm=4, Tk=1)
      {16, 16, 256},    // type II mini (Tm=1, Tk=4)
      {192, 16, 192},   // type III mini (Tm=3, Tk=3)
  };
  for (const auto& s : minis) {
    const workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k);
    HostMatrix ref(s.m, s.n);
    std::copy(p.c.data(), p.c.data() + ref.size(), ref.data());
    reference_gemm(p, ref.view());
    std::vector<float> c1;
    for (const int n : {1, 2, 3, 5}) {
      nodes::NodeOptions no;
      no.nodes = n;
      no.m_tile_rows = 64;
      no.k_panel = 64;
      HostMatrix c(s.m, s.n);
      std::copy(p.c.data(), p.c.data() + c.size(), c.data());
      nodes::NodeCluster nc(no);
      nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c.view()));
      if (n == 1) {
        c1.assign(c.data(), c.data() + c.size());
        failures += check(
            max_rel_diff(c.view(), ref.view()) <= gemm_tolerance(s.k),
            "1-node result disagrees with host reference");
      } else {
        failures += check(std::memcmp(c1.data(), c.data(),
                                      c1.size() * sizeof(float)) == 0,
                          "N-node C not bit-identical to 1-node C");
      }
    }
    std::printf("smoke: %s bit-identical over {1,2,3,5} nodes\n",
                shape_key(s.m, s.n, s.k).c_str());
  }

  // 2) Compute scaling: more nodes must never increase the compute-phase
  // makespan (the grid only ever spreads the same canonical cells).
  for (const auto& s : workload::fig6_cases()) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const int n : kNodeCounts) {
      const nodes::NodeResult r = run_nodes(s, n, 16.0, false);
      if (!first) {
        failures += check(r.compute_cycles <= prev,
                          "compute cycles grew with node count");
      }
      prev = r.compute_cycles;
      first = false;
    }
    std::printf("smoke: %s compute cycles monotone over nodes\n",
                shape_key(s.m, s.n, s.k).c_str());
  }

  // 3) Bandwidth sensitivity: a faster link must never lengthen the
  // makespan (collective + distribution costs shrink, compute is fixed).
  {
    const workload::GemmShape s = workload::fig6_cases().back();
    std::uint64_t prev = 0;
    bool first = true;
    for (const double bpc : kBandwidths) {
      const nodes::NodeResult r = run_nodes(s, 4, bpc, true);
      if (!first) {
        failures += check(r.cycles <= prev,
                          "makespan grew with link bandwidth");
      }
      prev = r.cycles;
      first = false;
    }
    std::printf("smoke: %s makespan monotone over link bandwidth\n",
                shape_key(s.m, s.n, s.k).c_str());
  }

  if (failures == 0) std::printf("smoke: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

Table node_scaling(std::size_t tile, std::size_t panel,
                   std::vector<GateEntry>& entries) {
  // ---- node-count scaling (Fig. 6 one level up) -------------------------
  // Steady state: operands already distributed (iterative workloads),
  // so the curve isolates compute scaling + reduction cost. The input
  // distribution cost is the bandwidth sweep's subject below.
  Table st({"shape", "type", "nodes", "grid", "cycles", "compute",
            "reduce", "link MB", "gflops", "speedup"});
  for (const auto& s : sweep_shapes()) {
    std::uint64_t base = 0;
    for (const int n : kNodeCounts) {
      const nodes::NodeResult r = run_nodes(s, n, 16.0, false, tile, panel);
      if (n == 1) base = r.cycles;
      st.begin_row()
          .cell(shape_key(s.m, s.n, s.k))
          .cell(to_string(workload::classify(s.m, s.n, s.k)))
          .cell(n)
          .cell(std::to_string(r.grid_p) + "x" + std::to_string(r.grid_q))
          .cell(static_cast<std::size_t>(r.cycles))
          .cell(static_cast<std::size_t>(r.compute_cycles))
          .cell(static_cast<std::size_t>(r.reduce_cycles))
          .cell(static_cast<double>(r.link_bytes) / 1e6, 2)
          .cell(r.gflops, 1)
          .cell(static_cast<double>(base) / static_cast<double>(r.cycles),
                2);
      entries.push_back({.shape = shape_key(s.m, s.n, s.k),
                         .variant = "nodes_" + std::to_string(n),
                         .cycles = r.cycles,
                         .informational = true});
    }
  }
  return st;
}

int node_sweep(const Cli& cli) {
  if (cli.get_bool("smoke", false)) return smoke();
  const std::string csv = cli.get("csv", "");
  // 2048-element tiles give every sweep shape (the 4096^3 anchor
  // included) a multi-cell canonical grid, so the node counts have
  // something to spread.
  const auto tile = static_cast<std::size_t>(cli.get_int("m-tile", 2048));
  const auto panel = static_cast<std::size_t>(cli.get_int("k-panel", 2048));

  std::vector<GateEntry> entries;
  const Table st = node_scaling(tile, panel, entries);
  st.print("node scaling (steady state: operands pre-distributed)");
  if (!csv.empty()) save(st, csv + "_scaling.csv");

  // ---- link bandwidth sensitivity ---------------------------------------
  Table bt({"shape", "bytes/cycle", "GB/s", "cycles", "input", "reduce",
            "link MB"});
  const workload::GemmShape bs = workload::fig6_cases().back();
  for (const double bpc : kBandwidths) {
    const nodes::NodeResult r = run_nodes(bs, 4, bpc, true, tile, panel);
    bt.begin_row()
        .cell(shape_key(bs.m, bs.n, bs.k))
        .cell(bpc, 0)
        .cell(bpc * 1.8, 1)  // at the 1.8 GHz core clock
        .cell(static_cast<std::size_t>(r.cycles))
        .cell(static_cast<std::size_t>(r.input_cycles))
        .cell(static_cast<std::size_t>(r.reduce_cycles))
        .cell(static_cast<double>(r.link_bytes) / 1e6, 2);
  }
  bt.print("link bandwidth sensitivity (4 nodes)");
  if (!csv.empty()) save(bt, csv + "_bandwidth.csv");

  return 0;
}

}  // namespace ftm::bench
