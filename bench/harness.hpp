// Shared harness of the ftm_bench driver: every experiment prints its data
// as aligned tables and writes its CSVs under results/, and the experiments
// that feed tools/bench_compare.py share one JSON writer. The experiment
// entry points and the pieces two experiments share are declared here; the
// registry that dispatches on them is in main.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftm/core/types.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"

namespace ftm::bench {

/// `results/<file>`, relative to the working directory: where every
/// experiment's CSV goes by default.
std::string result_path(const std::string& file);

/// Creates the directories `path` needs.
void make_parent_dirs(const std::string& path);

/// Writes `t` to `path`, creating its directory, and says where.
void save(const Table& t, const std::string& path);

/// Prints `t` under `title` and writes it to `result_path(csv)`.
void report(const Table& t, const std::string& title, const std::string& csv);

/// Options for a timing-only run on `cores` cores: the experiments need
/// simulated cycles, not the data movement a functional run adds.
core::FtimmOptions timing_only(int cores = 8);

/// One entry of the perf-gate JSON schema read by tools/bench_compare.py.
/// Gated entries carry the host wall-clock of the run (informational, never
/// gated); informational entries are printed by the compare, never gated.
struct GateEntry {
  std::string shape;
  std::string variant;
  std::uint64_t cycles = 0;
  std::uint64_t wall_us = 0;
  bool informational = false;
};

/// "MxNxK", the shape key of the gate schema.
std::string shape_key(std::size_t m, std::size_t n, std::size_t k);

/// Writes `entries` as one gate JSON document. False (with a message on
/// stderr) when `path` cannot be written.
bool write_gate_json(const std::string& path,
                     const std::vector<GateEntry>& entries);

// ---- pieces shared by two experiments -----------------------------------

/// x -> [gemm -> bias -> relu] x layers (no ReLU on the last).
graph::Graph mlp_chain(std::size_t rows, const std::vector<std::size_t>& dims);
/// Pure 3-GEMM chain x * w1 * w2 * w3.
graph::Graph gemm3_chain(std::size_t m, std::size_t k, std::size_t n);
/// One conv layer as im2col + GEMM.
graph::Graph conv_chain(std::size_t in_ch, std::size_t hw, std::size_t out_ch,
                        const std::string& name);

/// Node-count scaling sweep (Fig. 6 one level up) with `tile`-row M tiles
/// and `panel`-deep K panels; appends one informational entry per point.
Table node_scaling(std::size_t tile, std::size_t panel,
                   std::vector<GateEntry>& entries);

// ---- experiments (one per paper table/figure, ablation or extension) ----

int tables(const Cli& cli);
int fig3(const Cli& cli);
int fig4(const Cli& cli);
int fig5(const Cli& cli);
int fig6(const Cli& cli);
int fig7(const Cli& cli);
int ablation_pingpong(const Cli& cli);
int ablation_dynamic(const Cli& cli);
int ablation_reduction(const Cli& cli);
int ablation_model(const Cli& cli);
int batched(const Cli& cli);
int fp64(const Cli& cli);
int sensitivity(const Cli& cli);
int mixed(const Cli& cli);
int runtime_sweep(const Cli& cli);
int graph_chains(const Cli& cli);
int node_sweep(const Cli& cli);
int host_throughput(const Cli& cli);
int trace_overhead(const Cli& cli);
int gate(const Cli& cli);

}  // namespace ftm::bench
