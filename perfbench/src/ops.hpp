// The seeded op generator: every workload's op list is a pure function of
// (workload, seed), so the system under test only ever sees generated
// inputs and one seed always replays the same ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftm/kernelgen/spec.hpp"

namespace perfbench {

enum class WorkloadId { TaxonomyFunctional, ServingTiny, SweepTiming };

std::optional<WorkloadId> parse_workload(const std::string& name);
const char* to_string(WorkloadId w);

enum class OpKind : std::uint8_t {
  Gemm,   ///< one engine GEMM (F32, or F16/BF16 through hgemm_f32)
  Dgemm,  ///< one FP64 engine GEMM
  Graph,  ///< one GraphExecutor run of chain `graph`
  Nodes,  ///< one NodeCluster::gemm
};

struct Op {
  OpKind kind = OpKind::Gemm;
  std::size_t m = 0, n = 0, k = 0;
  ftm::kernelgen::DType dtype = ftm::kernelgen::DType::F32;
  bool latency_class = false;  ///< serving: Priority::Latency + Verify floor
  int graph = -1;              ///< Graph ops: index into the chain list

  double flops() const { return 2.0 * m * n * k; }
  friend bool operator==(const Op&, const Op&) = default;
};

/// The op list of `w` for `seed`. Taxonomy and sweep lists are short and
/// cycled; the serving list is a long request stream.
std::vector<Op> make_ops(WorkloadId w, std::uint64_t seed);

/// Number of operator-graph chains Graph ops index (perf-gate chains).
inline constexpr int kGraphChains = 3;

}  // namespace perfbench
