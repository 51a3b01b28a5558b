#include "ops.hpp"

#include "ftm/util/prng.hpp"

namespace perfbench {

using ftm::kernelgen::DType;

std::optional<WorkloadId> parse_workload(const std::string& name) {
  for (const WorkloadId w :
       {WorkloadId::TaxonomyFunctional, WorkloadId::ServingTiny,
        WorkloadId::SweepTiming}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(WorkloadId w) {
  switch (w) {
    case WorkloadId::TaxonomyFunctional: return "taxonomy-functional";
    case WorkloadId::ServingTiny: return "serving-tiny";
    case WorkloadId::SweepTiming: return "sweep-timing";
  }
  return "?";
}

namespace {

/// A size drawn uniformly within +-1/16 of `center`: wide enough that
/// every seed hits different block remainders, narrow enough that the
/// op mix (and so the run's throughput) stays the same band.
std::size_t around(ftm::Prng& rng, std::size_t center) {
  const std::size_t half = center / 16;
  return center - half + rng.next_below(2 * half + 1);
}

Op gemm(std::size_t m, std::size_t n, std::size_t k, DType dt = DType::F32) {
  Op op;
  op.kind = dt == DType::F64 ? OpKind::Dgemm : OpKind::Gemm;
  op.m = m;
  op.n = n;
  op.k = k;
  op.dtype = dt;
  return op;
}

// Host-feasible sizes of the paper's taxonomy (functional math runs on the
// host, so the paper's 262144-scale shapes are divided down). Op lists have
// an odd length: the latency median then falls inside one op's cluster of
// samples instead of on the edge between two.
std::vector<Op> taxonomy_ops(ftm::Prng& rng) {
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(gemm(around(rng, 16384), 32, 32));
  }
  for (int i = 0; i < 3; ++i) {
    ops.push_back(gemm(32, 32, around(rng, 65536)));
  }
  for (int i = 0; i < 2; ++i) {
    ops.push_back(gemm(around(rng, 2048), 64, around(rng, 2048)));
  }
  ops.push_back(gemm(512, 512, 512));
  ops.push_back(gemm(around(rng, 2048), 64, around(rng, 1024),
                     DType::F16));
  ops.push_back(gemm(around(rng, 16384), 32, 32, DType::BF16));
  ops.push_back(gemm(around(rng, 1024), 48, around(rng, 1024),
                     DType::F64));
  return ops;
}

// Edge-inference traffic: 64-160 x 32 x 64 requests, most from a small hot
// set of shapes, a tail of other shapes, one in four latency-class.
std::vector<Op> serving_ops(ftm::Prng& rng) {
  constexpr std::size_t kMinM = 64, kMaxM = 160;
  constexpr int kHot = 6;
  constexpr std::size_t kRequests = 2048;
  auto draw_m = [&] { return kMinM + rng.next_below(kMaxM - kMinM + 1); };
  // One hot shape per sixth of the M range, so every seed's hot set spans
  // the range alike and the seed moves remainders, not the mean size.
  constexpr std::size_t kStratum = (kMaxM - kMinM) / kHot;
  std::size_t hot[kHot];
  for (int h = 0; h < kHot; ++h) {
    hot[h] = kMinM + h * kStratum + rng.next_below(kStratum);
  }
  std::vector<Op> ops;
  ops.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const bool tail = rng.next_below(8) == 0;
    Op op = gemm(tail ? draw_m() : hot[rng.next_below(kHot)], 32, 64);
    op.latency_class = i % 4 == 3;
    ops.push_back(op);
  }
  return ops;
}

// Paper-scale timing-only use: the Fig. 5 taxonomy shapes, the perf-gate
// operator-graph chains, and one 4-node type-III scale-out GEMM. The
// type-III shape runs three times a pass and sits in the middle of the
// latency order, so the median lands inside its cluster: not on the edge
// to a neighbouring op, and not on a graph run, whose runtime hand-offs
// swing with host scheduling. It is not drawn by the seed: the host cost
// of simulating it jumps by up to half between block remainders, which
// moved the median across seeds by more than host noise does.
std::vector<Op> sweep_ops(ftm::Prng& rng) {
  std::vector<Op> ops;
  ops.push_back(gemm(around(rng, 262144), 32, 32));
  ops.push_back(gemm(32, 32, around(rng, 262144)));
  ops.push_back(gemm(around(rng, 262144), 64, 64));
  for (int i = 0; i < 3; ++i) ops.push_back(gemm(8192, 96, 8192));
  ops.push_back(gemm(4096, 4096, 4096));
  for (int g = 0; g < kGraphChains; ++g) {
    Op op;
    op.kind = OpKind::Graph;
    op.graph = g;
    ops.push_back(op);
  }
  Op nodes = gemm(20480, 32, 20480);
  nodes.kind = OpKind::Nodes;
  ops.push_back(nodes);
  return ops;
}

}  // namespace

std::vector<Op> make_ops(WorkloadId w, std::uint64_t seed) {
  ftm::Prng rng(seed);
  switch (w) {
    case WorkloadId::TaxonomyFunctional: return taxonomy_ops(rng);
    case WorkloadId::ServingTiny: return serving_ops(rng);
    case WorkloadId::SweepTiming: return sweep_ops(rng);
  }
  return {};
}

}  // namespace perfbench
