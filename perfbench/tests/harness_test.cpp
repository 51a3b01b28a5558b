// Checks of the harness's own code: the tail-percentile rule, the seeded
// op generator, span self time and the result line. Exits non-zero on the
// first failed check.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ops.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(n - i));
  return xs;  // descending, so the helper must sort
}

void tail_percentile_needs_ten_samples_beyond() {
  using perfbench::tail_percentile;
  // 1000 samples: rank 990 leaves exactly 10 beyond p99.
  perfbench::Tail t = tail_percentile(ramp(1000));
  expect(t.pct == 99 && t.value == 990 && t.samples == 1000,
         "1000 samples report p99 = 990");
  // 999 samples: p99 would leave 9 beyond, so p90 (rank 900) is reported.
  t = tail_percentile(ramp(999));
  expect(t.pct == 90 && t.value == 900 && t.samples == 999,
         "999 samples fall back to p90");
  // 100 samples: p90 leaves exactly 10 beyond.
  t = tail_percentile(ramp(100));
  expect(t.pct == 90 && t.value == 90, "100 samples report p90");
  // 19 samples: nothing qualifies; the median is returned as such.
  t = tail_percentile(ramp(19));
  expect(t.pct == 50 && t.value == 10 && t.samples == 19,
         "19 samples report the median");
  expect(perfbench::median({3, 1, 2, 4}) == 2.5, "even-count median");
}

void one_seed_one_op_list() {
  using perfbench::WorkloadId;
  for (const WorkloadId w :
       {WorkloadId::TaxonomyFunctional, WorkloadId::ServingTiny,
        WorkloadId::SweepTiming}) {
    const auto a = perfbench::make_ops(w, 7);
    const auto b = perfbench::make_ops(w, 7);
    const auto c = perfbench::make_ops(w, 8);
    expect(!a.empty() && a == b, "same seed, identical op list");
    expect(a != c, "another seed, another op list");
    expect(perfbench::parse_workload(perfbench::to_string(w)) == w,
           "workload names round-trip");
  }
  // Serving: 64-160 x 32 x 64 and one request in four latency-class.
  const auto s = perfbench::make_ops(WorkloadId::ServingTiny, 3);
  std::size_t latency = 0;
  bool in_range = true;
  for (const auto& op : s) {
    latency += op.latency_class ? 1 : 0;
    in_range = in_range && op.m >= 64 && op.m <= 160 && op.n == 32 &&
               op.k == 64;
  }
  expect(in_range, "serving shapes stay in 64-160 x 32 x 64");
  expect(latency * 4 == s.size(), "one request in four is latency-class");
}

void self_time_subtracts_children() {
  perfbench::SpanRecorder rec;
  const int root = rec.begin("op", "op", 1, -1);
  const int child = rec.begin("core.plan", "core", 1, root);
  rec.end(child);
  rec.end(root);
  double op_us = -1, core_us = -1;
  for (const auto& [layer, us] : rec.self_time_us()) {
    if (layer == "op") op_us = us;
    if (layer == "core") core_us = us;
  }
  const auto& s = rec.spans();
  const double root_us = s[0].end_us - s[0].start_us;
  const double child_us = s[1].end_us - s[1].start_us;
  expect(core_us == child_us, "a leaf's self time is its duration");
  expect(op_us == root_us - child_us, "a parent's self time excludes children");
}

void result_line_shape() {
  const std::string line = perfbench::result_json(
      true, 3, 0, {{"setup_s", 0.5, "s"}, {"ops_per_s", 1e3, "1/s"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
             "\"ops_per_s\": {\"value\": 1000, \"unit\": \"1/s\"}}}",
         "result line layout");
  expect(perfbench::format_double(0.1) == "0.1", "shortest round-trip text");
  expect(perfbench::end_to_end_metrics().size() == 6 &&
             !perfbench::per_layer_metrics().empty(),
         "metric tables are populated");
}

}  // namespace

int main() {
  tail_percentile_needs_ten_samples_beyond();
  one_seed_one_op_list();
  self_time_subtracts_children();
  result_line_shape();
  if (failures == 0) std::printf("perfbench harness checks passed\n");
  return failures == 0 ? 0 : 1;
}
