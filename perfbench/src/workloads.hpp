// The three benchmark workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "ops.hpp"

namespace perfbench {

struct RunOptions {
  WorkloadId workload = WorkloadId::TaxonomyFunctional;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics. true: untraced and span-traced halves of
  /// the time, then one counters pass under a TraceSession; per-layer
  /// metrics, and the spans written as Chrome JSON to traces/ next to the
  /// binary.
  bool trace = false;
  /// Only build the system and warm it up (no checks, no measurement).
  bool setup_only = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Name and unit of a declared metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (trace off) / per-layer metric (trace on), in
/// output order. BENCHMARK.json declares exactly these.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Runs one workload: set-ups, measured passes, output checks. Human-
/// readable report lines go to `log`; the caller prints the result line.
RunResult run(const RunOptions& opt, std::FILE* log);

/// One set-up of the workload (engines, runtimes, warm-up, tuning) after
/// its inputs exist; returns its seconds. The fresh-process half of run().
double setup_seconds(const RunOptions& opt);

}  // namespace perfbench
