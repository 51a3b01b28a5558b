// Measurement helpers of the benchmark harness: percentiles, benchmark-
// side spans, metric output and process memory. Nothing here touches the
// system under test; workloads.cpp drives it and records into these.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median of an unsorted sample (0 for an empty one).
double median(std::vector<double> xs);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double pct = 0;         ///< which percentile `value` is
  double value = 0;
  std::size_t samples = 0;
};

/// The highest percentile of {99, 90, 50} that has at least ten samples
/// strictly beyond its rank, so a reported tail is never one outlier. With
/// fewer than twenty samples no percentile qualifies and the median is
/// returned (its `pct` says so).
Tail tail_percentile(std::vector<double> xs);

/// One benchmark-side span: a timed call the benchmark made into a layer.
struct Span {
  const char* name = "";   ///< e.g. "core.plan"; a string literal
  const char* layer = "";  ///< module the call enters: "core", "runtime", ...
  double start_us = 0;     ///< since the recorder's epoch
  double end_us = 0;
  int parent = -1;         ///< index of the enclosing span, -1 for an op root
  std::uint64_t op = 0;    ///< op id shared by every span of one op
};

/// In-memory span store; written out once, when the benchmark ends.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index (pass it to end()).
  int begin(const char* name, const char* layer, std::uint64_t op,
            int parent);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (span duration minus the part its child spans
  /// cover), summed over all spans; "op" roots report the time no layer
  /// span covers.
  std::vector<std::pair<std::string, double>> self_time_us() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so untraced passes run
/// the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* layer,
             std::uint64_t op, int parent = -1)
      : rec_(rec), index_(rec ? rec->begin(name, layer, op, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

/// One named metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Shortest decimal text that reads back as exactly `v`.
std::string format_double(double v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
