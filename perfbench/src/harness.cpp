#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail_percentile(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  Tail t;
  t.samples = xs.size();
  t.pct = 50;
  for (const double p : {99.0, 90.0, 50.0}) {
    const double n = static_cast<double>(xs.size());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (xs.size() >= rank + 10) {
      t.pct = p;
      break;
    }
  }
  t.value = percentile_sorted(xs, t.pct);
  return t;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {
  spans_.reserve(1 << 16);
}

int SpanRecorder::begin(const char* name, const char* layer,
                        std::uint64_t op, int parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.op = op;
  s.parent = parent;
  s.start_us = us_between(epoch_, Clock::now());
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_us =
      us_between(epoch_, Clock::now());
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_time_us()
    const {
  // Children of one parent never overlap (the benchmark calls layers one
  // after another on one thread), so covered time is a plain sum.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_layer[s.layer] += (s.end_us - s.start_us) - child_us[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << format_double(s.start_us)
        << ",\"dur\":" << format_double(s.end_us - s.start_us)
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + format_double(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
