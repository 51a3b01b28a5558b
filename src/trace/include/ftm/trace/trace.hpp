// Cycle-level event tracing for the whole stack (ISSUE 2 tentpole).
//
// A TraceSession collects typed spans — DMA transfers with byte counts and
// routes, per-core compute tiles with FMAC-busy vs stall cycles, ping-pong
// phases, runtime request lifecycles — on *simulated* lane-clock
// timestamps, plus a named-counter registry. One session is installed
// process-wide with start(); instrumentation sites in sim/, core/ and
// runtime/ check TraceSession::current() and record into per-thread
// buffers, so the cost of an idle site is one relaxed atomic load and the
// cost of an active one is a POD push_back (no strings, no locks).
//
// Two clock domains are recorded (docs/tracing.md explains how they render
// in Perfetto):
//   * sim tracks (TrackKind::Compute/Dma/Cluster): cluster lane clocks in
//     DSP cycles, made monotonic across GEMM calls by the cluster's trace
//     epoch (Cluster::reset() folds the previous run's makespan into it);
//   * the runtime track (TrackKind::Runtime): host microseconds since
//     session start, for request queued/executing lifecycle spans.
//
// Compile-time gating: building with -DFTM_TRACE=OFF (CMake option)
// defines FTM_TRACE_ENABLED=0, which compiles every instrumentation site
// out of sim/core/runtime entirely — the hot path is byte-identical to an
// untraced build. The TraceSession class itself always exists so tools can
// link unconditionally; with tracing compiled out it simply never receives
// events. `ftm_bench trace-overhead` measures both configurations.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ftm/trace/counters.hpp"
#include "ftm/util/reporter.hpp"

#ifndef FTM_TRACE_ENABLED
#define FTM_TRACE_ENABLED 1
#endif

namespace ftm::trace {

/// Which timeline a span belongs to. Perfetto export maps (cluster, core,
/// track) to one process per cluster with one thread per core compute
/// lane and one per DMA engine, plus a host-side runtime process.
enum class TrackKind : std::uint8_t {
  Compute,  ///< a core's compute lane (kernels, stalls, tile phases)
  Dma,      ///< a core's DMA engine lane (one span per transfer)
  Cluster,  ///< cluster-level spans (whole-GEMM, reduction phases)
  Runtime,  ///< host-side request lifecycle (microsecond clock)
};

/// One recorded span (or instant, when dur == 0). POD-sized on purpose:
/// names/categories/arg names must be string literals (or otherwise
/// outlive the session) so recording never allocates.
struct Event {
  static constexpr int kMaxArgs = 3;

  const char* name = "";
  const char* cat = "";
  std::uint64_t ts = 0;   ///< cycles (sim tracks) or µs (runtime track)
  std::uint64_t dur = 0;  ///< same unit as ts; 0 = instant event
  std::int32_t cluster = -1;  ///< -1 on the runtime track
  std::int32_t core = -1;     ///< -1 for cluster-level spans
  TrackKind track = TrackKind::Cluster;
  std::uint8_t nargs = 0;
  const char* arg_name[kMaxArgs] = {};
  std::uint64_t arg_val[kMaxArgs] = {};

  Event& arg(const char* n, std::uint64_t v) {
    if (nargs < kMaxArgs) {
      arg_name[nargs] = n;
      arg_val[nargs] = v;
      ++nargs;
    }
    return *this;
  }
};

/// Collects events and counters from any number of threads. Lifecycle:
///
///   trace::TraceSession session;
///   session.start();              // becomes TraceSession::current()
///   ... run traced work ...
///   session.stop();
///   trace::write_chrome_json(session, "out.json");   // chrome.hpp
///   session.summary().print("trace summary");
///
/// Only one session may be active at a time; start() while another session
/// is active is a contract violation. The destructor stops the session if
/// it is still active.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Installs this session as the process-wide recording target.
  void start();
  /// Uninstalls it. Recorded data stays readable until destruction.
  void stop();
  /// True between start() and stop().
  bool active() const;

  /// The active session, or nullptr when tracing is off. Instrumentation
  /// sites use this as their (cheap) gate.
  static TraceSession* current();

  /// Appends one event to the calling thread's buffer.
  void record(const Event& e);

  /// Adds `delta` to the named counter in the calling thread's buffer.
  /// `name` must be a string literal (merged by pointer, then by value).
  void count(const char* name, std::uint64_t delta = 1);

  /// Microseconds since start() for `tp`, for runtime-track timestamps.
  std::uint64_t host_us(std::chrono::steady_clock::time_point tp) const;
  std::uint64_t host_now_us() const;

  /// Merged snapshot of every thread's events, in (cluster, track, core,
  /// ts) order. Safe to call after stop(); calling while threads are still
  /// recording is a data race.
  std::vector<Event> events() const;

  /// Total recorded events across all thread buffers.
  std::size_t event_count() const;

  /// Merged snapshot of all per-thread counters.
  CounterRegistry counters() const;

  /// Flat flame summary: per (track, category, name) — span count, total
  /// duration, average, and share of the traced wall time of its clock
  /// domain. The plain-text counterpart of the Perfetto view.
  Table summary() const;

 private:
  struct ThreadBuf {
    std::vector<Event> events;
    /// Counter accumulation keyed by name pointer; linear scan is faster
    /// than hashing for the ~dozen distinct counters a thread touches.
    std::vector<std::pair<const char*, std::uint64_t>> counters;
  };

  ThreadBuf& local_buf();

  mutable std::mutex mu_;  ///< guards bufs_ registration and snapshots
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::uint64_t generation_ = 0;  ///< distinguishes sessions for TLS caches
  std::chrono::steady_clock::time_point start_time_;
  bool active_ = false;
};

}  // namespace ftm::trace

// ---- Instrumentation helpers -------------------------------------------
//
// Sites inside sim/core/runtime use these so that -DFTM_TRACE=OFF removes
// them entirely. Multi-statement sites guard with FTM_TRACE_ENABLED
// directly:
//
//   #if FTM_TRACE_ENABLED
//     if (ftm::trace::TraceSession* ts = ftm::trace::TraceSession::current()) {
//       ... build and record events ...
//     }
//   #endif

#if FTM_TRACE_ENABLED
#define FTM_TRACE_COUNTER(name, delta)                                  \
  do {                                                                  \
    if (::ftm::trace::TraceSession* ts_ =                               \
            ::ftm::trace::TraceSession::current()) {                    \
      ts_->count((name), (delta));                                      \
    }                                                                   \
  } while (0)
#else
#define FTM_TRACE_COUNTER(name, delta) ((void)0)
#endif
