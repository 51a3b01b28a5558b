// Observability types of the multi-cluster runtime: one lifecycle record
// per request plus aggregate counters. Snapshots are plain values so
// callers can diff them across phases without holding runtime locks.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/core/types.hpp"
#include "ftm/runtime/qos.hpp"

namespace ftm::runtime {

/// Lifecycle of one dispatch (a request, one shard of a split request, or
/// one retry of either — each dispatch appends its own record).
struct RequestStats {
  std::uint64_t id = 0;          ///< submission order, 1-based
  int cluster = -1;              ///< cluster that executed it
  bool plan_cache_hit = false;   ///< strategy/block selection skipped
  bool tuned_plan = false;       ///< executed a tuner-provided plan
  bool stolen = false;           ///< executed by a cluster it was not bound to
  int shards = 0;                ///< > 0 when this request was split
  int attempt = 0;               ///< 0 = first dispatch, n = nth retry
  bool fault = false;            ///< dispatch ended in a FaultError
  bool deadline_missed = false;  ///< wall or simulated deadline blown
  bool cpu_fallback = false;     ///< resolved on the host CPU
  bool failed = false;           ///< resolved its future with an exception
  double queue_wait_ms = 0;      ///< host wall-clock submit -> dispatch
  double exec_ms = 0;            ///< host wall-clock dispatch -> done
  /// Host wall-µs inside the engine call itself (GemmResult::host_wall_us):
  /// exec_ms minus plan lookup and dispatch overhead. The host execution
  /// engine's speedup shows up here. 0 for CPU-fallback dispatches.
  double host_wall_us = 0;
  std::uint64_t sim_cycles = 0;  ///< simulated cluster cycles
  core::Strategy strategy = core::Strategy::Auto;
  /// Compute dtype the dispatch ran at (ISSUE 10, docs/precision.md).
  kernelgen::DType dtype = kernelgen::DType::F32;
  // QoS / coalescing (ISSUE 7). finish_cycle - arrival_cycle is the
  // request's simulated latency; the replay benchmark computes goodput
  // from it against the deadline the caller assigned.
  Priority priority = Priority::Normal;
  std::uint64_t arrival_cycle = 0;  ///< virtual arrival (QosOptions)
  std::uint64_t finish_cycle = 0;   ///< lane clock when the dispatch ended
  bool node_dispatch = false;       ///< ran on the node tier (ISSUE 9)
  bool batched = false;             ///< dispatched as a batch member
  std::uint64_t batch_id = 0;       ///< flush order, 1-based; 0 = none
  int batch_size = 0;               ///< members in its batch at flush
  // ABFT integrity (ISSUE 8, docs/robustness.md). Counted per dispatch;
  // a recompute after an IntegrityError appends its own record.
  std::uint64_t checksum_checks = 0;  ///< row+col checksum comparisons
  std::uint64_t sdc_detected = 0;     ///< checksum mismatches observed
  std::uint64_t sdc_corrected = 0;    ///< elements repaired in place
};

/// Aggregate counters; a consistent snapshot taken under the stats lock.
struct RuntimeStats {
  std::uint64_t submitted = 0;   ///< requests accepted (shards not counted)
  std::uint64_t completed = 0;   ///< requests whose future got a value
  std::uint64_t failed = 0;      ///< requests whose future got an exception
  std::uint64_t executed = 0;    ///< dispatches, including shards/retries
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t tuned_plans = 0;  ///< dispatches that ran a tuned plan
  std::uint64_t steals = 0;      ///< requests executed off their bound cluster
  std::uint64_t splits = 0;      ///< wide requests sharded across clusters
  // Resilience counters. `faults` counts every dispatch that ended in a
  // FaultError (non-zero with an injector even when resilience is off);
  // the rest are zero unless ResilienceOptions::enabled.
  std::uint64_t faults = 0;           ///< dispatches that hit a FaultError
  std::uint64_t retries = 0;          ///< re-dispatches after a fault
  std::uint64_t fallbacks = 0;        ///< requests resolved on the host CPU
  std::uint64_t deadline_misses = 0;  ///< wall or simulated deadline blown
  std::uint64_t rerouted = 0;         ///< drained off a quarantined cluster
  // Coalescing + admission counters (ISSUE 7). `rejected` submissions are
  // not counted in `submitted`: they never entered the queue.
  std::uint64_t batches = 0;    ///< batch flushes dispatched (any size)
  std::uint64_t coalesced = 0;  ///< requests dispatched in a batch of >= 2
  std::uint64_t rejected = 0;   ///< submissions refused by admission control
  std::uint64_t batch_ddr_saved_bytes = 0;  ///< shared-operand DMA reuse
  // ABFT integrity counters (ISSUE 8). `sdc_detected` counts checksum
  // mismatches across all dispatches (corrected or not);
  // `recomputed_shards` counts dispatches re-executed because an
  // IntegrityError escalated through the resilience path.
  std::uint64_t checksum_checks = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t sdc_corrected = 0;
  std::uint64_t recomputed_shards = 0;
  /// Dispatches routed to the node tier (RuntimeOptions::nodes, ISSUE 9).
  std::uint64_t node_dispatches = 0;
  std::vector<std::uint64_t> cluster_requests;     ///< dispatches per cluster
  /// Max lane clock per cluster.
  std::vector<std::uint64_t> cluster_busy_cycles;
  // Per-cluster health (circuit breaker) state.
  std::vector<std::uint64_t> cluster_failures;     ///< faults charged to it
  std::vector<std::uint64_t> cluster_quarantines;  ///< times quarantined
  std::vector<std::uint64_t> cluster_probes;       ///< recovery probes run
  std::vector<bool> cluster_quarantined;           ///< currently quarantined
};

}  // namespace ftm::runtime
