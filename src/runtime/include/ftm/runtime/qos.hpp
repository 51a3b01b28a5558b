// QoS and coalescing option types of the serving layer (ISSUE 7,
// docs/serving.md). Kept in their own header so request.hpp and
// stats.hpp can name them without pulling in the Batcher itself.
//
// Three ideas, one layer:
//
//  * Priority classes. Latency requests bypass the coalescing buffer and
//    jump to the front of their cluster's queue; Normal and Bulk requests
//    may be held briefly and dispatched as a batch. Under backpressure,
//    Bulk is shed first (it rejects at half the queue bound), Latency
//    last (it gets 1.5x the bound).
//
//  * Per-request deadlines feeding admission control. A request that the
//    makespan model predicts cannot meet its simulated-cycle deadline is
//    rejected at submit time instead of executing doomed: predicted
//    latency = (least-loaded cluster's lane frontier - arrival_cycle) +
//    an EWMA of recent same-shape-class execution cycles.
//
//  * Bounded queues. With BatchOptions::max_queue > 0, submissions beyond
//    the priority-scaled bound resolve with a typed
//    FaultError(FaultKind::Rejected) instead of growing the queue without
//    limit (try_submit() reports the RejectReason without the exception).
//
// Deadlines and arrivals are in *simulated* cycles on the runtime's lane
// clocks (virtual time), not host wall time: serving replay drives a
// virtual arrival clock (`ftm_bench runtime --replay`, examples/serving --rps)
// and the cycle domain keeps admission deterministic. arrival_cycle = 0
// means "the epoch", i.e. the last reset_clocks().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "ftm/core/types.hpp"
#include "ftm/tune/shape_class.hpp"

namespace ftm::runtime {

/// Service class of one submission (see docs/serving.md).
enum class Priority : std::uint8_t {
  Latency,  ///< never coalesced, front-of-queue, last to be shed
  Normal,   ///< coalescible, FIFO, standard queue bound
  Bulk,     ///< coalescible, FIFO, first to be shed under pressure
};

const char* to_string(Priority p);

/// Per-request quality-of-service contract passed to submit()/try_submit().
struct QosOptions {
  Priority priority = Priority::Normal;
  /// Virtual submission time on the simulated lane clocks. The request's
  /// execution starts no earlier than this cycle (charge_lanes floors at
  /// it), so an open-loop replay can model arrival processes in simulated
  /// time. 0 = the epoch (always "already arrived").
  std::uint64_t arrival_cycle = 0;
  /// Simulated-latency budget from arrival_cycle to completion; 0 = none.
  /// Feeds admission control only: a request predicted to blow the budget
  /// is rejected at submit time (RejectReason::DeadlineUnmeetable); one
  /// that is admitted but finishes late is *not* failed — the caller
  /// accounts goodput from RequestStats::{arrival,finish}_cycle.
  std::uint64_t deadline_cycles = 0;
  /// Per-request ABFT floor (docs/robustness.md): merged with the GEMM
  /// options' own integrity mode and the runtime's per-priority-class
  /// policy — the *strongest* of the three wins, so a request can demand
  /// more protection than its class but never opt out of the class floor.
  core::IntegrityOptions integrity;
};

/// Why try_submit() refused a request. None = accepted.
enum class RejectReason : std::uint8_t {
  None,
  QueueFull,           ///< queued + held depth over the priority's bound
  DeadlineUnmeetable,  ///< predicted latency exceeds deadline_cycles
  Shutdown,            ///< runtime is draining; no new work accepted
};

const char* to_string(RejectReason r);

/// Knobs of the coalescing + admission layer (all inert unless `enabled`,
/// except max_queue/deadline admission which also guard uncoalesced
/// submissions). Defaults follow docs/serving.md's tuning guide.
struct BatchOptions {
  /// Master switch for coalescing. Off = every request dispatches alone
  /// (the pre-ISSUE-7 behavior, bit- and cycle-identical).
  bool enabled = false;
  /// Size flush trigger, and the cap on the packing width W: a class
  /// reaching max_batch held requests flushes immediately.
  int max_batch = 8;
  /// Age flush trigger (host wall-clock): a class whose oldest held
  /// request is older than this flushes even if alone. This bounds the
  /// latency cost of coalescing.
  double max_delay_ms = 0.25;
  /// Pressure flush trigger: when the total held across all classes
  /// reaches this, the largest class flushes (holding work while the
  /// buffer saturates only adds latency).
  std::size_t max_held = 64;
  /// Bounded-queue admission: reject when queued + held depth reaches the
  /// priority-scaled bound (Bulk: max_queue/2, Normal: max_queue,
  /// Latency: 1.5 * max_queue). 0 = unbounded (no QueueFull rejects).
  std::size_t max_queue = 0;
};

/// Shared bookkeeping of one flushed batch. Unlike SplitGroup, members
/// keep their *own* promises: a batch is a dispatch-level grouping, never
/// a failure domain — one member's fault retries that member alone and
/// cannot poison its batch-mates.
struct BatchGroup {
  std::uint64_t id = 0;           ///< 1-based flush order
  int size = 0;                   ///< members at flush time
  int width = 0;                  ///< packing width W (lanes shared)
  tune::ShapeClass cls;           ///< the coalescing key
  const char* trigger = "";       ///< "size" | "age" | "pressure" | "flush"
  /// A/B panel bytes of members whose operand was already staged by an
  /// earlier batch-mate (accounting of the shared-operand DMA reuse).
  std::uint64_t shared_panel_bytes = 0;
  std::atomic<int> remaining{0};  ///< members not yet resolved
};

}  // namespace ftm::runtime
