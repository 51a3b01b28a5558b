#include "ftm/runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <tuple>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/runtime/node_tier.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/stats.hpp"

namespace ftm::runtime {

// ---------------------------------------------------------------- queue --

RequestQueue::RequestQueue(int clusters)
    : qs_(static_cast<std::size_t>(clusters)),
      load_flops_(static_cast<std::size_t>(clusters), 0.0),
      executing_(static_cast<std::size_t>(clusters), 0),
      disabled_(static_cast<std::size_t>(clusters), 0) {
  FTM_EXPECTS(clusters >= 1);
}

void RequestQueue::push(int cluster, std::unique_ptr<Request> r,
                        bool front) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    FTM_EXPECTS(!stop_);
    FTM_EXPECTS(cluster >= 0 &&
                cluster < static_cast<int>(qs_.size()));
    load_flops_[cluster] += r->in.flops();
    if (front) {
      qs_[cluster].push_front(std::move(r));
    } else {
      qs_[cluster].push_back(std::move(r));
    }
  }
  cv_work_.notify_all();
}

bool RequestQueue::try_push(int cluster, std::unique_ptr<Request>& r) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    FTM_EXPECTS(cluster >= 0 &&
                cluster < static_cast<int>(qs_.size()));
    load_flops_[cluster] += r->in.flops();
    qs_[cluster].push_back(std::move(r));
  }
  cv_work_.notify_all();
  return true;
}

std::unique_ptr<Request> RequestQueue::take_locked(int cluster,
                                                   bool allow_steal,
                                                   bool* stolen) {
  if (!qs_[cluster].empty()) {
    auto r = std::move(qs_[cluster].front());
    qs_[cluster].pop_front();
    ++executing_[cluster];
    if (stolen) *stolen = false;
    return r;
  }
  // A quarantined cluster neither steals nor is stolen from: its leftover
  // work is re-routed by its own worker, not raced for by the others.
  if (allow_steal && steal_enabled_ && disabled_[cluster] == 0) {
    int victim = -1;
    for (int c = 0; c < static_cast<int>(qs_.size()); ++c) {
      if (c == cluster || qs_[c].empty() || disabled_[c] != 0) continue;
      // Batch members are never stolen: the batch's cycle model (lane
      // packing, shared-operand reuse) assumes co-location on one cluster.
      if (qs_[c].back()->batch != nullptr) continue;
      if (victim < 0 || load_flops_[c] > load_flops_[victim]) victim = c;
    }
    if (victim >= 0) {
      auto r = std::move(qs_[victim].back());
      qs_[victim].pop_back();
      const double f = r->in.flops();
      load_flops_[victim] = std::max(0.0, load_flops_[victim] - f);
      load_flops_[cluster] += f;
      ++executing_[cluster];
      if (stolen) *stolen = true;
      return r;
    }
  }
  return nullptr;
}

std::unique_ptr<Request> RequestQueue::pop(int cluster, bool allow_steal,
                                           bool* stolen) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto r = take_locked(cluster, allow_steal, stolen)) return r;
    if (stop_) return nullptr;
    cv_work_.wait(lock);
  }
}

RequestQueue::PopResult RequestQueue::pop_wait(
    int cluster, bool allow_steal, std::chrono::milliseconds timeout,
    std::unique_ptr<Request>* out, bool* stolen) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto r = take_locked(cluster, allow_steal, stolen)) {
      *out = std::move(r);
      return PopResult::Item;
    }
    if (stop_) return PopResult::Shutdown;
    if (cv_work_.wait_until(lock, deadline) == std::cv_status::timeout) {
      if (auto r = take_locked(cluster, allow_steal, stolen)) {
        *out = std::move(r);
        return PopResult::Item;
      }
      return stop_ ? PopResult::Shutdown : PopResult::Timeout;
    }
  }
}

void RequestQueue::finished(int cluster, double flops) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    --executing_[cluster];
    load_flops_[cluster] = std::max(0.0, load_flops_[cluster] - flops);
  }
  cv_idle_.notify_all();
}

int RequestQueue::least_loaded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int best = -1;
  for (int c = 0; c < static_cast<int>(qs_.size()); ++c) {
    if (disabled_[c] != 0) continue;
    if (best < 0 || load_flops_[c] < load_flops_[best]) best = c;
  }
  if (best >= 0) return best;
  best = 0;  // every cluster quarantined: binding falls back to load only
  for (int c = 1; c < static_cast<int>(qs_.size()); ++c) {
    if (load_flops_[c] < load_flops_[best]) best = c;
  }
  return best;
}

std::vector<int> RequestQueue::idle_clusters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> idle;
  for (int c = 0; c < static_cast<int>(qs_.size()); ++c) {
    if (disabled_[c] == 0 && qs_[c].empty() && executing_[c] == 0) {
      idle.push_back(c);
    }
  }
  return idle;
}

void RequestQueue::set_enabled(int cluster, bool enabled) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    FTM_EXPECTS(cluster >= 0 && cluster < static_cast<int>(qs_.size()));
    disabled_[cluster] = enabled ? 0 : 1;
  }
  if (enabled) cv_work_.notify_all();
}

bool RequestQueue::enabled(int cluster) const {
  const std::lock_guard<std::mutex> lock(mu_);
  FTM_EXPECTS(cluster >= 0 && cluster < static_cast<int>(qs_.size()));
  return disabled_[cluster] == 0;
}

void RequestQueue::wait_idle() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] {
    for (const auto& q : qs_)
      if (!q.empty()) return false;
    for (const int e : executing_)
      if (e != 0) return false;
    return true;
  });
}

void RequestQueue::set_stealing(bool enabled) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    steal_enabled_ = enabled;
  }
  if (enabled) cv_work_.notify_all();
}

void RequestQueue::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_idle_.notify_all();
}

bool RequestQueue::stopped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

bool RequestQueue::wait_stop_for(std::chrono::duration<double, std::milli> d)
    const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_work_.wait_for(lock, d, [&] { return stop_; });
}

std::size_t RequestQueue::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& q : qs_) n += q.size();
  return n;
}

// -------------------------------------------------------------- runtime --

namespace {

const isa::MachineConfig& first_machine(
    const std::vector<core::FtimmEngine*>& engines) {
  FTM_EXPECTS(!engines.empty() && engines.front() != nullptr);
  return engines.front()->machine();
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void validate_resilience(const ResilienceOptions& rz) {
  FTM_EXPECTS(rz.max_retries >= 0);
  FTM_EXPECTS(rz.backoff_ms >= 0 && rz.backoff_multiplier >= 1.0);
  FTM_EXPECTS(rz.deadline_ms >= 0);
  FTM_EXPECTS(rz.quarantine_after >= 0);
  FTM_EXPECTS(rz.probe_interval_ms > 0);
}

/// Batch-lifecycle bookkeeping: the last member of a batch to resolve
/// (with a value or an exception — members are independent failure
/// domains) closes the batch's trace span.
void note_batch_member_done(const Request& req) {
  if (!req.batch) return;
  if (req.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = "batch_done";
    e.cat = "batch";
    e.ts = ts->host_now_us();
    e.track = trace::TrackKind::Runtime;
    e.arg("id", req.batch->id);
    e.arg("size", static_cast<std::uint64_t>(req.batch->size));
    ts->record(e);
  }
#endif
}

#if FTM_TRACE_ENABLED
void trace_instant(const char* name, int cluster) {
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = name;
    e.cat = "health";
    e.ts = ts->host_now_us();
    e.cluster = cluster;
    e.track = trace::TrackKind::Runtime;
    ts->record(e);
  }
}
#else
void trace_instant(const char*, int) {}
#endif

}  // namespace

GemmRuntime::GemmRuntime(const RuntimeOptions& ro,
                         const isa::MachineConfig& mc)
    : ro_(ro), mc_(mc), queue_(ro.clusters) {
  FTM_EXPECTS(ro.clusters >= 1);
  validate_resilience(ro_.resilience);
  const auto kernels = std::make_shared<kernelgen::KernelCache>(mc);
  clusters_.resize(static_cast<std::size_t>(ro.clusters));
  for (int c = 0; c < ro.clusters; ++c) {
    auto& cs = clusters_[c];
    cs.owned = std::make_unique<core::FtimmEngine>(mc, kernels);
    cs.engine = cs.owned.get();
    cs.engine->cluster().set_id(c);
    cs.engine->cluster().set_fault_injector(ro_.fault_injector);
    if (ro_.tuning) cs.engine->set_plan_provider(ro_.tuning);
    cs.lanes.assign(static_cast<std::size_t>(mc.cores_per_cluster), 0);
  }
  init_host_pool();
  start_workers();
  start_flusher();
}

GemmRuntime::GemmRuntime(const std::vector<core::FtimmEngine*>& engines,
                         const RuntimeOptions& ro)
    : ro_(ro),
      mc_(first_machine(engines)),
      queue_(static_cast<int>(engines.size())) {
  ro_.clusters = static_cast<int>(engines.size());
  validate_resilience(ro_.resilience);
  clusters_.resize(engines.size());
  for (std::size_t c = 0; c < engines.size(); ++c) {
    FTM_EXPECTS(engines[c] != nullptr);
    clusters_[c].engine = engines[c];
    if (ro_.fault_injector != nullptr) {
      clusters_[c].engine->cluster().set_fault_injector(ro_.fault_injector);
    }
    if (ro_.tuning) clusters_[c].engine->set_plan_provider(ro_.tuning);
    clusters_[c].lanes.assign(static_cast<std::size_t>(mc_.cores_per_cluster),
                              0);
  }
  init_host_pool();
  start_workers();
  start_flusher();
}

void GemmRuntime::init_host_pool() {
  FTM_EXPECTS(ro_.host_threads >= 0);
  unsigned threads = static_cast<unsigned>(ro_.host_threads);
  if (threads == 0) {
    threads = std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
  }
  if (threads > 1) host_pool_ = std::make_unique<TaskPool>(threads);
}

GemmRuntime::~GemmRuntime() {
  stop_flusher();     // no age trigger can race the final drain
  flush_batches();    // held members enter the queue before shutdown
  queue_.shutdown();  // workers drain whatever is still queued, then exit
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void GemmRuntime::start_flusher() {
  if (!ro_.batching.enabled) return;
  batcher_ = std::make_unique<Batcher>(ro_.batching);
  flusher_ = std::thread([this] { flusher_loop(); });
}

void GemmRuntime::stop_flusher() {
  if (!flusher_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  flusher_.join();
}

void GemmRuntime::flusher_loop() {
  // Tick at half the age budget so a class waits at most ~1.5x
  // max_delay_ms; floor keeps a zero/near-zero budget from busy-spinning.
  const auto tick = std::chrono::duration<double, std::milli>(
      std::max(0.05, ro_.batching.max_delay_ms / 2));
  std::unique_lock<std::mutex> lock(flusher_mu_);
  for (;;) {
    // The predicate catches a stop requested before this thread first
    // waits; a bare wait_for would miss that notify and sleep a full tick
    // (days, for a size-only batcher) while the destructor joins.
    if (flusher_cv_.wait_for(lock, tick, [this] { return flusher_stop_; })) {
      return;
    }
    lock.unlock();
    for (auto& f : batcher_->take_aged(std::chrono::steady_clock::now())) {
      dispatch_batch(std::move(f));
    }
    lock.lock();
  }
}

void GemmRuntime::flush_batches() {
  if (!batcher_) return;
  for (auto& f : batcher_->take_all()) dispatch_batch(std::move(f));
}

void GemmRuntime::start_workers() {
  workers_.reserve(clusters_.size());
  for (int c = 0; c < clusters(); ++c) {
    workers_.emplace_back([this, c] { worker_loop(c); });
  }
}

void GemmRuntime::worker_loop(int cluster) {
  if (!ro_.resilience.enabled) {
    // Fail-fast mode: the original blocking loop, zero timed wakeups.
    for (;;) {
      bool stolen = false;
      auto r = queue_.pop(cluster, ro_.work_stealing, &stolen);
      if (!r) return;
      process(cluster, std::move(r), stolen);
    }
  }
  // Resilient mode: the timed pop doubles as the quarantine probe clock —
  // a quarantined worker alternates between draining its own deque
  // (diverting each request to a healthy cluster) and probing for
  // recovery; a healthy worker just loops on the timeout.
  const auto tick = std::chrono::milliseconds(std::max<long>(
      1, std::lround(std::ceil(ro_.resilience.probe_interval_ms))));
  for (;;) {
    const bool q = quarantined(cluster);
    std::unique_ptr<Request> r;
    bool stolen = false;
    const auto pr =
        queue_.pop_wait(cluster, ro_.work_stealing && !q, tick, &r, &stolen);
    if (pr == RequestQueue::PopResult::Shutdown) return;
    if (pr == RequestQueue::PopResult::Item) {
      if (q) {
        divert(cluster, std::move(r));
      } else {
        process(cluster, std::move(r), stolen);
      }
    } else if (q) {
      probe(cluster);
    }
  }
}

void GemmRuntime::validate(const core::FtimmOptions& opt) const {
  FTM_EXPECTS(opt.cores >= 1 && opt.cores <= mc_.cores_per_cluster);
  FTM_EXPECTS(opt.wide_problem_flops > 0);
  // Requests carry FP32 views; FP64 GEMMs go through core::dgemm().
  FTM_EXPECTS(opt.dtype != kernelgen::DType::F64);
}

core::IntegrityOptions GemmRuntime::effective_integrity(
    const core::FtimmOptions& opt, const QosOptions& qos) const {
  const core::IntegrityOptions& cls =
      ro_.integrity.for_priority(qos.priority);
  core::IntegrityOptions eff = opt.integrity;
  // Strongest mode wins (IntegrityMode is ordered by strength); the
  // loosest tolerance wins so a caller can widen it for wild data.
  eff.mode = std::max({eff.mode, qos.integrity.mode, cls.mode});
  eff.tolerance_scale =
      std::max({eff.tolerance_scale, qos.integrity.tolerance_scale,
                cls.tolerance_scale});
  return eff;
}

std::unique_ptr<Request> GemmRuntime::make_request(
    const core::GemmInput& in, const core::FtimmOptions& opt) {
  auto r = std::make_unique<Request>();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    r->id = ++next_id_;
  }
  r->in = in;
  r->opt = opt;
  // Attach the shared host pool unless the caller brought their own; the
  // engine's functional work then runs across pool threads (cycle results
  // are pool-size-independent, see docs/performance.md).
  if (r->opt.host_pool == nullptr) r->opt.host_pool = host_pool_.get();
  r->submit_time = std::chrono::steady_clock::now();
  return r;
}

std::future<core::GemmResult> GemmRuntime::submit(const core::GemmInput& in) {
  return submit(in, ro_.gemm);
}

std::future<core::GemmResult> GemmRuntime::submit(
    const core::GemmInput& in, const core::FtimmOptions& opt) {
  return submit(in, opt, QosOptions{});
}

std::future<core::GemmResult> GemmRuntime::submit(
    const core::GemmInput& in, const core::FtimmOptions& opt,
    const QosOptions& qos) {
  SubmitResult sr = try_submit(in, opt, qos);
  if (sr.accepted()) return std::move(*sr.future);
  // Admission refused: the caller still gets a future, resolved with the
  // typed rejection (every submission resolves — accepted or not).
  std::promise<core::GemmResult> p;
  p.set_exception(std::make_exception_ptr(FaultError(
      FaultKind::Rejected, -1, -1,
      std::string("admission rejected: ") + to_string(sr.reject))));
  return p.get_future();
}

SubmitResult GemmRuntime::try_submit(const core::GemmInput& in) {
  return try_submit(in, ro_.gemm);
}

SubmitResult GemmRuntime::try_submit(const core::GemmInput& in,
                                     const core::FtimmOptions& opt,
                                     const QosOptions& qos) {
  validate(opt);
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  // Malformed inputs are a caller bug: reject them here, synchronously,
  // so a bad submission can never fault a worker thread. A functional
  // submission must bind all three views, consistently with (m, n, k).
  const bool any_view = in.a.data() != nullptr || in.b.data() != nullptr ||
                        in.c.data() != nullptr;
  if (any_view) {
    FTM_EXPECTS(in.a.data() != nullptr && in.b.data() != nullptr &&
                in.c.data() != nullptr);
    FTM_EXPECTS(in.a.rows() == in.m && in.a.cols() == in.k);
    FTM_EXPECTS(in.b.rows() == in.k && in.b.cols() == in.n);
    FTM_EXPECTS(in.c.rows() == in.m && in.c.cols() == in.n);
  }
  const RejectReason why = admit(in, opt, qos);
  if (why != RejectReason::None) {
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++rejected_;
    }
    FTM_TRACE_COUNTER("runtime.rejected", 1);
    SubmitResult sr;
    sr.reject = why;
    return sr;
  }
  SubmitResult sr;
  // Node-tier intercept (ISSUE 9): problems at node scale bypass both
  // wide-splitting and batching — the tier owns sharding. The request
  // still flows through a worker queue so ordering, stats, resilience
  // (retry -> CPU fallback) and future semantics are unchanged.
  if (ro_.nodes != nullptr && in.flops() >= ro_.node_problem_flops) {
    auto r = make_request(in, opt);
    r->priority = qos.priority;
    r->arrival_cycle = qos.arrival_cycle;
    r->opt.integrity = effective_integrity(opt, qos);
    r->cls = tune::ShapeClass::of(in.m, in.n, in.k, opt.cores, opt.dtype);
    r->node_tier = true;
    sr.future = r->promise.get_future();
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++submitted_;
    }
    FTM_TRACE_COUNTER("runtime.submitted", 1);
    r->bound_cluster = queue_.least_loaded();
    const int target = r->bound_cluster;
    queue_.push(target, std::move(r), qos.priority == Priority::Latency);
    return sr;
  }
  if (ro_.split_wide && clusters() > 1 &&
      in.flops() >= opt.wide_problem_flops &&
      in.m >= 2 * ro_.split_min_rows) {
    std::vector<int> idle = queue_.idle_clusters();
    const std::size_t max_shards =
        ro_.split_min_rows > 0 ? in.m / ro_.split_min_rows : in.m;
    if (idle.size() > max_shards) idle.resize(max_shards);
    if (idle.size() >= 2) {
      sr.future = submit_split(in, opt, qos, idle);
      return sr;
    }
  }
  auto r = make_request(in, opt);
  r->priority = qos.priority;
  r->arrival_cycle = qos.arrival_cycle;
  // ABFT policy is resolved once, here: every dispatch of this request
  // (retries, steals, CPU fallback aside) runs the same integrity mode.
  r->opt.integrity = effective_integrity(opt, qos);
  r->cls = tune::ShapeClass::of(in.m, in.n, in.k, opt.cores, opt.dtype);
  sr.future = r->promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++submitted_;
  }
  FTM_TRACE_COUNTER("runtime.submitted", 1);
  // Only Normal/Bulk sub-wide requests coalesce; Latency requests bypass
  // the buffer entirely and jump their cluster's FIFO.
  if (batcher_ != nullptr && qos.priority != Priority::Latency &&
      in.flops() < opt.wide_problem_flops) {
    if (auto flush = batcher_->add(std::move(r))) {
      dispatch_batch(std::move(*flush));
    }
    return sr;
  }
  r->bound_cluster = queue_.least_loaded();
  const int target = r->bound_cluster;
  queue_.push(target, std::move(r), qos.priority == Priority::Latency);
  return sr;
}

RejectReason GemmRuntime::admit(const core::GemmInput& in,
                                const core::FtimmOptions& opt,
                                const QosOptions& qos) {
  if (queue_.stopped()) return RejectReason::Shutdown;
  const BatchOptions& bo = ro_.batching;
  if (bo.max_queue > 0) {
    const std::size_t depth =
        queue_.pending() + (batcher_ ? batcher_->held() : 0);
    std::size_t bound = bo.max_queue;
    if (qos.priority == Priority::Bulk) {
      bound = std::max<std::size_t>(1, bo.max_queue / 2);
    } else if (qos.priority == Priority::Latency) {
      bound = bo.max_queue + bo.max_queue / 2;
    }
    if (depth >= bound) return RejectReason::QueueFull;
  }
  if (qos.deadline_cycles > 0) {
    const tune::ShapeClass cls =
        tune::ShapeClass::of(in.m, in.n, in.k, opt.cores, opt.dtype);
    if (predict_latency_cycles(qos, cls) > qos.deadline_cycles) {
      return RejectReason::DeadlineUnmeetable;
    }
  }
  return RejectReason::None;
}

std::uint64_t GemmRuntime::predict_latency_cycles(
    const QosOptions& qos, const tune::ShapeClass& cls) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  // Backlog estimate: the least-loaded enabled cluster's lane frontier.
  // An arrival after the frontier waits for nothing; before it, the
  // request queues behind (frontier - arrival) cycles of committed work.
  std::uint64_t frontier = 0;
  bool first = true;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (clusters_[c].health.quarantined) continue;
    std::uint64_t mk = 0;
    for (const std::uint64_t t : clusters_[c].lanes) mk = std::max(mk, t);
    if (first || mk < frontier) frontier = mk;
    first = false;
  }
  const std::uint64_t backlog =
      frontier > qos.arrival_cycle ? frontier - qos.arrival_cycle : 0;
  // Execution estimate: EWMA of this shape class's recent successful
  // dispatches. An unseen class predicts backlog only (optimistic on
  // purpose — admission should not shed load it knows nothing about).
  std::uint64_t exec = 0;
  if (const auto it = class_cycles_.find(cls); it != class_cycles_.end()) {
    exec = static_cast<std::uint64_t>(it->second);
  }
  return backlog + exec;
}

std::future<core::GemmResult> GemmRuntime::submit_split(
    const core::GemmInput& in, const core::FtimmOptions& opt,
    const QosOptions& qos, const std::vector<int>& targets) {
  const int P = static_cast<int>(targets.size());
  auto group = std::make_shared<SplitGroup>();
  group->remaining = P;
  group->shards = P;
  group->flops = in.flops();
  auto fut = group->promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++submitted_;
    ++splits_;
  }
  FTM_TRACE_COUNTER("runtime.submitted", 1);
  FTM_TRACE_COUNTER("runtime.splits", 1);
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = "sharded";
    e.cat = "request";
    e.ts = ts->host_now_us();
    e.track = trace::TrackKind::Runtime;
    e.arg("shards", static_cast<std::uint64_t>(P));
    e.arg("m", in.m);
    e.arg("n", in.n);
    ts->record(e);
  }
#endif
  const bool sliced = in.a.data() != nullptr;
  const std::size_t base = in.m / static_cast<std::size_t>(P);
  const std::size_t rem = in.m % static_cast<std::size_t>(P);
  std::size_t r0 = 0;
  for (int p = 0; p < P; ++p) {
    const std::size_t rows = base + (static_cast<std::size_t>(p) < rem);
    core::GemmInput shard;
    shard.m = rows;
    shard.n = in.n;
    shard.k = in.k;
    if (sliced) {
      shard.a = in.a.block(r0, 0, rows, in.k);
      shard.b = in.b;
      shard.c = in.c.block(r0, 0, rows, in.n);
    }
    auto req = make_request(shard, opt);
    req->group = group;
    req->priority = qos.priority;
    req->arrival_cycle = qos.arrival_cycle;
    req->opt.integrity = effective_integrity(opt, qos);
    req->cls = tune::ShapeClass::of(shard.m, shard.n, shard.k, opt.cores,
                                    opt.dtype);
    const int target = targets[static_cast<std::size_t>(p)];
    req->bound_cluster = target;
    queue_.push(target, std::move(req));
    r0 += rows;
  }
  return fut;
}

void GemmRuntime::dispatch_batch(Batcher::Flush flush) {
  const int n = static_cast<int>(flush.members.size());
  if (n == 0) return;
  auto group = std::make_shared<BatchGroup>();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    group->id = ++batches_;
    if (n >= 2) coalesced_ += static_cast<std::uint64_t>(n);
  }
  group->size = n;
  group->cls = flush.cls;
  group->trigger = flush.trigger;
  group->remaining.store(n, std::memory_order_relaxed);
  // Packing width: members run one core each across W shared lanes of one
  // cluster with DDR bandwidth shared W ways — the sgemm_batched model
  // run_all() uses for its small phase.
  const int W = std::min(
      n, std::min(ro_.batching.max_batch, mc_.cores_per_cluster));
  group->width = n >= 2 ? W : 0;
  FTM_TRACE_COUNTER("runtime.batched", 1);
  const int target = queue_.least_loaded();
  ClusterState& cs = clusters_[static_cast<std::size_t>(target)];

  // One plan lookup per distinct (post-repack) shape in the batch; every
  // same-shape member shares the GemmPlan by pointer.
  std::map<PlanKey, std::shared_ptr<const core::GemmPlan>> planned;
  // Shared-operand detection: a member whose A (or B) view is the same
  // buffer and shape as an earlier batch-mate's reuses the staged panel;
  // its dispatch is charged the panel's DMA bytes once, not twice.
  using Panel = std::tuple<const float*, std::size_t, std::size_t>;
  std::set<Panel> staged;  // (base pointer, rows, cols)
  for (auto& m : flush.members) {
    m->batch = group;
    m->bound_cluster = target;
    if (n >= 2) {
      // Repack: one core per member, W-way lane/bandwidth sharing. A
      // singleton flush dispatches exactly as it was submitted.
      m->opt.cores = 1;
      m->opt.bandwidth_share = W;
      m->lane_limit = W;
      const PlanKey key = PlanKey::of(m->in.m, m->in.n, m->in.k, m->opt);
      auto it = planned.find(key);
      if (it == planned.end()) {
        it = planned
                 .emplace(key, std::make_shared<const core::GemmPlan>(
                                   cs.engine->plan(m->in.m, m->in.n,
                                                   m->in.k, m->opt)))
                 .first;
      }
      m->preplanned = it->second;
      std::uint64_t reuse = 0;
      if (m->in.a.data() != nullptr &&
          !staged.insert({m->in.a.data(), m->in.m, m->in.k}).second) {
        reuse += static_cast<std::uint64_t>(m->in.m) * m->in.k * 4;
      }
      if (m->in.b.data() != nullptr &&
          !staged.insert({m->in.b.data(), m->in.k, m->in.n}).second) {
        reuse += static_cast<std::uint64_t>(m->in.k) * m->in.n * 4;
      }
      m->reuse_panel_bytes = reuse;
      group->shared_panel_bytes += reuse;
    }
  }
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = "batch";
    e.cat = "batch";
    e.ts = ts->host_now_us();
    e.cluster = target;
    e.track = trace::TrackKind::Runtime;
    e.arg("id", group->id);
    e.arg("size", static_cast<std::uint64_t>(n));
    e.arg("shared_bytes", group->shared_panel_bytes);
    ts->record(e);
  }
#endif
  for (auto& m : flush.members) {
    queue_.push(target, std::move(m));
  }
}

core::GemmResult GemmRuntime::run_on_cluster(int cluster, Request& req,
                                             RequestStats& rs) {
  if (req.node_tier) {
    // Node-tier dispatch (ISSUE 9): the whole problem runs on the grid
    // of modeled processors; no plan-cache probe here — each node's own
    // runtime keeps its own cache.
    rs.node_dispatch = true;
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++node_dispatches_;
    }
    FTM_TRACE_COUNTER("runtime.node_dispatches", 1);
    return ro_.nodes->run(req.in, req.opt);
  }
  ClusterState& cs = clusters_[static_cast<std::size_t>(cluster)];
  core::GemmPlan plan;
  if (req.preplanned != nullptr) {
    // Batched dispatch: the plan was computed once at flush time and is
    // shared by every same-shape batch-mate — no per-member cache probe.
    plan = *req.preplanned;
    rs.plan_cache_hit = true;
  } else if (ro_.plan_cache) {
    const PlanKey key = PlanKey::of(req.in.m, req.in.n, req.in.k, req.opt);
    const auto make_plan = [&] {
      return cs.engine->plan(req.in.m, req.in.n, req.in.k, req.opt);
    };
    plan = plans_.get_or_plan(key, make_plan, &rs.plan_cache_hit);
  } else {
    plan = cs.engine->plan(req.in.m, req.in.n, req.in.k, req.opt);
  }
  if (plan.tuned) {
    rs.tuned_plan = true;
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++tuned_plans_;
    }
    FTM_TRACE_COUNTER("runtime.tuned_plans", 1);
  }
  return cs.engine->sgemm_planned(req.in, plan, req.opt);
}

void GemmRuntime::process(int cluster, std::unique_ptr<Request> req,
                          bool stolen) {
  const ResilienceOptions& res = ro_.resilience;
  const double flops = req->in.flops();
  const auto t_start = std::chrono::steady_clock::now();
  RequestStats rs;
  rs.id = req->id;
  rs.cluster = cluster;
  rs.stolen = stolen;
  rs.shards = req->group ? req->group->shards : 0;
  rs.attempt = req->attempts;
  rs.queue_wait_ms = ms_between(req->submit_time, t_start);
  rs.priority = req->priority;
  rs.arrival_cycle = req->arrival_cycle;
  if (req->batch) {
    rs.batched = true;
    rs.batch_id = req->batch->id;
    rs.batch_size = req->batch->size;
  }

  // Wall-clock deadline: checked before (re-)execution, never retried —
  // the caller's time budget is gone no matter which cluster runs it.
  // Not charged to the cluster's health either: it is not a cluster fault.
  if (res.enabled && wall_deadline_passed(*req)) {
    rs.deadline_missed = true;
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++deadline_misses_;
    }
    FTM_TRACE_COUNTER("runtime.deadline_misses", 1);
    fail(std::move(req),
         std::make_exception_ptr(FaultError(
             FaultKind::DeadlineExceeded, cluster, -1,
             "wall-clock deadline exceeded before dispatch")),
         rs);
    queue_.finished(cluster, flops);
    return;
  }
  if (res.enabled && req->attempts == 0) snapshot_c(*req);
  ++req->attempts;

  ClusterState& cs = clusters_[static_cast<std::size_t>(cluster)];
  core::GemmResult result;
  bool ok = false;
  bool is_fault = false;
  std::exception_ptr err;
  try {
    result = run_on_cluster(cluster, *req, rs);
    // Simulated-cycle deadline: known only after the (simulated) run. It
    // is a retryable fault — a stalled cluster blows it while a healthy
    // one may not — and it feeds the circuit breaker, which is exactly
    // how a stalled-but-alive cluster ends up quarantined.
    if (res.enabled && res.deadline_cycles > 0 &&
        result.cycles > res.deadline_cycles) {
      rs.deadline_missed = true;
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++deadline_misses_;
      }
      FTM_TRACE_COUNTER("runtime.deadline_misses", 1);
      throw FaultError(FaultKind::DeadlineExceeded, cluster, -1,
                       "simulated-cycle deadline exceeded");
    }
    ok = true;
  } catch (const IntegrityError& e) {
    // Unrepairable checksum damage: a transient data fault. Record the
    // detection here (the dispatch produced no result to copy it from);
    // handle_fault counts the recompute when it re-dispatches.
    rs.sdc_detected = static_cast<std::uint64_t>(e.detected());
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      sdc_detected_ += rs.sdc_detected;
    }
    err = std::current_exception();
    is_fault = true;
  } catch (const FaultError&) {
    err = std::current_exception();
    is_fault = true;
  } catch (...) {
    err = std::current_exception();
  }
  rs.exec_ms = ms_between(t_start, std::chrono::steady_clock::now());
  rs.fault = is_fault;
  if (ok) {
    rs.sim_cycles = result.cycles;
    rs.strategy = result.strategy;
    rs.dtype = result.dtype;
    rs.host_wall_us = result.host_wall_us;
    rs.checksum_checks = result.checksum_checks;
    rs.sdc_detected = result.sdc_detected;
    rs.sdc_corrected = result.sdc_corrected;
    if (result.checksum_checks > 0 || result.sdc_detected > 0) {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      checksum_checks_ += result.checksum_checks;
      sdc_detected_ += result.sdc_detected;
      sdc_corrected_ += result.sdc_corrected;
    }
    if (req->reuse_panel_bytes > 0) {
      // Shared-operand reuse: a batch-mate already staged this A/B panel
      // on the cluster, so this dispatch is not charged its DMA bytes.
      const std::uint64_t save =
          std::min(req->reuse_panel_bytes, result.ddr_bytes);
      result.ddr_bytes -= save;
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        batch_ddr_saved_ += save;
      }
      FTM_TRACE_COUNTER("runtime.batch_ddr_saved", save);
    }
  }
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    const std::uint64_t t0 = ts->host_us(req->submit_time);
    const std::uint64_t t1 = ts->host_us(t_start);
    trace::Event q;
    q.name = "queued";
    q.cat = "request";
    q.ts = t0;
    q.dur = t1 > t0 ? t1 - t0 : 0;
    q.cluster = cluster;
    q.track = trace::TrackKind::Runtime;
    q.arg("id", req->id);
    ts->record(q);
    trace::Event x;
    x.name = "execute";
    x.cat = "request";
    x.ts = t1;
    x.dur = ts->host_now_us() - t1;
    x.cluster = cluster;
    x.track = trace::TrackKind::Runtime;
    x.arg("id", req->id);
    x.arg("plan_hit", rs.plan_cache_hit ? 1 : 0);
    x.arg("sim_cycles", rs.sim_cycles);
    x.arg("attempt", static_cast<std::uint64_t>(rs.attempt));
    x.arg("fault", is_fault ? 1 : 0);
    ts->record(x);
    ts->count(rs.plan_cache_hit ? "runtime.plan_hits"
                                : "runtime.plan_misses");
    if (stolen) ts->count("runtime.steals");
  }
#endif
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++executed_;
    ++cs.requests;
    if (stolen) ++steals_;
    if (ok) {
      if (req->node_tier) {
        // Node-tier cycles live in the node layer's clock domain: do not
        // charge host-cluster lanes, and keep them out of the per-class
        // EWMA that predicts *cluster* latency for admission.
        rs.finish_cycle = req->arrival_cycle + result.cycles;
      } else {
        rs.finish_cycle = charge_lanes(cs, *req, result.cycles);
        // Per-shape-class EWMA of successful execution cycles; the
        // deadline admission's execution estimate
        // (predict_latency_cycles).
        double& e = class_cycles_[req->cls];
        e = e == 0 ? static_cast<double>(result.cycles)
                   : 0.7 * e + 0.3 * static_cast<double>(result.cycles);
      }
    }
  }
  if (ok) {
    if (res.enabled) record_success(cluster);
    // Log before deliver: a caller woken by future::get() may read
    // request_log() immediately and must see this request's entry.
    log_request(rs);
    deliver(*req, result);
    queue_.finished(cluster, flops);
    return;
  }
  if (is_fault) {
    record_failure(cluster);
    if (res.enabled) {
      handle_fault(cluster, std::move(req), err, rs);
    } else {
      fail(std::move(req), err, rs);
    }
  } else {
    // Deterministic error (e.g. a ContractViolation from deep inside the
    // engine): retrying cannot help and must not mask a bug.
    fail(std::move(req), err, rs);
  }
  queue_.finished(cluster, flops);
}

void GemmRuntime::handle_fault(int cluster, std::unique_ptr<Request> req,
                               std::exception_ptr err, RequestStats& rs) {
  const ResilienceOptions& res = ro_.resilience;
  req->tried.push_back(cluster);
  if (req->attempts <= res.max_retries) {
    if (wall_deadline_passed(*req)) {
      rs.deadline_missed = true;
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++deadline_misses_;
      }
      FTM_TRACE_COUNTER("runtime.deadline_misses", 1);
      fail(std::move(req),
           std::make_exception_ptr(FaultError(
               FaultKind::DeadlineExceeded, cluster, -1,
               "wall-clock deadline exceeded during retries")),
           rs);
      return;
    }
    const int target = pick_retry_target(*req);
    if (target >= 0) {
      const double delay_ms =
          res.backoff_ms *
          std::pow(res.backoff_multiplier, req->attempts - 1);
      // Interruptible: a shutdown cuts the backoff short, and the
      // try_push below then fails over to the terminal paths.
      if (delay_ms > 0) {
        queue_.wait_stop_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
      restore_c(*req);
      // A retry lands alone (usually on a different cluster): the shared
      // panel its batch-mate staged is not there, so the DMA discount no
      // longer applies. The shared plan stays valid — plans are
      // cluster-independent.
      req->reuse_panel_bytes = 0;
      req->bound_cluster = target;
      // A faulted dispatch with detections is an IntegrityError
      // escalation: the re-dispatch recomputes the damaged block.
      const bool recompute = rs.fault && rs.sdc_detected > 0;
      // Count before the push publishes the retry: another worker can
      // finish it and its caller read stats() before this thread resumes.
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++retries_;
        if (recompute) ++recomputed_shards_;
      }
      if (queue_.try_push(target, req)) {
        FTM_TRACE_COUNTER("runtime.retries", 1);
        if (recompute) FTM_TRACE_COUNTER("integrity.recomputed", 1);
        log_request(rs);  // the faulted attempt; the retry logs its own row
        return;
      }
      const std::lock_guard<std::mutex> lock(stats_mu_);
      --retries_;
      if (recompute) --recomputed_shards_;
    }
  }
  // Retries exhausted, no healthy cluster left, or the queue shut down.
  if (res.cpu_fallback) {
    if (rs.fault && rs.sdc_detected > 0) {
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++recomputed_shards_;
      }
      FTM_TRACE_COUNTER("integrity.recomputed", 1);
    }
    run_cpu_fallback(std::move(req), rs);
    return;
  }
  fail(std::move(req), err, rs);
}

void GemmRuntime::run_cpu_fallback(std::unique_ptr<Request> req,
                                   RequestStats& rs) {
  rs.cpu_fallback = true;
  restore_c(*req);
  core::GemmResult r;
  r.cpu_fallback = true;
  // No simulated cycles: the host CPU is outside the DSP cycle model, so
  // the result carries the correctness payload (C) and the flag only.
  try {
    if (req->opt.functional && req->in.c.data() != nullptr) {
      cpu::cpu_gemm(req->in.a, req->in.b, req->in.c);
    }
  } catch (...) {
    fail(std::move(req), std::current_exception(), rs);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++fallbacks_;
  }
  FTM_TRACE_COUNTER("runtime.fallbacks", 1);
  trace_instant("cpu_fallback", rs.cluster);
  log_request(rs);
  deliver(*req, r);
}

void GemmRuntime::fail(std::unique_ptr<Request> req, std::exception_ptr err,
                       RequestStats& rs) {
  rs.failed = true;
  restore_c(*req);  // a failed request leaves C exactly as submitted
  log_request(rs);  // before the promise wakes the waiter
  note_batch_member_done(*req);
  if (!req->group) {
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++failed_;
    }
    req->promise.set_exception(err);
    return;
  }
  SplitGroup& g = *req->group;
  const std::lock_guard<std::mutex> lock(g.mu);
  --g.remaining;
  if (!g.failed) {
    g.failed = true;
    {
      const std::lock_guard<std::mutex> slock(stats_mu_);
      ++failed_;
    }
    g.promise.set_exception(err);
  }
}

void GemmRuntime::divert(int cluster, std::unique_ptr<Request> req) {
  const double flops = req->in.flops();
  const int target = queue_.least_loaded();
  if (target != cluster && queue_.enabled(target)) {
    req->bound_cluster = target;
    if (queue_.try_push(target, req)) {
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++rerouted_;
      }
      FTM_TRACE_COUNTER("runtime.rerouted", 1);
      queue_.finished(cluster, flops);
      return;
    }
  }
  // No healthy cluster, or shutdown drain: run it here anyway — quarantine
  // is routing policy, and the fault paths still protect the result.
  process(cluster, std::move(req), false);
}

void GemmRuntime::probe(int cluster) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++clusters_[static_cast<std::size_t>(cluster)].health.probes;
  }
  FTM_TRACE_COUNTER("runtime.probes", 1);
  const ResilienceOptions& res = ro_.resilience;
  bool alive = false;
  try {
    // Timing-only canary GEMM on one core: exercises the dead-cluster
    // check, the DMA fault path, and (against deadline_cycles) the stall
    // scaling, without touching caller data or the lane clocks.
    core::FtimmOptions opt = ro_.gemm;
    opt.functional = false;
    opt.cores = 1;
    const core::GemmInput in = core::GemmInput::shape_only(64, 64, 64);
    ClusterState& cs = clusters_[static_cast<std::size_t>(cluster)];
    const core::GemmPlan plan = cs.engine->plan(in.m, in.n, in.k, opt);
    const core::GemmResult r = cs.engine->sgemm_planned(in, plan, opt);
    alive = res.deadline_cycles == 0 || r.cycles <= res.deadline_cycles;
  } catch (...) {
    alive = false;
  }
  if (!alive) return;
  std::chrono::steady_clock::time_point since{};
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    Health& h = clusters_[static_cast<std::size_t>(cluster)].health;
    if (!h.quarantined) return;
    h.quarantined = false;
    h.consecutive = 0;
    since = h.since;
  }
  queue_.set_enabled(cluster, true);
  FTM_TRACE_COUNTER("runtime.recoveries", 1);
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = "quarantined";
    e.cat = "health";
    e.ts = ts->host_us(since);
    const std::uint64_t now = ts->host_now_us();
    e.dur = now > e.ts ? now - e.ts : 0;
    e.cluster = cluster;
    e.track = trace::TrackKind::Runtime;
    ts->record(e);
  }
#endif
}

void GemmRuntime::record_success(int cluster) {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  clusters_[static_cast<std::size_t>(cluster)].health.consecutive = 0;
}

void GemmRuntime::record_failure(int cluster) {
  const ResilienceOptions& res = ro_.resilience;
  bool trip = false;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++faults_;
    Health& h = clusters_[static_cast<std::size_t>(cluster)].health;
    ++h.failures;
    ++h.consecutive;
    if (res.enabled && res.quarantine_after > 0 && !h.quarantined &&
        h.consecutive >= res.quarantine_after) {
      h.quarantined = true;
      ++h.quarantines;
      h.since = std::chrono::steady_clock::now();
      trip = true;
    }
  }
  FTM_TRACE_COUNTER("runtime.faults", 1);
  if (trip) {
    queue_.set_enabled(cluster, false);
    FTM_TRACE_COUNTER("runtime.quarantines", 1);
    trace_instant("quarantine", cluster);
  }
}

int GemmRuntime::pick_retry_target(const Request& req) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  const int last = req.tried.empty() ? -1 : req.tried.back();
  const auto tried = [&](int c) {
    return std::find(req.tried.begin(), req.tried.end(), c) !=
           req.tried.end();
  };
  // Prefer a healthy cluster this request has not faulted on; then any
  // healthy cluster other than the one that just failed; the just-failed
  // cluster itself only when it is the sole healthy one left.
  int fallback = -1;
  for (int c = 0; c < clusters(); ++c) {
    if (clusters_[static_cast<std::size_t>(c)].health.quarantined) continue;
    if (!tried(c)) return c;
    if (fallback < 0 && c != last) fallback = c;
  }
  if (fallback >= 0) return fallback;
  if (last >= 0 &&
      !clusters_[static_cast<std::size_t>(last)].health.quarantined) {
    return last;
  }
  return -1;
}

bool GemmRuntime::wall_deadline_passed(const Request& req) const {
  const double budget = ro_.resilience.deadline_ms;
  if (budget <= 0) return false;
  return ms_between(req.submit_time, std::chrono::steady_clock::now()) >
         budget;
}

void GemmRuntime::snapshot_c(Request& req) const {
  const MatrixView& c = req.in.c;
  if (!req.opt.functional || c.data() == nullptr) return;
  req.c_snapshot.resize(c.rows() * c.cols());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    std::memcpy(req.c_snapshot.data() + r * c.cols(), c.row(r),
                c.cols() * sizeof(float));
  }
}

void GemmRuntime::restore_c(Request& req) const {
  const MatrixView& c = req.in.c;
  if (req.c_snapshot.empty() || c.data() == nullptr) return;
  for (std::size_t r = 0; r < c.rows(); ++r) {
    std::memcpy(c.row(r), req.c_snapshot.data() + r * c.cols(),
                c.cols() * sizeof(float));
  }
}

void GemmRuntime::log_request(const RequestStats& rs) {
  if (!ro_.keep_request_log) return;
  const std::lock_guard<std::mutex> lock(stats_mu_);
  log_.push_back(rs);
}

std::uint64_t GemmRuntime::charge_lanes(ClusterState& cs,
                                        const Request& req,
                                        std::uint64_t cycles) {
  const int total = static_cast<int>(cs.lanes.size());
  const int limit = std::clamp(
      req.lane_limit > 0 ? req.lane_limit : req.opt.cores, 1, total);
  const int width = std::min(req.opt.cores, limit);
  std::vector<int> idx(static_cast<std::size_t>(limit));
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return cs.lanes[static_cast<std::size_t>(a)] <
           cs.lanes[static_cast<std::size_t>(b)];
  });
  // Floored at the virtual arrival: work cannot start before it exists.
  // arrival_cycle == 0 (the default) keeps the pre-QoS charging exactly.
  std::uint64_t start = req.arrival_cycle;
  for (int i = 0; i < width; ++i) {
    start = std::max(start, cs.lanes[static_cast<std::size_t>(idx[i])]);
  }
  for (int i = 0; i < width; ++i) {
    cs.lanes[static_cast<std::size_t>(idx[i])] = start + cycles;
  }
  return start + cycles;
}

void GemmRuntime::deliver(Request& req, const core::GemmResult& r) {
  note_batch_member_done(req);
  // completed_ is bumped before the promise is fulfilled so a caller that
  // wakes from future::get() observes a consistent stats() snapshot.
  if (!req.group) {
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++completed_;
    }
    req.promise.set_value(r);
    return;
  }
  SplitGroup& g = *req.group;
  const std::lock_guard<std::mutex> lock(g.mu);
  core::GemmResult& m = g.merged;
  m.cycles = std::max(m.cycles, r.cycles);  // shards run concurrently
  m.ddr_bytes += r.ddr_bytes;
  m.kernel_calls += r.kernel_calls;
  m.strategy = r.strategy;
  m.cores = r.cores;
  m.cpu_fallback = m.cpu_fallback || r.cpu_fallback;
  if (--g.remaining == 0 && !g.failed) {
#if FTM_TRACE_ENABLED
    if (trace::TraceSession* ts = trace::TraceSession::current()) {
      trace::Event e;
      e.name = "merged";
      e.cat = "request";
      e.ts = ts->host_now_us();
      e.track = trace::TrackKind::Runtime;
      e.arg("shards", static_cast<std::uint64_t>(g.shards));
      e.arg("cycles", m.cycles);
      ts->record(e);
    }
#endif
    m.seconds = static_cast<double>(m.cycles) / (mc_.freq_ghz * 1e9);
    m.gflops = m.seconds > 0 ? g.flops / m.seconds / 1e9 : 0.0;
    const double peak = mc_.core_peak_gflops() *
                        static_cast<double>(m.cores) *
                        static_cast<double>(g.shards);
    m.efficiency = peak > 0 ? m.gflops / peak : 0.0;
    {
      const std::lock_guard<std::mutex> slock(stats_mu_);
      ++completed_;
    }
    g.promise.set_value(m);
  }
}

BatchResult GemmRuntime::run_all(std::span<const core::GemmInput> problems) {
  return run_all(problems, ro_.gemm);
}

BatchResult GemmRuntime::run_all(std::span<const core::GemmInput> problems,
                                 const core::FtimmOptions& opt) {
  validate(opt);
  const int NC = clusters();
  BatchResult br;
  br.problems = problems.size();
  br.cluster_cycles.assign(static_cast<std::size_t>(NC), 0);
  if (problems.empty()) return br;
  wait_idle();
  reset_clocks();

  // The batch schedule below balances simulated lane clocks per cluster;
  // letting host-time-idle workers steal would break it (simulation speed
  // has nothing to do with simulated load). Suspend stealing until every
  // future has resolved.
  struct StealGuard {
    RequestQueue& q;
    ~StealGuard() { q.set_stealing(true); }
  } guard{queue_};
  queue_.set_stealing(false);

  std::vector<std::size_t> wide, small;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    br.flops += problems[i].flops();
    if (problems[i].flops() >= opt.wide_problem_flops && opt.cores > 1) {
      wide.push_back(i);
    } else {
      small.push_back(i);
    }
  }
  br.wide_problems = wide.size();
  br.small_problems = small.size();

  std::vector<std::future<core::GemmResult>> futs;
  futs.reserve(problems.size());
  auto enqueue = [&](const core::GemmInput& in,
                     const core::FtimmOptions& o, int c, int lane_limit) {
    auto r = make_request(in, o);
    // run_all has no per-request QoS; the Normal-class integrity floor
    // still applies (batch work is not exempt from the ABFT policy).
    r->opt.integrity = effective_integrity(o, QosOptions{});
    r->lane_limit = lane_limit;
    r->bound_cluster = c;
    futs.push_back(r->promise.get_future());
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++submitted_;
    }
    queue_.push(c, std::move(r));
  };

  // Wide problems occupy a whole cluster each, serially; greedy placement
  // onto the cluster with the least wide flops so far.
  std::vector<double> assigned(static_cast<std::size_t>(NC), 0.0);
  for (const std::size_t i : wide) {
    int c = 0;
    for (int j = 1; j < NC; ++j) {
      if (assigned[j] < assigned[c]) c = j;
    }
    assigned[c] += problems[i].flops();
    enqueue(problems[i], opt, c, opt.cores);
  }

  // Small problems run one core each, round-robin over clusters; each
  // cluster packs its share onto W lanes with DDR bandwidth shared W ways
  // (W = min(cores, smalls on that cluster) — the sgemm_batched model).
  std::vector<std::size_t> small_count(static_cast<std::size_t>(NC), 0);
  for (std::size_t idx = 0; idx < small.size(); ++idx) {
    ++small_count[idx % static_cast<std::size_t>(NC)];
  }
  for (std::size_t idx = 0; idx < small.size(); ++idx) {
    const int c = static_cast<int>(idx % static_cast<std::size_t>(NC));
    const int W = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(opt.cores),
        std::max<std::size_t>(1, small_count[static_cast<std::size_t>(c)])));
    core::FtimmOptions sub = opt;
    sub.cores = 1;
    sub.bandwidth_share = W;
    enqueue(problems[small[idx]], sub, c, W);
  }

  // Resolve every future before rethrowing, so a failure never leaves
  // sibling requests racing against this frame's teardown.
  std::exception_ptr first_err;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_err) first_err = std::current_exception();
    }
  }
  if (first_err) std::rethrow_exception(first_err);

  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    for (int c = 0; c < NC; ++c) {
      std::uint64_t mk = 0;
      for (const std::uint64_t t : clusters_[c].lanes) mk = std::max(mk, t);
      br.cluster_cycles[c] = mk;
      br.cycles = std::max(br.cycles, mk);
    }
  }
  br.seconds = static_cast<double>(br.cycles) / (mc_.freq_ghz * 1e9);
  br.gflops = br.seconds > 0 ? br.flops / br.seconds / 1e9 : 0.0;
  return br;
}

void GemmRuntime::wait_idle() {
  flush_batches();  // held members must enter the queue to be waited on
  queue_.wait_idle();
}

core::FtimmEngine& GemmRuntime::engine(int cluster) {
  FTM_EXPECTS(cluster >= 0 && cluster < clusters());
  return *clusters_[static_cast<std::size_t>(cluster)].engine;
}

bool GemmRuntime::quarantined(int cluster) const {
  FTM_EXPECTS(cluster >= 0 && cluster < clusters());
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return clusters_[static_cast<std::size_t>(cluster)].health.quarantined;
}

RuntimeStats GemmRuntime::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  RuntimeStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.executed = executed_;
  s.plan_hits = plans_.hits();
  s.plan_misses = plans_.misses();
  s.tuned_plans = tuned_plans_;
  s.steals = steals_;
  s.splits = splits_;
  s.faults = faults_;
  s.retries = retries_;
  s.fallbacks = fallbacks_;
  s.deadline_misses = deadline_misses_;
  s.rerouted = rerouted_;
  s.batches = batches_;
  s.coalesced = coalesced_;
  s.rejected = rejected_;
  s.batch_ddr_saved_bytes = batch_ddr_saved_;
  s.checksum_checks = checksum_checks_;
  s.sdc_detected = sdc_detected_;
  s.sdc_corrected = sdc_corrected_;
  s.recomputed_shards = recomputed_shards_;
  s.node_dispatches = node_dispatches_;
  for (const auto& cs : clusters_) {
    s.cluster_requests.push_back(cs.requests);
    std::uint64_t mk = 0;
    for (const std::uint64_t t : cs.lanes) mk = std::max(mk, t);
    s.cluster_busy_cycles.push_back(mk);
    s.cluster_failures.push_back(cs.health.failures);
    s.cluster_quarantines.push_back(cs.health.quarantines);
    s.cluster_probes.push_back(cs.health.probes);
    s.cluster_quarantined.push_back(cs.health.quarantined);
  }
  return s;
}

std::vector<RequestStats> GemmRuntime::request_log() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return log_;
}

std::uint64_t GemmRuntime::makespan_cycles() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  std::uint64_t mk = 0;
  for (const auto& cs : clusters_) {
    for (const std::uint64_t t : cs.lanes) mk = std::max(mk, t);
  }
  return mk;
}

void GemmRuntime::reset_clocks() {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  for (auto& cs : clusters_) {
    std::fill(cs.lanes.begin(), cs.lanes.end(), 0);
  }
}

Table GemmRuntime::report() const {
  const RuntimeStats s = stats();
  std::vector<double> waits;
  std::vector<double> host_us;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    waits.reserve(log_.size());
    host_us.reserve(log_.size());
    for (const RequestStats& r : log_) {
      waits.push_back(r.queue_wait_ms);
      host_us.push_back(r.host_wall_us);
    }
  }
  Table t({"cluster", "requests", "busy_cycles", "plan_hits", "plan_misses",
           "tuned", "steals", "splits", "batches", "coalesced", "rejected",
           "faults", "retries", "fallbacks", "quarantines", "probes",
           "health", "wait_p50_ms", "wait_p95_ms", "host_p50_us",
           "host_p95_us"});
  std::uint64_t total_q = 0, total_p = 0;
  for (std::size_t c = 0; c < s.cluster_requests.size(); ++c) {
    total_q += s.cluster_quarantines[c];
    total_p += s.cluster_probes[c];
    t.begin_row()
        .cell(static_cast<long long>(c))
        .cell(static_cast<std::size_t>(s.cluster_requests[c]))
        .cell(static_cast<std::size_t>(s.cluster_busy_cycles[c]))
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell("")
        .cell(static_cast<std::size_t>(s.cluster_failures[c]))
        .cell("")
        .cell("")
        .cell(static_cast<std::size_t>(s.cluster_quarantines[c]))
        .cell(static_cast<std::size_t>(s.cluster_probes[c]))
        .cell(s.cluster_quarantined[c] ? "quarantined" : "ok")
        .cell("")
        .cell("")
        .cell("")
        .cell("");
  }
  t.begin_row()
      .cell("all")
      .cell(static_cast<std::size_t>(s.executed))
      .cell(static_cast<std::size_t>(makespan_cycles()))
      .cell(static_cast<std::size_t>(s.plan_hits))
      .cell(static_cast<std::size_t>(s.plan_misses))
      .cell(static_cast<std::size_t>(s.tuned_plans))
      .cell(static_cast<std::size_t>(s.steals))
      .cell(static_cast<std::size_t>(s.splits))
      .cell(static_cast<std::size_t>(s.batches))
      .cell(static_cast<std::size_t>(s.coalesced))
      .cell(static_cast<std::size_t>(s.rejected))
      .cell(static_cast<std::size_t>(s.faults))
      .cell(static_cast<std::size_t>(s.retries))
      .cell(static_cast<std::size_t>(s.fallbacks))
      .cell(static_cast<std::size_t>(total_q))
      .cell(static_cast<std::size_t>(total_p))
      .cell("")
      .cell(percentile(waits, 50), 3)
      .cell(percentile(waits, 95), 3)
      .cell(percentile(host_us, 50), 1)
      .cell(percentile(host_us, 95), 1);
  return t;
}

}  // namespace ftm::runtime
