#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/core/roofline.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/nodes/scaleout.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/tune/tuner.hpp"
#include "ftm/util/half.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/util/task_pool.hpp"

namespace perfbench {

namespace core = ftm::core;
using ftm::HostMatrix;
using ftm::kernelgen::DType;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_p50_us", "us"},
      {"host_gflops", "GFlop/s"},
      {"sim_gflops", "GFlop/s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"kernelgen.generated", "count"},
      {"kernelgen.kernel_calls", "count/op"},
      {"kernelgen.host_ns_per_kernel_call", "ns"},
      {"sim.cycles", "cycles/op"},
      {"sim.fmac_util", "ratio"},
      {"sim.dma_wait_cycles", "cycles/op"},
      {"sim.kernel_stall_cycles", "cycles/op"},
      {"sim.dma_transfers", "count/op"},
      {"sim.ddr_bytes_ratio", "ratio"},
      {"sim.host_us_per_mcycle", "us"},
      {"core.plan_us", "us"},
      {"core.execute_us", "us"},
      {"core.timing_only_us", "us"},
      {"core.host_math_us", "us"},
      {"core.reduce_gsm_bytes", "bytes/op"},
      {"runtime.submit_us", "us"},
      {"runtime.queue_wait_us", "us"},
      {"runtime.exec_us", "us"},
      {"runtime.dispatch_overhead_us", "us"},
      {"runtime.plan_hit_ratio", "ratio"},
      {"runtime.steals", "count/op"},
      {"runtime.makespan_cycles", "cycles"},
      {"abft.checks", "count/op"},
      {"abft.checksum_cycle_share", "ratio"},
      {"graph.plan_us", "us"},
      {"graph.run_us", "us"},
      {"graph.cycles", "cycles/op"},
      {"graph.ddr_bytes_saved", "bytes/op"},
      {"nodes.gemm_us", "us"},
      {"nodes.input_cycles", "cycles/op"},
      {"nodes.compute_cycles", "cycles/op"},
      {"nodes.reduce_cycles", "cycles/op"},
      {"nodes.link_bytes", "bytes/op"},
      {"tune.tune_ms", "ms"},
      {"tune.search_steps", "count"},
      {"tune.pruned", "count"},
      {"tune.tuned_share", "ratio"},
      {"self.core_us", "us/op"},
      {"self.runtime_us", "us/op"},
      {"self.graph_us", "us/op"},
      {"self.nodes_us", "us/op"},
      {"self.uncovered_us", "us/op"},
      {"trace.ops_per_s_ratio", "ratio"},
      {"latency.tail_us", "us"},
  };
  return specs;
}

namespace {

/// Per-layer values by metric name; a layer a workload bypasses keeps 0.
using Layers = std::map<std::string, double>;

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// What one measured pass recorded.
struct Meter {
  std::vector<double> latency_us;  ///< one per attempted op
  double busy_us = 0;              ///< summed timed intervals
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double flops = 0;             ///< useful flops of completed ops
  double functional_flops = 0;  ///< of those, computed on the host
  double sim_cycles = 0;        ///< simulated cycles of completed ops
  // Sums over ops that returned a core::GemmResult.
  std::uint64_t results = 0;
  std::uint64_t kernel_calls = 0;
  std::uint64_t checksum_checks = 0;
  double cycles = 0;
  double checksum_cycles = 0;
  double host_wall_us = 0;
  double efficiency_x_cycles = 0;
  double ddr_bytes = 0;
  double min_ddr_bytes = 0;

  void add(const Op& op, const core::GemmResult& r) {
    ++results;
    kernel_calls += r.kernel_calls;
    checksum_checks += r.checksum_checks;
    cycles += static_cast<double>(r.cycles);
    checksum_cycles += static_cast<double>(r.checksum_cycles);
    host_wall_us += r.host_wall_us;
    efficiency_x_cycles += r.efficiency * static_cast<double>(r.cycles);
    ddr_bytes += static_cast<double>(r.ddr_bytes);
    min_ddr_bytes += core::min_ddr_bytes(op.m, op.n, op.k, op.dtype);
  }

  /// Throughput of each complete pass over the op list. Each pass runs
  /// the same op mix, and their median shrugs off a burst of host noise
  /// that a whole-run mean would absorb.
  std::vector<double> pass_ops_per_s;
  std::vector<double> pass_host_gflops;

  double done() const { return static_cast<double>(attempted - failed); }
  /// Timing-only workloads do no host math; their host rate counts the
  /// modelled flops the simulator covers per host second, so that every
  /// workload reports a non-zero rate in flop units.
  double host_flops() const {
    return functional_flops > 0 ? functional_flops : flops;
  }

  /// Where a pass began.
  struct Mark {
    double busy_us, done, host_flops;
  };
  Mark mark() const { return {busy_us, done(), host_flops()}; }

  /// Ends the pass that began at `start`.
  void close_pass(const Mark& start) {
    const double busy_s = (busy_us - start.busy_us) * 1e-6;
    if (busy_s <= 0) return;
    pass_ops_per_s.push_back((done() - start.done) / busy_s);
    pass_host_gflops.push_back((host_flops() - start.host_flops) / busy_s *
                               1e-9);
  }

  double ops_per_s() const {
    if (!pass_ops_per_s.empty()) return median(pass_ops_per_s);
    return busy_us > 0 ? done() / (busy_us * 1e-6) : 0;
  }
  double host_gflops() const {
    if (!pass_host_gflops.empty()) return median(pass_host_gflops);
    return busy_us > 0 ? host_flops() / (busy_us * 1e-6) * 1e-9 : 0;
  }
};

/// Counters the program keeps itself, read in the counters pass.
struct Counters {
  double ops = 0;
  ftm::trace::CounterRegistry reg;

  double per_op(const char* name) const {
    return ops > 0 ? static_cast<double>(reg.value(name)) / ops : 0;
  }
};

class Workload {
 public:
  explicit Workload(std::vector<Op> ops)
      : ops_(std::move(ops)), first_(ops_.size()) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the system under test from scratch and warms it up: every
  /// distinct shape runs once, because the first call generates and
  /// calibrates micro-kernels.
  virtual void setup() = 0;
  /// Destroys the system under test (before the next timed setup).
  virtual void teardown() = 0;
  /// Runs the next op of the closed loop (on serving-tiny, a whole pass).
  /// Latencies and busy intervals are timed; output checks happen
  /// outside them.
  virtual void round(Meter& m, SpanRecorder* spans) = 0;
  /// One untimed pass over the op list under a trace::TraceSession.
  virtual Counters counters_pass() = 0;
  /// Workload-specific per-layer values after the span-traced pass.
  virtual void layers(const Meter& /*traced*/, Layers& /*out*/) {}
  /// Kernels generated by the last setup.
  virtual std::size_t kernels_generated() const = 0;
  /// Called between the untraced and the span-traced pass.
  virtual void before_traced_pass() {}

  const std::vector<Op>& ops() const { return ops_; }
  /// Ops started so far, counted across every pass of the run.
  std::size_t started() const { return next_; }

  /// Determinism guard: the first simulated cost seen for an op is its
  /// reference; any later run of the same op must repeat it exactly.
  void observe(std::size_t i, std::uint64_t cycles, double sim_seconds,
               double flops, Meter& m) {
    m.flops += flops;
    m.sim_cycles += static_cast<double>(cycles);
    auto& f = first_[i];
    if (!f) {
      f = First{cycles, sim_seconds, flops};
    } else if (f->cycles != cycles) {
      ++nondeterministic_;
    }
  }
  std::uint64_t nondeterministic() const { return nondeterministic_; }

  /// Total flops over summed simulated seconds of one pass over the op
  /// list (each op counted once), so it does not depend on how many ops
  /// the host managed in the time.
  double sim_gflops() const {
    double flops = 0, seconds = 0;
    for (const auto& f : first_) {
      if (!f) continue;
      flops += f->flops;
      seconds += f->seconds;
    }
    return seconds > 0 ? flops / seconds * 1e-9 : 0;
  }
  std::size_t observed_ops() const {
    return static_cast<std::size_t>(
        std::count_if(first_.begin(), first_.end(),
                      [](const auto& f) { return f.has_value(); }));
  }

 protected:
  std::size_t next_op() { return next_++ % ops_.size(); }
  std::uint64_t next_id() { return ++op_id_; }

  std::vector<Op> ops_;

 private:
  struct First {
    std::uint64_t cycles;
    double seconds;
    double flops;
  };
  std::vector<std::optional<First>> first_;
  std::uint64_t nondeterministic_ = 0;
  std::size_t next_ = 0;
  std::uint64_t op_id_ = 0;
};

// ---- taxonomy-functional ------------------------------------------------

/// Relative error with the denominator clamped to 1 (as max_rel_diff).
double rel_err(double got, double want) {
  return std::abs(got - want) / std::max({std::abs(got), std::abs(want), 1.0});
}

class Taxonomy final : public Workload {
 public:
  Taxonomy(std::vector<Op> ops, std::uint64_t seed, bool references)
      : Workload(std::move(ops)), data_(ops_.size()) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      make_data(i, seed, references);
    }
  }

  void setup() override {
    pool_ = std::make_unique<ftm::TaskPool>(0);
    engine_ = std::make_unique<core::FtimmEngine>();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      execute(i, nullptr, -1, 0);
      reset_c(i);
    }
  }

  void round(Meter& m, SpanRecorder* spans) override {
    const std::size_t i = next_op();
    const Op& op = ops_[i];
    const std::uint64_t id = next_id();
    std::optional<core::GemmResult> r;
    const auto t0 = Clock::now();
    {
      ScopedSpan root(spans, "op", "op", id);
      try {
        r = execute(i, spans, root.index(), id);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
      }
    }
    const double us = us_between(t0, Clock::now());
    ++m.attempted;
    m.latency_us.push_back(us);
    m.busy_us += us;
    if (!r || !check(i)) {
      ++m.failed;
    } else {
      m.add(op, *r);
      m.functional_flops += op.flops();
      observe(i, r->cycles, r->seconds, op.flops(), m);
    }
    reset_c(i);
  }

  void teardown() override {
    engine_.reset();
    pool_.reset();
  }

  Counters counters_pass() override {
    ftm::trace::TraceSession session;
    session.start();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      execute(i, nullptr, -1, 0);
      reset_c(i);
    }
    session.stop();
    return {static_cast<double>(ops_.size()), session.counters()};
  }

  std::size_t kernels_generated() const override {
    return engine_->kernels().generated();
  }

 private:
  struct Data {
    HostMatrix a, b, c, c0;                      // F32 and half ops
    std::vector<double> a64, b64, c64, c0_64;    // F64 ops
    std::vector<double> ref64;                   // every op's reference
    double tol = 0;
    bool reported = false;
  };

  void make_data(std::size_t i, std::uint64_t seed, bool references) {
    const Op& op = ops_[i];
    Data& d = data_[i];
    ftm::Prng rng(seed * 1000003 + i);
    if (op.kind == OpKind::Dgemm) {
      auto fill = [&](std::vector<double>& v, std::size_t n) {
        v.resize(n);
        for (double& x : v) x = rng.next_double() * 2 - 1;
      };
      fill(d.a64, op.m * op.k);
      fill(d.b64, op.k * op.n);
      fill(d.c0_64, op.m * op.n);
      d.c64 = d.c0_64;
      if (!references) return;
      d.ref64 = d.c0_64;
      gemm_ref(d.a64.data(), d.b64.data(), d.ref64.data(), op);
      // FP64 keeps 29 more mantissa bits than FP32's tolerance assumes.
      d.tol = ftm::gemm_tolerance(op.k) * std::ldexp(1.0, -29);
      return;
    }
    d.a = HostMatrix(op.m, op.k);
    d.b = HostMatrix(op.k, op.n);
    d.c0 = HostMatrix(op.m, op.n);
    d.c = HostMatrix(op.m, op.n);
    if (op.dtype == DType::F32) {
      // Dyadic inputs (multiples of 1/8 in [-1, 1]) keep every partial sum
      // exact in FP32 whatever the summation order, so C must match
      // cpu::reference_gemm and any difference is a real error. With
      // uniform inputs, FP32 rounding alone exceeds gemm_tolerance(k) at
      // K ~ 65536 in about one draw in a thousand.
      for (HostMatrix* x : {&d.a, &d.b, &d.c0}) {
        for (std::size_t j = 0; j < x->size(); ++j) {
          x->data()[j] =
              static_cast<float>(static_cast<int>(rng.next_below(17)) - 8) /
              8.0f;
        }
      }
      std::memcpy(d.c.data(), d.c0.data(), d.c0.size() * sizeof(float));
      if (!references) return;
      HostMatrix ref(op.m, op.n);
      std::memcpy(ref.data(), d.c0.data(), d.c0.size() * sizeof(float));
      ftm::cpu::reference_gemm(d.a.view(), d.b.view(), ref.view());
      d.ref64.assign(ref.data(), ref.data() + ref.size());
      d.tol = ftm::gemm_tolerance(op.k);
      return;
    }
    // Half operands: a double reference on the rounded operands; what is
    // left is the FP32 accumulation, bounded by the sqrt law
    // (tests/mixed_test.cpp).
    d.a.fill_random(rng);
    d.b.fill_random(rng);
    d.c0.fill_random(rng);
    std::memcpy(d.c.data(), d.c0.data(), d.c0.size() * sizeof(float));
    if (!references) return;
    const bool bf = op.dtype == DType::BF16;
    auto rounded = [bf](const HostMatrix& x) {
      std::vector<double> v(x.size());
      for (std::size_t j = 0; j < v.size(); ++j) {
        v[j] = ftm::util::half_to_f32(ftm::util::f32_to_half(x.data()[j], bf),
                                      bf);
      }
      return v;
    };
    const std::vector<double> a = rounded(d.a), b = rounded(d.b);
    d.ref64.assign(d.c0.data(), d.c0.data() + d.c0.size());
    gemm_ref(a.data(), b.data(), d.ref64.data(), op);
    d.tol = 1e-6 * std::sqrt(static_cast<double>(op.k));
  }

  static void gemm_ref(const double* a, const double* b, double* c,
                       const Op& op) {
    for (std::size_t i = 0; i < op.m; ++i) {
      for (std::size_t p = 0; p < op.k; ++p) {
        const double av = a[i * op.k + p];
        for (std::size_t j = 0; j < op.n; ++j) {
          c[i * op.n + j] += av * b[p * op.n + j];
        }
      }
    }
  }

  core::GemmResult execute(std::size_t i, SpanRecorder* spans, int parent,
                           std::uint64_t id) {
    const Op& op = ops_[i];
    Data& d = data_[i];
    core::FtimmOptions opt;
    opt.host_pool = pool_.get();
    if (op.kind == OpKind::Dgemm) {
      ScopedSpan s(spans, "core.execute", "core", id, parent);
      return core::dgemm(*engine_,
                         core::DGemmInput::bound(d.a64.data(), d.b64.data(),
                                                 d.c64.data(), op.m, op.n,
                                                 op.k),
                         opt);
    }
    opt.dtype = op.dtype;
    const auto in = core::GemmInput::bound(d.a.view(), d.b.view(), d.c.view());
    if (spans == nullptr) return engine_->sgemm(in, opt);
    core::GemmPlan plan;
    {
      ScopedSpan s(spans, "core.plan", "core", id, parent);
      plan = engine_->plan(op.m, op.n, op.k, opt);
    }
    ScopedSpan s(spans, "core.execute", "core", id, parent);
    return engine_->sgemm_planned(in, plan, opt);
  }

  /// True when op `i`'s C is within its tolerance of the reference; the
  /// first miss of each op is reported on stderr.
  bool check(std::size_t i) {
    const Op& op = ops_[i];
    Data& d = data_[i];
    double worst = 0;
    for (std::size_t j = 0; j < d.ref64.size(); ++j) {
      const double got = op.kind == OpKind::Dgemm ? d.c64[j] : d.c.data()[j];
      worst = std::max(worst, rel_err(got, d.ref64[j]));
    }
    if (worst <= d.tol) return true;
    if (!d.reported) {
      std::fprintf(stderr, "op %zu (%zux%zux%zu %s) error %g > tolerance %g\n",
                   i, op.m, op.n, op.k, ftm::kernelgen::to_string(op.dtype),
                   worst, d.tol);
      d.reported = true;
    }
    return false;
  }

  void reset_c(std::size_t i) {
    Data& d = data_[i];
    if (ops_[i].kind == OpKind::Dgemm) {
      d.c64 = d.c0_64;
    } else {
      std::memcpy(d.c.data(), d.c0.data(), d.c0.size() * sizeof(float));
    }
  }

  std::vector<Data> data_;
  std::unique_ptr<ftm::TaskPool> pool_;
  std::unique_ptr<core::FtimmEngine> engine_;
};

// ---- serving-tiny -------------------------------------------------------

class Serving final : public Workload {
 public:
  static constexpr int kClusters = 4;
  /// Requests in flight: four per cluster keep every worker's queue
  /// non-empty, so throughput does not hinge on thread wake-ups (with
  /// one to three per cluster it swung by half from run to run).
  static constexpr int kWindow = 4 * kClusters;
  static constexpr std::size_t kMaxM = 160, kN = 32, kK = 64;

  Serving(std::vector<Op> ops, std::uint64_t seed, bool keep_log,
          bool references)
      : Workload(std::move(ops)),
        a_(kMaxM, kK),
        b_(kK, kN),
        c0_(kMaxM, kN),
        results_(ops_.size()),
        keep_log_(keep_log) {
    ftm::Prng rng(seed * 1000003);
    a_.fill_random(rng);
    b_.fill_random(rng);
    c0_.fill_random(rng);
    c_.reserve(ops_.size());
    for (const Op& op : ops_) {
      c_.emplace_back(op.m, kN);
      std::memcpy(c_.back().data(), c0_.data(), op.m * kN * sizeof(float));
      if (!references || refs_.count(op.m) != 0) continue;
      HostMatrix ref(op.m, kN);
      std::memcpy(ref.data(), c0_.data(), ref.size() * sizeof(float));
      ftm::cpu::reference_gemm(a_.view().block(0, 0, op.m, kK), b_.view(),
                               ref.view());
      refs_.emplace(op.m, std::move(ref));
    }
  }

  ~Serving() override { teardown(); }

  void teardown() override {
    rt_.reset();  // joins the workers before the engines they borrow go
    probe_.reset();
    engines_.clear();
    kernels_.reset();
  }

  void setup() override {
    const ftm::isa::MachineConfig mc = ftm::isa::default_machine();
    kernels_ = std::make_shared<ftm::kernelgen::KernelCache>(mc);
    std::vector<core::FtimmEngine*> ptrs;
    for (int c = 0; c < kClusters; ++c) {
      engines_.push_back(std::make_unique<core::FtimmEngine>(mc, kernels_));
      ptrs.push_back(engines_.back().get());
    }
    probe_ = std::make_unique<core::FtimmEngine>(mc, kernels_);
    ftm::runtime::RuntimeOptions ro;
    ro.host_threads = 1;
    ro.keep_request_log = keep_log_;
    ro.integrity.latency.mode = core::IntegrityMode::Verify;
    // Warm the shared kernel cache through an engine directly, so the
    // runtime's own plan cache starts cold.
    HostMatrix scratch(kMaxM, kN);
    std::set<std::pair<std::size_t, bool>> seen;
    for (const Op& op : ops_) {
      if (!seen.insert({op.m, op.latency_class}).second) continue;
      engines_[0]->sgemm(input(op, scratch), options(op));
    }
    rt_ = std::make_unique<ftm::runtime::GemmRuntime>(ptrs, ro);
  }

  /// One pass over the request list, closed loop: the window fills, each
  /// request that resolves (whichever is first) is harvested and its slot
  /// refilled, and the pass ends when the last request has resolved. That
  /// span is the busy interval; every C is checked after it closes.
  void round(Meter& m, SpanRecorder* spans) override {
    const auto t0 = Clock::now();
    std::size_t in_flight = 0;
    for (Slot& slot : slots_) {
      if (pass_started_ == ops_.size()) break;
      start(slot, spans);
      ++in_flight;
    }
    while (in_flight > 0) {
      Slot& slot = resolved_slot();
      harvest(slot, m, spans);
      if (pass_started_ < ops_.size()) {
        start(slot, spans);
      } else {
        --in_flight;
      }
    }
    m.busy_us += us_between(t0, Clock::now());
    pass_started_ = 0;
    check_pass(m);
    if (spans) probe_pass();
  }

  Counters counters_pass() override {
    rt_->wait_idle();
    rt_->reset_clocks();
    ftm::trace::TraceSession session;
    session.start();
    Meter scratch;
    round(scratch, nullptr);
    session.stop();
    makespan_ = static_cast<double>(rt_->makespan_cycles());
    return {static_cast<double>(scratch.attempted), session.counters()};
  }

  void before_traced_pass() override {
    rt_->wait_idle();
    mark_stats_ = rt_->stats();
    mark_log_ = rt_->request_log().size();
  }

  void layers(const Meter& traced, Layers& out) override {
    rt_->wait_idle();
    const ftm::runtime::RuntimeStats st = rt_->stats();
    const double hits =
        static_cast<double>(st.plan_hits - mark_stats_.plan_hits);
    const double misses =
        static_cast<double>(st.plan_misses - mark_stats_.plan_misses);
    const double requests = static_cast<double>(traced.attempted);
    out["runtime.plan_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    out["runtime.steals"] =
        requests > 0
            ? static_cast<double>(st.steals - mark_stats_.steals) / requests
            : 0;
    out["runtime.makespan_cycles"] = makespan_;
    out["core.plan_us"] = mean(plan_us_);
    const auto log = rt_->request_log();  // kept in traced runs only
    std::vector<double> queue, exec, engine, overhead;
    for (std::size_t i = mark_log_; i < log.size(); ++i) {
      queue.push_back(log[i].queue_wait_ms * 1e3);
      exec.push_back(log[i].exec_ms * 1e3);
      engine.push_back(log[i].host_wall_us);
      overhead.push_back(log[i].exec_ms * 1e3 - log[i].host_wall_us);
    }
    out["runtime.queue_wait_us"] = mean(queue);
    out["runtime.exec_us"] = mean(exec);
    out["runtime.dispatch_overhead_us"] = mean(overhead);
    // The runtime calls sgemm_planned itself; the engine's own timing of
    // that call stands in for the benchmark-side span.
    out["core.execute_us"] = mean(engine);
    out["core.timing_only_us"] = mean(timing_us_);
    out["core.host_math_us"] = mean(engine) - mean(timing_us_);
    // The benchmark's spans cover only submit(); the runtime's own timing
    // covers the request from enqueue to completion. Self time splits
    // along those lines, and what neither covers (delivering the result
    // and the client noticing it) is left uncovered.
    const double runtime_us = out["runtime.submit_us"] + mean(queue) +
                              mean(overhead);
    out["self.runtime_us"] = runtime_us;
    out["self.core_us"] = mean(engine);
    out["self.uncovered_us"] = mean(traced.latency_us) - runtime_us -
                               mean(engine);
  }

  std::size_t kernels_generated() const override {
    return kernels_->generated();
  }

 private:
  static core::FtimmOptions options(const Op& op) {
    core::FtimmOptions opt;
    if (op.latency_class) opt.integrity.mode = core::IntegrityMode::Verify;
    return opt;
  }

  core::GemmInput input(const Op& op, HostMatrix& c) const {
    return core::GemmInput::bound(a_.view().block(0, 0, op.m, kK), b_.view(),
                                  c.view().block(0, 0, op.m, kN));
  }

  struct Slot {
    std::size_t op = 0;
    std::uint64_t id = 0;
    int root = -1;
    bool pending = false;  ///< a request is in flight
    Clock::time_point submitted;
    std::future<core::GemmResult> result;
  };

  void start(Slot& slot, SpanRecorder* spans) {
    slot.op = next_op();
    ++pass_started_;
    slot.id = next_id();
    const Op& op = ops_[slot.op];
    slot.pending = true;
    slot.submitted = Clock::now();
    slot.root = spans ? spans->begin("op", "op", slot.id, -1) : -1;
    ScopedSpan span(spans, "runtime.submit", "runtime", slot.id, slot.root);
    try {
      if (!op.latency_class) {
        slot.result = rt_->submit(input(op, c_[slot.op]));
      } else {
        ftm::runtime::QosOptions qos;
        qos.priority = ftm::runtime::Priority::Latency;
        slot.result = rt_->submit(input(op, c_[slot.op]),
                                  core::FtimmOptions{}, qos);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "submit threw: %s\n", e.what());
    }
  }

  /// The first in-flight slot whose request has resolved, scanning from
  /// where the last scan stopped; yields the CPU between scans.
  Slot& resolved_slot() {
    for (;;) {
      for (int k = 0; k < kWindow; ++k) {
        Slot& slot = slots_[static_cast<std::size_t>(scan_)];
        scan_ = (scan_ + 1) % kWindow;
        if (!slot.pending) continue;
        if (!slot.result.valid() ||
            slot.result.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
          return slot;
        }
      }
      std::this_thread::yield();
    }
  }

  /// Records the request's latency and keeps its result for the check.
  void harvest(Slot& slot, Meter& m, SpanRecorder* spans) {
    m.latency_us.push_back(us_between(slot.submitted, Clock::now()));
    if (spans) spans->end(slot.root);
    slot.pending = false;
    auto& r = results_[slot.op];
    r.reset();
    try {
      if (slot.result.valid()) r = slot.result.get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request threw: %s\n", e.what());
    }
  }

  /// Checks every request's C of the pass that just ended against its
  /// reference, then restores it.
  void check_pass(Meter& m) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      ++m.attempted;
      const auto& r = results_[i];
      if (!r || ftm::max_rel_diff(c_[i].view(), refs_.at(op.m).view()) >
                    ftm::gemm_tolerance(kK)) {
        ++m.failed;
      } else {
        m.add(op, *r);
        m.functional_flops += op.flops();
        observe(i, r->cycles, r->seconds, op.flops(), m);
      }
      std::memcpy(c_[i].data(), c0_.data(), op.m * kN * sizeof(float));
    }
  }

  /// Traced runs: what plan() and a timing-only run of each request's
  /// shape cost on an idle engine, outside the pass. A plan is what a
  /// runtime plan-cache miss costs; the engine's host time of the
  /// timing-only run is the simulator and ABFT model without host math.
  void probe_pass() {
    std::map<std::pair<std::size_t, bool>, std::pair<double, double>> cost;
    for (const Op& op : ops_) {
      auto [it, fresh] = cost.try_emplace({op.m, op.latency_class});
      if (fresh) {
        core::FtimmOptions opt = options(op);
        opt.functional = false;
        const auto t0 = Clock::now();
        const core::GemmPlan plan = probe_->plan(op.m, kN, kK, opt);
        it->second.first = us_between(t0, Clock::now());
        it->second.second =
            probe_
                ->sgemm_planned(core::GemmInput::shape_only(op.m, kN, kK),
                                plan, opt)
                .host_wall_us;
      }
      plan_us_.push_back(it->second.first);
      timing_us_.push_back(it->second.second);
    }
  }

  HostMatrix a_, b_, c0_;
  /// Each request of the list has its own C, so a pass never reuses one
  /// before it is checked. Declared before rt_: the runtime drains
  /// in-flight requests into them when it is destroyed.
  std::vector<HostMatrix> c_;
  std::vector<std::optional<core::GemmResult>> results_;
  std::array<Slot, kWindow> slots_;
  std::size_t pass_started_ = 0;
  int scan_ = 0;
  std::map<std::size_t, HostMatrix> refs_;
  bool keep_log_;
  std::shared_ptr<ftm::kernelgen::KernelCache> kernels_;
  std::vector<std::unique_ptr<core::FtimmEngine>> engines_;
  std::unique_ptr<core::FtimmEngine> probe_;
  std::unique_ptr<ftm::runtime::GemmRuntime> rt_;
  std::vector<double> plan_us_, timing_us_;
  ftm::runtime::RuntimeStats mark_stats_;
  std::size_t mark_log_ = 0;
  double makespan_ = 0;
};

// ---- sweep-timing -------------------------------------------------------

ftm::graph::Graph mlp_chain(std::size_t rows,
                            const std::vector<std::size_t>& dims) {
  ftm::graph::Graph g;
  ftm::graph::TensorId h = g.input("x", rows, dims[0]);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::string ln = std::string(1, 'l').append(std::to_string(l + 1));
    const auto w = g.input(std::string(ln).append(".w"), dims[l], dims[l + 1]);
    const auto b = g.input(std::string(ln).append(".b"), 1, dims[l + 1]);
    h = g.bias_add(g.gemm(h, w, ln), b);
    if (l + 2 < dims.size()) h = g.relu(h);
  }
  g.mark_output(h);
  return g;
}

ftm::graph::Graph gemm3_chain(std::size_t m, std::size_t k, std::size_t n) {
  ftm::graph::Graph g;
  const auto x = g.input("x", m, k);
  const auto w1 = g.input("w1", k, n);
  const auto w2 = g.input("w2", n, n);
  const auto w3 = g.input("w3", n, n);
  g.mark_output(g.gemm(g.gemm(g.gemm(x, w1), w2), w3));
  return g;
}

ftm::graph::Graph conv_chain(std::size_t in_ch, std::size_t hw,
                             std::size_t out_ch) {
  ftm::graph::Graph g;
  ftm::graph::ConvParams p;
  p.in_ch = in_ch;
  p.height = p.width = hw;
  const auto img = g.input("img", p.batch * in_ch * hw, hw);
  const auto filters = g.input("filters", p.gemm_k(), out_ch);
  g.mark_output(ftm::graph::conv2d(g, img, filters, p, "conv"));
  return g;
}

double graph_flops(const ftm::graph::Graph& g) {
  double flops = 0;
  for (const auto& n : g.nodes()) {
    if (n.kind != ftm::graph::OpKind::Gemm) continue;
    const auto& a = g.tensor(n.inputs[0]);
    const auto& b = g.tensor(n.inputs[1]);
    flops += 2.0 * a.rows * a.cols * b.cols;
  }
  return flops;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(std::vector<Op> ops) : Workload(std::move(ops)) {
    // The perf gate's three chains (bench_perf_gate.cpp).
    graphs_.push_back(mlp_chain(1847, {512, 256, 64, 10}));
    graphs_.push_back(gemm3_chain(384, 64, 64));
    graphs_.push_back(conv_chain(64, 48, 96));
    for (const auto& g : graphs_) graph_flops_.push_back(graph_flops(g));
  }

  ~Sweep() override { teardown(); }

  void teardown() override {
    nodes_.reset();
    graph_ex_.reset();
    graph_rt_.reset();
    engine_.reset();
    cache_.reset();
  }

  void setup() override {
    const ftm::isa::MachineConfig mc = ftm::isa::default_machine();
    const auto t0 = Clock::now();
    cache_ = std::make_shared<ftm::tune::TuningCache>(mc);
    ftm::tune::Tuner(mc).tune_into(*cache_, tuned_shapes());
    tune_ms_ = us_between(t0, Clock::now()) * 1e-3;
    engine_ = std::make_unique<core::FtimmEngine>(mc);
    engine_->set_plan_provider(cache_);

    ftm::runtime::RuntimeOptions ro;
    ro.split_wide = false;  // idle-cluster sharding depends on host timing
    ro.host_threads = 1;
    ro.keep_request_log = false;
    graph_rt_ = std::make_unique<ftm::runtime::GemmRuntime>(ro, mc);
    ftm::graph::GraphOptions go;
    go.gemm.functional = false;
    graph_ex_ = std::make_unique<ftm::graph::GraphExecutor>(*graph_rt_, go);

    ftm::nodes::NodeOptions no;
    no.nodes = 4;
    no.runtime.host_threads = 1;
    no.runtime.keep_request_log = false;
    no.runtime.gemm.functional = false;
    nodes_ = std::make_unique<ftm::nodes::NodeCluster>(no);

    Meter warm;
    for (std::size_t i = 0; i < ops_.size(); ++i) execute(i, warm, nullptr);
  }

  void round(Meter& m, SpanRecorder* spans) override {
    const std::size_t i = next_op();
    const Op& op = ops_[i];
    if (spans && op.kind == OpKind::Graph) {
      // plan_memory is timed on its own: run() plans again internally.
      const auto t0 = Clock::now();
      ftm::graph::plan_memory(graphs_[static_cast<std::size_t>(op.graph)],
                              ftm::isa::default_machine());
      graph_plan_us_.push_back(us_between(t0, Clock::now()));
    }
    const auto t0 = Clock::now();
    bool ok = false;
    try {
      ok = execute(i, m, spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
    }
    const double us = us_between(t0, Clock::now());
    ++m.attempted;
    m.latency_us.push_back(us);
    m.busy_us += us;
    if (!ok) ++m.failed;
  }

  Counters counters_pass() override {
    ftm::trace::TraceSession session;
    session.start();
    Meter scratch;
    for (std::size_t i = 0; i < ops_.size(); ++i) execute(i, scratch, nullptr);
    session.stop();
    // The tuner's own counters (tune.search_steps, tune.pruned) come from
    // one more tuning of the same shapes into a fresh cache, in a session
    // of its own so its simulator runs stay out of the per-op counters.
    ftm::trace::TraceSession tune_session;
    tune_session.start();
    ftm::tune::TuningCache cache;
    ftm::tune::Tuner(ftm::isa::default_machine())
        .tune_into(cache, tuned_shapes());
    tune_session.stop();
    tune_counters_ = tune_session.counters();
    return {static_cast<double>(ops_.size()), session.counters()};
  }

  void layers(const Meter&, Layers& out) override {
    out["tune.tune_ms"] = tune_ms_;
    out["tune.search_steps"] =
        static_cast<double>(tune_counters_.value("tune.search_steps"));
    out["tune.pruned"] =
        static_cast<double>(tune_counters_.value("tune.pruned"));
    out["tune.tuned_share"] =
        planned_ > 0 ? static_cast<double>(tuned_) / planned_ : 0;
    out["graph.plan_us"] = mean(graph_plan_us_);
    const double runs = static_cast<double>(graph_runs_);
    out["graph.cycles"] = runs > 0 ? graph_cycles_ / runs : 0;
    out["graph.ddr_bytes_saved"] = runs > 0 ? graph_saved_ / runs : 0;
    const double gemms = static_cast<double>(node_gemms_);
    if (gemms > 0) {
      out["nodes.input_cycles"] = node_input_ / gemms;
      out["nodes.compute_cycles"] = node_compute_ / gemms;
      out["nodes.reduce_cycles"] = node_reduce_ / gemms;
      out["nodes.link_bytes"] = node_link_ / gemms;
    }
  }

  std::size_t kernels_generated() const override {
    std::size_t n = engine_->kernels().generated() +
                    graph_rt_->engine(0).kernels().generated();
    for (int i = 0; i < nodes_->nodes(); ++i) {
      n += nodes_->node(i).engine(0).kernels().generated();
    }
    return n;
  }

 private:
  std::vector<ftm::tune::Tuner::Shape> tuned_shapes() const {
    std::vector<ftm::tune::Tuner::Shape> shapes;
    for (const Op& op : ops_) {
      if (op.kind == OpKind::Gemm) shapes.push_back({op.m, op.n, op.k});
    }
    return shapes;
  }

  /// Runs op `i` timing-only; false when an output invariant fails.
  bool execute(std::size_t i, Meter& m, SpanRecorder* spans) {
    const Op& op = ops_[i];
    const std::uint64_t id = next_id();
    ScopedSpan root(spans, "op", "op", id);
    core::FtimmOptions opt;
    opt.functional = false;
    switch (op.kind) {
      case OpKind::Gemm: {
        const auto in = core::GemmInput::shape_only(op.m, op.n, op.k);
        core::GemmResult r;
        if (spans == nullptr) {
          r = engine_->sgemm(in, opt);
        } else {
          core::GemmPlan plan;
          {
            ScopedSpan s(spans, "core.plan", "core", id, root.index());
            plan = engine_->plan(op.m, op.n, op.k, opt);
          }
          ++planned_;
          tuned_ += plan.tuned ? 1 : 0;
          ScopedSpan s(spans, "core.execute", "core", id, root.index());
          r = engine_->sgemm_planned(in, plan, opt);
        }
        m.add(op, r);
        observe(i, r.cycles, r.seconds, op.flops(), m);
        return r.cycles > 0;
      }
      case OpKind::Graph: {
        const std::size_t g = static_cast<std::size_t>(op.graph);
        ftm::graph::GraphResult gr;
        {
          ScopedSpan s(spans, "graph.run", "graph", id, root.index());
          gr = graph_ex_->run(graphs_[g], {});
        }
        std::uint64_t node_cycles = 0;
        for (const auto& ns : gr.node_stats) node_cycles += ns.cycles;
        observe(i, gr.cycles, gr.seconds, graph_flops_[g], m);
        ++graph_runs_;
        graph_cycles_ += static_cast<double>(gr.cycles);
        graph_saved_ += static_cast<double>(gr.ddr_bytes_saved);
        return gr.cycles > 0 && gr.cycles == node_cycles;
      }
      case OpKind::Nodes: {
        ftm::nodes::NodeResult nr;
        {
          ScopedSpan s(spans, "nodes.gemm", "nodes", id, root.index());
          nr = nodes_->gemm(core::GemmInput::shape_only(op.m, op.n, op.k),
                            opt);
        }
        observe(i, nr.cycles, nr.seconds, op.flops(), m);
        ++node_gemms_;
        node_input_ += static_cast<double>(nr.input_cycles);
        node_compute_ += static_cast<double>(nr.compute_cycles);
        node_reduce_ += static_cast<double>(nr.reduce_cycles);
        node_link_ += static_cast<double>(nr.link_bytes);
        return nr.cycles > 0 && nr.cycles == nr.input_cycles +
                                                 nr.compute_cycles +
                                                 nr.reduce_cycles;
      }
      case OpKind::Dgemm:
        break;
    }
    return false;
  }

  std::vector<ftm::graph::Graph> graphs_;
  std::vector<double> graph_flops_;
  std::shared_ptr<ftm::tune::TuningCache> cache_;
  std::unique_ptr<core::FtimmEngine> engine_;
  std::unique_ptr<ftm::runtime::GemmRuntime> graph_rt_;
  std::unique_ptr<ftm::graph::GraphExecutor> graph_ex_;
  std::unique_ptr<ftm::nodes::NodeCluster> nodes_;
  double tune_ms_ = 0;
  ftm::trace::CounterRegistry tune_counters_;
  std::vector<double> graph_plan_us_;
  std::uint64_t planned_ = 0, tuned_ = 0;
  std::uint64_t graph_runs_ = 0, node_gemms_ = 0;
  double graph_cycles_ = 0, graph_saved_ = 0;
  double node_input_ = 0, node_compute_ = 0, node_reduce_ = 0,
         node_link_ = 0;
};

// ---- the run ------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const RunOptions& opt) {
  std::vector<Op> ops = make_ops(opt.workload, opt.seed);
  switch (opt.workload) {
    case WorkloadId::TaxonomyFunctional:
      return std::make_unique<Taxonomy>(std::move(ops), opt.seed,
                                        !opt.setup_only);
    case WorkloadId::ServingTiny:
      return std::make_unique<Serving>(std::move(ops), opt.seed, opt.trace,
                                       !opt.setup_only);
    case WorkloadId::SweepTiming:
      return std::make_unique<Sweep>(std::move(ops));
  }
  return nullptr;
}

Meter measure(Workload& w, double seconds, SpanRecorder* spans) {
  Meter m;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const std::size_t len = w.ops().size();
  // A pass that began before this measurement is not counted whole.
  bool whole = w.started() % len == 0;
  std::size_t pass = w.started() / len;
  Meter::Mark start = m.mark();
  do {
    w.round(m, spans);
    if (w.started() / len != pass) {
      if (whole) m.close_pass(start);
      whole = true;
      pass = w.started() / len;
      start = m.mark();
    }
  } while (Clock::now() < deadline);
  return m;
}

/// Mean duration of the spans called `name`.
double span_mean_us(const SpanRecorder& rec, const char* name) {
  double sum = 0;
  std::size_t n = 0;
  for (const Span& s : rec.spans()) {
    if (std::strcmp(s.name, name) == 0) {
      sum += s.end_us - s.start_us;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

/// Runs this binary again with --setup-only and reads the seconds it
/// prints. Called before this process starts any thread, so fork is safe.
std::optional<double> fresh_process_setup_seconds(const RunOptions& opt) {
  int fd[2];
  if (pipe(fd) != 0) return std::nullopt;
  const std::string seed = std::to_string(opt.seed);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    dup2(fd[1], STDOUT_FILENO);
    close(fd[0]);
    close(fd[1]);
    execl("/proc/self/exe", "perfbench", "--workload",
          to_string(opt.workload), "--seed", seed.c_str(), "--setup-only",
          "1", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fd[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; (n = read(fd[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return std::nullopt;
  return seconds;
}

/// Set-ups timed per untraced run, each in a fresh process; setup_s is
/// their median.
constexpr int kSetups = 5;

void report_prediction(std::FILE* log, const char* what, bool held) {
  std::fprintf(log, "# prediction %s: %s\n", held ? "HELD" : "FAILED", what);
}

/// The traced run: an untraced and a span-traced half of the time, then
/// one counters pass. Returns the two measured passes; appends every
/// per-layer metric to `metrics`.
std::vector<Meter> run_traced(Workload& w, const RunOptions& opt,
                              std::FILE* log, std::vector<Metric>& metrics) {
  Layers layers;
  layers["kernelgen.generated"] = static_cast<double>(w.kernels_generated());
  std::vector<Meter> passes;
  passes.push_back(measure(w, opt.seconds / 2, nullptr));
  w.before_traced_pass();
  SpanRecorder rec;
  passes.push_back(measure(w, opt.seconds / 2, &rec));
  const Counters counters = w.counters_pass();
  const Meter& u = passes.front();
  const Meter& t = passes.back();
  const double ops = static_cast<double>(t.attempted);
  if (t.results > 0) {
    const double results = static_cast<double>(t.results);
    const double calls = static_cast<double>(t.kernel_calls);
    layers["kernelgen.kernel_calls"] = calls / results;
    layers["kernelgen.host_ns_per_kernel_call"] =
        calls > 0 ? t.host_wall_us * 1e3 / calls : 0;
    layers["sim.fmac_util"] =
        t.cycles > 0 ? t.efficiency_x_cycles / t.cycles : 0;
    layers["sim.ddr_bytes_ratio"] =
        t.min_ddr_bytes > 0 ? t.ddr_bytes / t.min_ddr_bytes : 0;
    layers["sim.host_us_per_mcycle"] =
        t.cycles > 0 ? t.host_wall_us / (t.cycles * 1e-6) : 0;
    layers["abft.checks"] = static_cast<double>(t.checksum_checks) / results;
    layers["abft.checksum_cycle_share"] =
        t.cycles > 0 ? t.checksum_cycles / t.cycles : 0;
  }
  layers["sim.cycles"] = ops > 0 ? t.sim_cycles / ops : 0;
  layers["sim.dma_wait_cycles"] = counters.per_op("stall.dma_wait_cycles");
  layers["sim.kernel_stall_cycles"] = counters.per_op("kernel.stall_cycles");
  layers["sim.dma_transfers"] = counters.per_op("dma.transfers");
  layers["core.reduce_gsm_bytes"] = counters.per_op("reduce.gsm_bytes");
  layers["core.plan_us"] = span_mean_us(rec, "core.plan");
  layers["core.execute_us"] = span_mean_us(rec, "core.execute");
  layers["runtime.submit_us"] = span_mean_us(rec, "runtime.submit");
  layers["graph.run_us"] = span_mean_us(rec, "graph.run");
  layers["nodes.gemm_us"] = span_mean_us(rec, "nodes.gemm");
  for (const auto& [layer, us] : rec.self_time_us()) {
    const std::string key =
        layer == "op" ? "self.uncovered_us" : "self." + layer + "_us";
    layers[key] = ops > 0 ? us / ops : 0;
  }
  w.layers(t, layers);
  // The tail did not repeat within a tenth between runs on a shared host,
  // so it is a per-layer number rather than a gated end-to-end one.
  layers["latency.tail_us"] = tail_percentile(u.latency_us).value;
  layers["trace.ops_per_s_ratio"] =
      u.ops_per_s() > 0 ? t.ops_per_s() / u.ops_per_s() : 0;

  namespace fs = std::filesystem;
  const fs::path dir = fs::read_symlink("/proc/self/exe").parent_path() /
                       "traces";
  fs::create_directories(dir);
  const fs::path path = dir / ("spans-" + std::string(to_string(opt.workload)) +
                               "-" + std::to_string(opt.seed) + ".json");
  if (!rec.write_chrome_json(path.string())) {
    throw std::runtime_error("cannot write " + path.string());
  }
  std::fprintf(log, "# spans: %zu written to %s\n", rec.spans().size(),
               path.c_str());
  std::fprintf(log, "# tracing: untraced %.1f ops/s, span-traced %.1f ops/s\n",
               u.ops_per_s(), t.ops_per_s());
  // The split predictions.json states for each workload.
  switch (opt.workload) {
    case WorkloadId::TaxonomyFunctional:
      report_prediction(
          log, "core.execute_us is most of op latency, no runtime time",
          layers["core.execute_us"] > 0.5 * mean(t.latency_us) &&
              layers["self.runtime_us"] == 0);
      break;
    case WorkloadId::ServingTiny: {
      const double fixed = layers["runtime.submit_us"] +
                           layers["runtime.dispatch_overhead_us"] +
                           layers["core.plan_us"];
      const double math = layers["core.host_math_us"];
      report_prediction(log,
                        "runtime.* with queue wait + core.plan_us outweigh "
                        "host math",
                        fixed + layers["runtime.queue_wait_us"] > math);
      report_prediction(log,
                        "runtime.* without queue wait (submit + dispatch "
                        "overhead) + core.plan_us outweigh host math",
                        fixed > math);
      report_prediction(log,
                        "runtime.* without queue wait + core.plan_us "
                        "outweigh the whole engine call (sim timing, ABFT "
                        "and host math)",
                        fixed > layers["core.execute_us"]);
      break;
    }
    case WorkloadId::SweepTiming:
      report_prediction(log, "no functional work", t.functional_flops == 0);
      break;
  }
  for (const MetricSpec& spec : per_layer_metrics()) {
    metrics.push_back({spec.name, layers[spec.name], spec.unit});
  }
  return passes;
}

}  // namespace

double setup_seconds(const RunOptions& opt) {
  std::unique_ptr<Workload> w = make_workload(opt);
  const auto t0 = Clock::now();
  w->setup();
  return us_between(t0, Clock::now()) * 1e-6;
}

RunResult run(const RunOptions& opt, std::FILE* log) {
  RunResult out;
  // Set-up is timed in fresh processes: in this one, the allocator's state
  // after input generation would make a set-up warmer than any a user sees.
  std::vector<double> setup_s;
  for (int s = 0; !opt.trace && s < kSetups; ++s) {
    const std::optional<double> t = fresh_process_setup_seconds(opt);
    if (!t) throw std::runtime_error("set-up in a fresh process failed");
    setup_s.push_back(*t);
  }

  std::unique_ptr<Workload> w = make_workload(opt);
  w->setup();
  const std::vector<Meter> passes =
      opt.trace ? run_traced(*w, opt, log, out.metrics)
                : std::vector<Meter>{measure(*w, opt.seconds, nullptr)};
  for (const Meter& m : passes) {
    out.attempted += m.attempted;
    out.failed += m.failed;
  }
  if (w->nondeterministic() > 0) {
    std::fprintf(log,
                 "# DETERMINISM FAILURE: %llu op runs changed simulated "
                 "cycles between repetitions\n",
                 static_cast<unsigned long long>(w->nondeterministic()));
  }
  out.correct =
      out.failed == 0 && w->nondeterministic() == 0 && out.attempted > 0;

  const Meter& m = passes.front();
  const Tail tail = tail_percentile(m.latency_us);
  const double error_rate =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0;
  std::fprintf(log,
               "# %s seed %llu: %llu ops attempted, %llu failed, error_rate "
               "%g; %zu of %zu listed ops observed\n",
               to_string(opt.workload),
               static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed), error_rate,
               w->observed_ops(), w->ops().size());
  std::fprintf(log,
               "# latency: %zu samples; p50 %.1f us; tail p%g %.1f us\n",
               tail.samples, median(m.latency_us), tail.pct, tail.value);
  if (!opt.trace) {
    std::fprintf(log, "# setup in fresh processes:");
    for (const double x : setup_s) std::fprintf(log, " %.4f", x);
    std::fprintf(log, " s\n");
    const std::vector<double> e2e = {
        median(setup_s), m.ops_per_s(),    median(m.latency_us),
        m.host_gflops(), w->sim_gflops(), peak_rss_mb(),
    };
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const MetricSpec& spec = end_to_end_metrics()[i];
      out.metrics.push_back({spec.name, e2e[i], spec.unit});
    }
  }
  for (const Metric& x : out.metrics) {
    std::fprintf(log, "# %-34s %14.6g %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  }
  return out;
}

}  // namespace perfbench
