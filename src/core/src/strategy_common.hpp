// Internal helpers shared by the three GEMM strategy implementations.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "ftm/core/blocking.hpp"
#include "ftm/core/exec.hpp"
#include "ftm/core/types.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/cluster.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::core::detail {

/// Per-run bookkeeping: DDR traffic, kernel-call count, the run's kernels
/// (kernel_for), the ping-pong ablation (when disabled every DMA is awaited
/// immediately, removing all compute/transfer overlap), and the host
/// execution engine that defers functional work onto opt.host_pool (inline
/// when no pool is attached).
struct RunCtx {
  sim::Cluster& cl;
  kernelgen::KernelCache& cache;
  const FtimmOptions& opt;
  kernelgen::DType dtype;  ///< element type of the run's kernels
  bool fn;                 ///< functional (data-moving) mode
  HostExecEngine exec;
  std::uint64_t ddr_bytes = 0;
  std::uint64_t kernel_calls = 0;
  std::chrono::steady_clock::time_point wall_start_;

  /// Cached active session (nullptr = tracing off). Looked up once per
  /// GEMM; an active session outlives the call by contract.
  trace::TraceSession* trace_ = nullptr;

  /// kernel_for's per-run memo: each spec the run used, with its kernel.
  std::vector<std::pair<kernelgen::KernelSpec, const kernelgen::MicroKernel*>>
      kernels_;

  RunCtx(sim::Cluster& c, kernelgen::KernelCache& k, const FtimmOptions& o,
         kernelgen::DType dt = kernelgen::DType::F32)
      : cl(c),
        cache(k),
        opt(o),
        dtype(dt),
        fn(o.functional),
        exec(o.functional ? o.host_pool : nullptr,
             c.machine().cores_per_cluster),
        wall_start_(std::chrono::steady_clock::now()) {
    cl.reset();
    cl.set_functional(o.functional);
    cl.set_active_cores(o.cores);
#if FTM_TRACE_ENABLED
    trace_ = trace::TraceSession::current();
#endif
  }

  /// Cores that actually receive work. Idle cores issue no DMA, so they
  /// must not count toward the DDR bandwidth-sharing factor — this is what
  /// lets TGEMM's single working core (N <= 96) keep the full 42.6 GB/s.
  /// An explicit bandwidth_share (batched mode: other cores are busy with
  /// other GEMMs) overrides the worker count.
  void set_workers(std::size_t parallel_iterations) {
    int w = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(opt.cores),
        std::max<std::size_t>(1, parallel_iterations)));
    if (opt.bandwidth_share > 0) {
      w = std::min(opt.bandwidth_share, cl.machine().cores_per_cluster);
    }
    cl.set_active_cores(w);
  }

  /// The run's micro-kernel for `spec`. A loop nest uses only a few specs
  /// (full and remainder slices), so the shared KernelCache, with its
  /// mutex and map, is consulted once per distinct spec per run; every
  /// other call is a short scan of this run's own list.
  const kernelgen::MicroKernel& kernel_for(const kernelgen::KernelSpec& spec) {
    for (const auto& [s, uk] : kernels_) {
      if (s == spec) return *uk;
    }
    const kernelgen::MicroKernel& uk = cache.get(spec);
    kernels_.emplace_back(spec, &uk);
    return uk;
  }

  sim::DmaHandle dma(int core, const sim::DmaRequest& req,
                     const std::uint8_t* src, std::uint8_t* dst) {
    if (req.route == sim::DmaRoute::DdrToSpm ||
        req.route == sim::DmaRoute::SpmToDdr) {
      ddr_bytes += req.total_bytes();
    }
    // Timing is charged eagerly (and fault injection throws) before the
    // byte copy is even enqueued; the copy itself may run later on a host
    // pool thread, in order within this core's op queue.
    const sim::DmaHandle h = cl.dma_issue(core, req);
    if (fn) {
      FTM_EXPECTS(src != nullptr && dst != nullptr);
      exec.copy(core, req, src, dst);
      // Silent-corruption hook (C stores only): enqueued on the same
      // core queue right after the copy, so the flip lands on what DDR
      // holds after the transfer — an ECC escape on the store path.
      if (const auto sc = cl.store_corruption(core, req)) {
        exec.corrupt(core, req, dst, sc->word, sc->xor_mask);
      }
    }
    if (!opt.pingpong) cl.timeline(core).dma_wait(h);
    return h;
  }

  /// A DMA whose destination is read by *other* cores (the GSM panel
  /// loads): the copy runs inline after all outstanding per-core work is
  /// flushed, so no queued reader of the previous panel can observe the
  /// overwrite and no new reader can start before the bytes are there.
  sim::DmaHandle dma_shared(int core, const sim::DmaRequest& req,
                            const std::uint8_t* src, std::uint8_t* dst) {
    if (req.route == sim::DmaRoute::DdrToSpm ||
        req.route == sim::DmaRoute::SpmToDdr) {
      ddr_bytes += req.total_bytes();
    }
    const sim::DmaHandle h = cl.dma_issue(core, req);
    if (fn) {
      FTM_EXPECTS(src != nullptr && dst != nullptr);
      exec.serial_copy(req, src, dst);
      if (const auto sc = cl.store_corruption(core, req)) {
        sim::dma_corrupt(req, dst, sc->word, sc->xor_mask);
      }
    }
    if (!opt.pingpong) cl.timeline(core).dma_wait(h);
    return h;
  }

  /// Functional-side barrier: completes all deferred per-core work. Call
  /// wherever the algorithm synchronizes cores before they exchange data
  /// (the K-strategy staging/reduction rounds). No timing effect.
  void sync() { exec.flush(); }

  /// Synchronization point of the ping-pong scheme: blocks `core` until
  /// transfer `h` completes, recording the stall (if any) as a traced
  /// span — this is exactly the "overlap gap" the trace layer exists to
  /// expose.
  void wait(int core, sim::DmaHandle h) {
    auto& tl = cl.timeline(core);
#if FTM_TRACE_ENABLED
    if (trace_ != nullptr) {
      const std::uint64_t done = tl.done_time(h);
      if (done > tl.now()) {
        trace::Event e;
        e.name = "wait dma";
        e.cat = "stall";
        e.ts = cl.trace_epoch() + tl.now();
        e.dur = done - tl.now();
        e.cluster = cl.id();
        e.core = core;
        e.track = trace::TrackKind::Compute;
        trace_->record(e);
        trace_->count("stall.dma_wait_cycles", done - tl.now());
      }
    }
#endif
    tl.dma_wait(h);
  }

  /// Charge a micro-kernel execution on `core`'s timeline; defers the
  /// math onto `core`'s op queue in functional mode (operands typed by
  /// the kernel's dtype, see HostExecEngine::kernel). The charged cycles
  /// are the calibrated cost either way (run_fast returns cost_only()),
  /// so deferring the math cannot move a single simulated cycle.
  void kernel(int core, const kernelgen::MicroKernel& uk, const void* a,
              const void* b, void* c) {
    ++kernel_calls;
    const std::uint64_t cycles = uk.cost_only();
    if (fn) exec.kernel(core, uk, a, b, c);
#if FTM_TRACE_ENABLED
    if (trace_ != nullptr) {
      const sim::ExecResult& calib = uk.calibration();
      trace::Event e;
      e.name = "kernel";
      e.cat = "compute";
      e.ts = cl.trace_epoch() + cl.timeline(core).now();
      e.dur = cycles;
      e.cluster = cl.id();
      e.core = core;
      e.track = trace::TrackKind::Compute;
      e.arg("fmac_busy", calib.vfmac_ops);
      e.arg("stall_cycles", calib.stall_cycles);
      e.arg("flops", calib.flops);
      trace_->record(e);
      trace_->count("kernel.calls");
      trace_->count("kernel.cycles", cycles);
      trace_->count("kernel.stall_cycles", calib.stall_cycles);
    }
#endif
    cl.timeline(core).compute(cycles);
  }

  /// Phase spans (ping-pong C-tile rounds, the K-strategy reduction...):
  /// `t0 = phase_begin(core)` before, `phase_end(core, "name", t0)` after.
  /// Both collapse to nothing when tracing is off.
  std::uint64_t phase_begin(int core) const {
#if FTM_TRACE_ENABLED
    if (trace_ != nullptr) return cl.trace_epoch() + cl.timeline(core).now();
#endif
    (void)core;
    return 0;
  }

  void phase_end(int core, const char* name, std::uint64_t t0) {
#if FTM_TRACE_ENABLED
    if (trace_ != nullptr) {
      trace::Event e;
      e.name = name;
      e.cat = "phase";
      e.ts = t0;
      const std::uint64_t t1 = cl.trace_epoch() + cl.timeline(core).now();
      e.dur = t1 > t0 ? t1 - t0 : 0;
      e.cluster = cl.id();
      e.core = core;
      e.track = trace::TrackKind::Compute;
      trace_->record(e);
    }
#else
    (void)core;
    (void)name;
    (void)t0;
#endif
  }

  GemmResult finish(std::size_t m, std::size_t n, std::size_t k,
                    Strategy s) {
    exec.flush();  // C must be fully written before the caller reads it
    cl.barrier();
    GemmResult r;
    r.cycles = cl.max_time();
    r.seconds = cl.cycles_to_seconds(r.cycles);
    r.gflops = cl.gflops(2.0 * m * n * k, r.cycles);
    const double peak = cl.machine().core_peak_gflops() *
                        kernelgen::peak_scale(dtype) *
                        static_cast<double>(opt.cores);
    r.efficiency = peak > 0 ? r.gflops / peak : 0.0;
    r.strategy = s;
    r.cores = opt.cores;
    r.dtype = dtype;
    r.ddr_bytes = ddr_bytes;
    r.kernel_calls = kernel_calls;
    r.host_wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wall_start_)
            .count();
#if FTM_TRACE_ENABLED
    if (trace_ != nullptr) {
      trace::Event e;
      e.name = "gemm";
      e.cat = to_string(s);
      e.ts = cl.trace_epoch();
      e.dur = r.cycles;
      e.cluster = cl.id();
      e.track = trace::TrackKind::Cluster;
      e.arg("m", m);
      e.arg("n", n);
      e.arg("k", k);
      trace_->record(e);
      trace_->count("gemm.calls");
      trace_->count("gemm.cycles", r.cycles);
      // Once per loop-nest run, like gemm.calls: the enum value of every
      // non-FP32 run, so a pure-dtype trace reads dtype * gemm.calls.
      if (dtype != kernelgen::DType::F32) {
        trace_->count("kernel.dtype", static_cast<std::uint64_t>(dtype));
      }
      // Host-engine gauges, summed per GEMM (the registry is cumulative):
      // tier id of the SIMD dispatch and host threads a flush may use.
      trace_->count("host.simd_tier",
                    static_cast<std::uint64_t>(
                        kernelgen::hostsimd::active_tier()));
      trace_->count("host.pool_threads",
                    static_cast<std::uint64_t>(exec.parallelism()));
    }
#endif
    return r;
  }
};

/// The operands of one M-parallel GEMM, whatever the dtype: byte pointers
/// with leading dimensions in elements of each operand's stored type.
/// A holds elem_bytes(dtype) elements; a stored B row holds one word per
/// column covering k_per_b_row(dtype) k steps (the half formats pass their
/// pair-interleaved panel); C holds acc_bytes(dtype) accumulators. The
/// pointers may be null in timing-only runs.
struct MOperands {
  std::size_t m = 0, n = 0, k = 0;
  kernelgen::DType dtype = kernelgen::DType::F32;
  const void* a = nullptr;
  const void* b = nullptr;
  void* c = nullptr;
  std::size_t lda = 0, ldb = 0, ldc = 0;
};

/// Algorithm 4 for every dtype (strategy_m.cpp): the FP32 run_strategy_m,
/// dgemm and hgemm are thin entries into this one loop nest.
GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const MOperands& in, const MBlocks& mb,
                          const FtimmOptions& opt);

/// Round-robin ownership of parallel-loop iterations.
inline bool owns(int core, std::size_t iteration, int cores) {
  return static_cast<int>(iteration % static_cast<std::size_t>(cores)) ==
         core;
}

inline const std::uint8_t* host_src(ConstMatrixView v, std::size_t r,
                                    std::size_t c, bool fn) {
  if (!fn) return nullptr;
  return reinterpret_cast<const std::uint8_t*>(v.data() + r * v.ld() + c);
}

inline std::uint8_t* host_dst(MatrixView v, std::size_t r, std::size_t c,
                              bool fn) {
  if (!fn) return nullptr;
  return reinterpret_cast<std::uint8_t*>(v.data() + r * v.ld() + c);
}

}  // namespace ftm::core::detail
