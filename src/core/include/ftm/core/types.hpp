// Public types of the ftIMM core API.
#pragma once

#include <cstdint>
#include <string>

#include "ftm/kernelgen/spec.hpp"
#include "ftm/util/matrix.hpp"

namespace ftm {
class TaskPool;  // util/task_pool.hpp
}

namespace ftm::core {

/// Which multi-core algorithm executes a GEMM.
enum class Strategy {
  Auto,       ///< dispatcher decides from the shape (§IV-C)
  TGemm,      ///< Algorithm 1 baseline (N-dimension parallel, fixed blocks)
  ParallelM,  ///< Algorithm 4 (M-dimension parallel, B panel in GSM)
  ParallelK,  ///< Algorithm 5 (K-dimension parallel, GSM reduction)
};

const char* to_string(Strategy s);

/// How much ABFT checksum protection a GEMM call gets (src/abft/,
/// docs/robustness.md). Ordered by strength so policies can be merged
/// with std::max: a request may strengthen but never weaken the
/// runtime's per-priority-class floor.
enum class IntegrityMode {
  Off,            ///< no checksums; bit/cycle-identical to pre-ABFT builds
  Verify,         ///< verify checksums at store; any mismatch escalates
  VerifyCorrect,  ///< verify + repair single-element errors in place
};

const char* to_string(IntegrityMode m);

/// ABFT policy knobs carried on FtimmOptions (and merged per QoS class by
/// the runtime).
struct IntegrityOptions {
  IntegrityMode mode = IntegrityMode::Off;
  /// Multiplies the norm-scaled checksum tolerance (1.0 = calibrated
  /// default); raise it for data with pathological dynamic range.
  double tolerance_scale = 1.0;
};

/// One GEMM invocation: C += A * B. Views may be empty when the engine
/// runs in timing-only mode (huge sweeps where only cycles matter).
struct GemmInput {
  std::size_t m = 0, n = 0, k = 0;
  ConstMatrixView a;  ///< M x K
  ConstMatrixView b;  ///< K x N
  MatrixView c;       ///< M x N

  static GemmInput shape_only(std::size_t m, std::size_t n, std::size_t k) {
    GemmInput in;
    in.m = m;
    in.n = n;
    in.k = k;
    return in;
  }
  static GemmInput bound(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
    GemmInput in;
    in.m = a.rows();
    in.n = b.cols();
    in.k = a.cols();
    in.a = a;
    in.b = b;
    in.c = c;
    FTM_EXPECTS(b.rows() == in.k && c.rows() == in.m && c.cols() == in.n);
    return in;
  }
  double flops() const { return 2.0 * m * n * k; }
};

/// Execution controls. The ablation switches exist so benchmarks can
/// quantify each design ingredient (DESIGN.md §5).
struct FtimmOptions {
  int cores = 8;               ///< active DSP cores (1..8)
  bool functional = true;      ///< move real data; false = timing only
  Strategy force = Strategy::Auto;
  bool dynamic_blocks = true;  ///< apply §IV-C adjustment (ablation)
  bool pingpong = true;        ///< DMA/compute overlap (ablation)
  /// When > 0, DDR/GSM bandwidth is shared among this many cores instead
  /// of the run's own worker count — used by the batched scheduler, where
  /// other cores run *other* GEMMs concurrently.
  int bandwidth_share = 0;
  /// K-strategy reduction: false = serial accumulation on core 0 (the
  /// paper's scheme, cost linear in cores); true = pairwise tree across
  /// cores (log2(cores) rounds) — an extension/ablation.
  bool tree_reduction = false;
  /// Batched/runtime scheduling: flops at or above which one problem
  /// occupies a whole cluster (and may be sharded across clusters) instead
  /// of sharing it with other problems of the batch. Must be > 0.
  double wide_problem_flops = 256.0 * 1024 * 1024;
  /// Host execution engine (docs/performance.md): when set, functional
  /// work (micro-kernel math, DMA byte copies) of different simulated
  /// cores runs on this pool's threads between barrier points. Purely a
  /// host-speed knob: simulated cycles and the C output are bit-identical
  /// for any pool size, nullptr included (then everything runs inline on
  /// the calling thread, exactly the pre-engine behavior). Non-owning;
  /// must outlive the call. The runtime injects its own pool here.
  TaskPool* host_pool = nullptr;
  /// ABFT checksum verification (src/abft/). Off by default: the
  /// verify-off path performs no checksum work and charges no cycles.
  IntegrityOptions integrity;
  /// Compute precision. F32 is the paper's path. F16/BF16 route sgemm()
  /// through the mixed-precision engine (hgemm.hpp): FP32 views in DDR,
  /// operands packed to halves on the host (outside the simulated cost,
  /// inside host_wall_us), FP32 accumulation on the DSP. F64 callers use dgemm() directly; the
  /// FP32-view entry points (plan, sgemm, the runtime) reject F64.
  kernelgen::DType dtype = kernelgen::DType::F32;
};

/// What a simulated GEMM cost.
struct GemmResult {
  std::uint64_t cycles = 0;
  double seconds = 0;
  double gflops = 0;
  double efficiency = 0;  ///< gflops / (cores * per-core peak)
  Strategy strategy = Strategy::Auto;
  int cores = 0;
  std::uint64_t ddr_bytes = 0;     ///< DDR traffic (both directions)
  std::uint64_t kernel_calls = 0;  ///< micro-kernel invocations
  /// Host wall-clock of this call in microseconds (timing + functional
  /// work). Unlike every field above it is *not* deterministic — it is
  /// the observability hook for the host execution engine's speedup.
  double host_wall_us = 0;
  /// True when the runtime's resilience layer gave up on the DSP clusters
  /// and computed C on the host CPU: C is correct (to gemm_tolerance(k),
  /// the accumulation order differs) but the cycle fields are zero — the
  /// host is outside the simulated cycle model.
  bool cpu_fallback = false;
  /// ABFT integrity accounting (all zero when integrity.mode == Off).
  std::uint64_t checksum_checks = 0;  ///< row+col checksum comparisons
  std::uint64_t sdc_detected = 0;     ///< checksum mismatches observed
  std::uint64_t sdc_corrected = 0;    ///< elements repaired in place
  /// Simulated cycles charged for the checksum FLOPs/DMA; already
  /// included in `cycles`.
  std::uint64_t checksum_cycles = 0;
  /// Compute precision this result was produced with.
  kernelgen::DType dtype = kernelgen::DType::F32;
};

}  // namespace ftm::core
