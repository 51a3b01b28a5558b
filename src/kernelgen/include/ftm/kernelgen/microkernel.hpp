// MicroKernel: a generated program plus its measured cost, and the kernel
// cache that memoizes generation per shape (ftIMM generates kernels on
// demand for whatever block sizes the dynamic adjuster picks).
//
// Each kernel is calibrated once by running the generated VLIW code on the
// detailed core model (register scoreboard, stalls, branch delay slots).
// Because a kernel's cycle count is independent of its operand values and
// its shape is baked into the program, that single measurement is exact for
// every subsequent call — so GEMM strategies use `run_fast`, which performs
// numerically identical host math (same fmaf order, same accumulator banks)
// and charges the calibrated cycles. Tests assert detailed and fast paths
// agree bit-for-bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/generator.hpp"
#include "ftm/kernelgen/spec.hpp"
#include "ftm/sim/core.hpp"

namespace ftm::kernelgen {

class MicroKernel {
 public:
  MicroKernel(const KernelSpec& spec, const isa::MachineConfig& mc);

  const KernelSpec& spec() const { return spec_; }
  const Tiling& tiling() const { return tiling_; }
  const isa::Program& program() const { return prog_; }

  /// Calibrated per-call cost (detailed simulation).
  std::uint64_t cycles() const { return calib_.cycles; }
  const sim::ExecResult& calibration() const { return calib_; }

  /// Useful-flops efficiency against the core's peak: the Fig. 3 metric.
  double efficiency() const;

  /// Executes the generated program on `core`'s detailed model. Operands
  /// must already sit at the given byte offsets (A in SM, B/C in AM, with
  /// B/C rows padded to vn*32 floats).
  sim::ExecResult run_detailed(sim::DspCore& core, std::size_t a_off,
                               std::size_t b_off, std::size_t c_off) const;

  /// Fast path: identical math on raw pointers (lda = ka elements, ldb =
  /// ldc = vn*lanes elements); returns the calibrated cycle cost. F32
  /// kernels only.
  std::uint64_t run_fast(const float* a, const float* b, float* c) const;

  /// FP64 fast path (extension kernels).
  std::uint64_t run_fast_f64(const double* a, const double* b,
                             double* c) const;

  /// FP16/BF16 fast path. `a` is row-major halves (row pitch = ka, even-
  /// padded), `b` is the pair-interleaved AM panel (kpairs rows of vn*32
  /// words; word = lo half for even k | hi half for odd k << 16), `c` is
  /// FP32 with the usual vn*32 row pitch. Same dot2 order as VFMULAH32 on
  /// the detailed core, so the two paths agree bit-for-bit.
  std::uint64_t run_fast_half(const std::uint16_t* a, const std::uint32_t* b,
                              float* c) const;

  /// Timing-only: the calibrated cycles without touching data.
  std::uint64_t cost_only() const { return calib_.cycles; }

 private:
  KernelSpec spec_;
  isa::MachineConfig mc_;
  Tiling tiling_;
  isa::Program prog_;
  sim::ExecResult calib_;
};

/// Memoizes MicroKernel instances per (ms, ka, na, load_c, dtype).
/// Thread-safe: one cache may be shared by engines driving different
/// clusters from different threads (kernels are immutable once built, so
/// only the map itself needs the lock; a kernel's first generation +
/// calibration happens under it, exactly once per spec per cache). The GEMM
/// loop nests look each spec up here once per run (RunCtx::kernel_for), so
/// hits() counts distinct specs per run, not kernel calls.
class KernelCache {
 public:
  explicit KernelCache(const isa::MachineConfig& mc = isa::default_machine());

  const MicroKernel& get(const KernelSpec& spec);

  std::size_t generated() const;
  std::size_t hits() const;

 private:
  using Key = std::tuple<int, int, int, bool, int>;
  isa::MachineConfig mc_;
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<MicroKernel>> cache_;
  std::size_t generated_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace ftm::kernelgen
