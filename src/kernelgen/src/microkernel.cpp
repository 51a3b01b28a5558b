#include "ftm/kernelgen/microkernel.hpp"

#include "ftm/kernelgen/hostsimd.hpp"

namespace ftm::kernelgen {

namespace {

// The host replay's view of a kernel: rows, k steps (k pairs for the half
// formats), accumulator banks and row pitch.
hostsimd::ReplayShape replay_shape(const KernelSpec& spec,
                                   const Tiling& tiling) {
  hostsimd::ReplayShape s;
  s.rows = spec.ms;
  s.steps = is_half(spec.dtype) ? spec.kpairs() : spec.ka;
  s.ku = tiling.ku;
  s.ld = spec.am_row_elems();
  s.load_c = spec.load_c;
  return s;
}

}  // namespace

MicroKernel::MicroKernel(const KernelSpec& spec, const isa::MachineConfig& mc)
    : spec_(spec),
      mc_(mc),
      tiling_(choose_tiling(spec, mc)),
      prog_(generate_microkernel(spec, tiling_, mc)) {
  // One-time calibration on a scratch core. Cycle count is shape-dependent
  // only, so dummy (zero) operand data is sufficient.
  sim::DspCore core(mc);
  const sim::Region a = core.sm().alloc(spec.a_bytes());
  const sim::Region b = core.am().alloc(spec.b_bytes());
  const sim::Region c = core.am().alloc(spec.c_bytes());
  calib_ = run_detailed(core, a.offset, b.offset, c.offset);
}

double MicroKernel::efficiency() const {
  if (calib_.cycles == 0) return 0.0;
  const double useful = spec_.flops();
  const double peak_per_cycle =
      static_cast<double>(mc_.peak_flops_per_cycle()) *
      peak_scale(spec_.dtype);
  return useful / (static_cast<double>(calib_.cycles) * peak_per_cycle);
}

sim::ExecResult MicroKernel::run_detailed(sim::DspCore& core,
                                          std::size_t a_off,
                                          std::size_t b_off,
                                          std::size_t c_off) const {
  core.sregs().v[kRegABase] = a_off;
  core.sregs().v[kRegBBase] = b_off;
  core.sregs().v[kRegCBase] = c_off;
  return core.run(prog_);
}

std::uint64_t MicroKernel::run_fast(const float* a, const float* b,
                                    float* c) const {
  FTM_EXPECTS(spec_.dtype == DType::F32);
  hostsimd::replay_f32(a, b, c, replay_shape(spec_, tiling_));
  return calib_.cycles;
}

std::uint64_t MicroKernel::run_fast_f64(const double* a, const double* b,
                                        double* c) const {
  FTM_EXPECTS(spec_.dtype == DType::F64);
  hostsimd::replay_f64(a, b, c, replay_shape(spec_, tiling_));
  return calib_.cycles;
}

std::uint64_t MicroKernel::run_fast_half(const std::uint16_t* a,
                                         const std::uint32_t* b,
                                         float* c) const {
  FTM_EXPECTS(is_half(spec_.dtype));
  // ka is even-padded upstream (choose_tiling enforces), so A's row pitch
  // is two halves per k pair.
  const auto replay = spec_.dtype == DType::BF16 ? hostsimd::replay_bf16
                                                 : hostsimd::replay_f16;
  replay(a, b, c, replay_shape(spec_, tiling_));
  return calib_.cycles;
}

KernelCache::KernelCache(const isa::MachineConfig& mc) : mc_(mc) {}

const MicroKernel& KernelCache::get(const KernelSpec& spec) {
  const Key key{spec.ms, spec.ka, spec.na, spec.load_c,
                static_cast<int>(spec.dtype)};
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return *it->second;
  }
  ++generated_;
  auto kernel = std::make_unique<MicroKernel>(spec, mc_);
  const MicroKernel& ref = *kernel;
  cache_.emplace(key, std::move(kernel));
  return ref;
}

std::size_t KernelCache::generated() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return generated_;
}

std::size_t KernelCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

}  // namespace ftm::kernelgen
