#include "ftm/kernelgen/microkernel.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "ftm/kernelgen/hostsimd.hpp"

namespace ftm::kernelgen {

namespace {

// Reusable accumulator-bank scratch: run_fast is the hottest function of
// functional simulation and used to pay a heap allocation per call. One
// buffer per host thread also keeps the parallel execution engine
// (core::HostExecEngine) allocation-free and race-free.
template <class T>
T* scratch(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// The hostsimd primitive for each element type.
void fmadd(float* acc, float a, const float* x, std::size_t n) {
  hostsimd::fmadd_f32(acc, a, x, n);
}
void fmadd(double* acc, double a, const double* x, std::size_t n) {
  hostsimd::fmadd_f64(acc, a, x, n);
}
void add(float* acc, const float* x, std::size_t n) {
  hostsimd::add_f32(acc, x, n);
}
void add(double* acc, const double* x, std::size_t n) {
  hostsimd::add_f64(acc, x, n);
}

// The F32/F64 fast path. Accumulator banks mirror the generated code:
// bank `kui` accumulates k = i*ku + kui, remainder step j lands in bank
// j % ku, and banks are reduced into bank 0 in ascending order — making
// this path bit-identical to the detailed simulation. The inner loops are
// elementwise over x, so the hostsimd primitives (AVX2/NEON fused ops,
// same IEEE rounding as std::fma) change nothing but speed.
template <class T>
void run_banked(const KernelSpec& spec, const Tiling& tiling, const T* a,
                const T* b, T* c) {
  const int ms = spec.ms;
  const int ka = spec.ka;
  const int ld = spec.am_row_elems();  // vn * lanes
  const int ku = tiling.ku;
  const int mu = tiling.mu;
  const int nk = ka / ku;
  const int krem = ka - nk * ku;
  const auto row_bytes = static_cast<std::size_t>(ld) * sizeof(T);

  T* banks = scratch<T>(static_cast<std::size_t>(ku) * ld);
  for (int mm = 0; mm < ms; mm += mu) {
    const int mu_t = std::min(mu, ms - mm);
    for (int r = 0; r < mu_t; ++r) {
      const int row = mm + r;
      T* bank0 = banks;
      if (spec.load_c) {
        std::memcpy(bank0, c + static_cast<std::size_t>(row) * ld, row_bytes);
      } else {
        std::memset(bank0, 0, row_bytes);
      }
      if (ku > 1) {
        std::memset(banks + ld, 0,
                    static_cast<std::size_t>(ku - 1) * row_bytes);
      }
      const T* arow = a + static_cast<std::size_t>(row) * ka;
      for (int i = 0; i < nk; ++i) {
        for (int kui = 0; kui < ku; ++kui) {
          const int k = i * ku + kui;
          fmadd(banks + static_cast<std::size_t>(kui) * ld, arow[k],
                b + static_cast<std::size_t>(k) * ld,
                static_cast<std::size_t>(ld));
        }
      }
      for (int j = 0; j < krem; ++j) {
        const int k = nk * ku + j;
        fmadd(banks + static_cast<std::size_t>(j % ku) * ld, arow[k],
              b + static_cast<std::size_t>(k) * ld,
              static_cast<std::size_t>(ld));
      }
      for (int kui = 1; kui < ku; ++kui) {
        add(bank0, banks + static_cast<std::size_t>(kui) * ld,
            static_cast<std::size_t>(ld));
      }
      std::memcpy(c + static_cast<std::size_t>(row) * ld, bank0, row_bytes);
    }
  }
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
  run_banked(spec_, tiling_, a, b, c);
  return calib_.cycles;
}

std::uint64_t MicroKernel::run_fast_f64(const double* a, const double* b,
                                        double* c) const {
  FTM_EXPECTS(spec_.dtype == DType::F64);
  run_banked(spec_, tiling_, a, b, c);
  return calib_.cycles;
}

std::uint64_t MicroKernel::run_fast_half(const std::uint16_t* a,
                                         const std::uint32_t* b,
                                         float* c) const {
  FTM_EXPECTS(is_half(spec_.dtype));
  const bool bf16 = spec_.dtype == DType::BF16;
  const int ms = spec_.ms;
  const int ka = spec_.ka;  // even-padded upstream (choose_tiling enforces)
  const int ld = spec_.am_row_elems();  // vn * 32 words / floats
  const int ku = tiling_.ku;            // counts k-pairs
  const int mu = tiling_.mu;
  const int kp = spec_.kpairs();
  const int nk = kp / ku;
  const int krem = kp - nk * ku;
  const auto dot2 = bf16 ? hostsimd::dot2_bf16 : hostsimd::dot2_f16;

  // Banks mirror the generated half code: bank `kui` accumulates the k-pair
  // p = i*ku + kui, the remainder pair j lands in bank j % ku, and banks
  // reduce into bank 0 ascending — bit-identical to the detailed core.
  float* banks = scratch<float>(static_cast<std::size_t>(ku) * ld);
  for (int mm = 0; mm < ms; mm += mu) {
    const int mu_t = std::min(mu, ms - mm);
    for (int r = 0; r < mu_t; ++r) {
      const int row = mm + r;
      float* bank0 = banks;
      if (spec_.load_c) {
        std::memcpy(bank0, c + static_cast<std::size_t>(row) * ld,
                    static_cast<std::size_t>(ld) * sizeof(float));
      } else {
        std::memset(bank0, 0, static_cast<std::size_t>(ld) * sizeof(float));
      }
      if (ku > 1) {
        std::memset(banks + ld, 0,
                    static_cast<std::size_t>(ku - 1) * ld * sizeof(float));
      }
      const std::uint16_t* arow = a + static_cast<std::size_t>(row) * ka;
      for (int i = 0; i < nk; ++i) {
        for (int kui = 0; kui < ku; ++kui) {
          const int p = i * ku + kui;
          const std::uint32_t* brow = b + static_cast<std::size_t>(p) * ld;
          dot2(banks + static_cast<std::size_t>(kui) * ld, arow[2 * p],
               arow[2 * p + 1], brow, static_cast<std::size_t>(ld));
        }
      }
      for (int j = 0; j < krem; ++j) {
        const int p = nk * ku + j;
        const std::uint32_t* brow = b + static_cast<std::size_t>(p) * ld;
        dot2(banks + static_cast<std::size_t>(j % ku) * ld, arow[2 * p],
             arow[2 * p + 1], brow, static_cast<std::size_t>(ld));
      }
      for (int kui = 1; kui < ku; ++kui) {
        hostsimd::add_f32(bank0, banks + static_cast<std::size_t>(kui) * ld,
                          static_cast<std::size_t>(ld));
      }
      std::memcpy(c + static_cast<std::size_t>(row) * ld, bank0,
                  static_cast<std::size_t>(ld) * sizeof(float));
    }
  }
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
