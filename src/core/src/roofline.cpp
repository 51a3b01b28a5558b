#include "ftm/core/roofline.hpp"

#include <algorithm>

namespace ftm::core {

double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k) {
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return 4.0 * (dm * dk + dk * dn + 2.0 * dm * dn);
}

double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / min_ddr_bytes(m, n, k);
}

double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc) {
  const double peak = mc.core_peak_gflops() * cores;
  const double bw_bound =
      arithmetic_intensity(m, n, k) * mc.ddr_bytes_per_sec / 1e9;
  return std::min(peak, bw_bound);
}

double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k,
                     kernelgen::DType dtype) {
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const auto ab = static_cast<double>(kernelgen::elem_bytes(dtype));
  // C reads+writes at accumulator width: FP32 for everything but F64.
  const auto cb = static_cast<double>(kernelgen::acc_bytes(dtype));
  return ab * (dm * dk + dk * dn) + cb * 2.0 * dm * dn;
}

double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k,
                            kernelgen::DType dtype) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / min_ddr_bytes(m, n, k, dtype);
}

double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc,
                       kernelgen::DType dtype) {
  const double peak =
      mc.core_peak_gflops() * cores * kernelgen::peak_scale(dtype);
  const double bw_bound =
      arithmetic_intensity(m, n, k, dtype) * mc.ddr_bytes_per_sec / 1e9;
  return std::min(peak, bw_bound);
}

}  // namespace ftm::core
