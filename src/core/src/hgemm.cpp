#include "ftm/core/hgemm.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "ftm/kernelgen/hostsimd.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

void pack_a_half(ConstMatrixView a, std::size_t kp, std::uint16_t* out,
                 kernelgen::DType dtype) {
  FTM_EXPECTS(out != nullptr && kp >= a.cols());
  FTM_EXPECTS(kernelgen::is_half(dtype));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::uint16_t* orow = out + r * kp;
    kernelgen::hostsimd::narrow_half(a.row(r), orow, a.cols(), dtype);
    std::fill(orow + a.cols(), orow + kp, std::uint16_t{0});
  }
}

void pack_b_half(ConstMatrixView b, std::size_t kp, std::uint32_t* out,
                 kernelgen::DType dtype) {
  FTM_EXPECTS(out != nullptr && kp >= b.rows() && kp % 2 == 0);
  FTM_EXPECTS(kernelgen::is_half(dtype));
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  // Rows k0 = 2p and k1 = 2p + 1 are narrowed into lo/hi, then interleaved
  // into pair words; an odd K's last pair has a zero high half.
  std::vector<std::uint16_t> lo(n), hi(n);
  const std::size_t pairs = (k + 1) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    kernelgen::hostsimd::narrow_half(b.row(2 * p), lo.data(), n, dtype);
    if (2 * p + 1 < k) {
      kernelgen::hostsimd::narrow_half(b.row(2 * p + 1), hi.data(), n, dtype);
    } else {
      std::fill(hi.begin(), hi.end(), std::uint16_t{0});
    }
    std::uint32_t* orow = out + p * n;
    for (std::size_t j = 0; j < n; ++j) {
      orow[j] = lo[j] | (std::uint32_t{hi[j]} << 16);
    }
  }
  std::fill(out + pairs * n, out + (kp / 2) * n, std::uint32_t{0});
}

GemmResult hgemm(FtimmEngine& engine, const HGemmInput& in,
                 const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 4);
  FTM_EXPECTS(in.n <= 96);
  FTM_EXPECTS(in.k % 4 == 0);  // every K tile keeps >= 2 k-pairs
  FTM_EXPECTS(kernelgen::is_half(in.dtype));
  FTM_EXPECTS(opt.cores >= 1 &&
              opt.cores <= engine.machine().cores_per_cluster);
  if (opt.functional) {
    FTM_EXPECTS(in.a != nullptr && in.b != nullptr && in.c != nullptr);
  }
  const isa::MachineConfig& mc = engine.machine();
  const MBlocks mb = adjust_m_blocks(initial_m_blocks(mc, in.dtype), in.m,
                                     in.n, in.k, mc, opt.cores, in.dtype);
  detail::MOperands ops;
  ops.m = in.m;
  ops.n = in.n;
  ops.k = in.k;
  ops.dtype = in.dtype;
  ops.a = in.a;
  ops.b = in.b;
  ops.c = in.c;
  ops.lda = in.lda;
  ops.ldb = in.ldb;
  ops.ldc = in.ldc;
  return detail::run_strategy_m(engine.cluster(), engine.kernels(), ops, mb,
                                opt);
}

GemmResult hgemm_f32(FtimmEngine& engine, const GemmInput& in,
                     const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(kernelgen::is_half(opt.dtype));
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t kp = std::max<std::size_t>(4, (in.k + 3) / 4 * 4);
  const std::size_t panel = std::min<std::size_t>(96, in.n);

  // Host-side rounding + packing: outside the simulated cost (half
  // operands are packed once and reused across calls in deployment), but
  // inside host_wall_us, which times the whole call. pack_*_half write
  // every element, so the buffers are not value-initialised.
  std::unique_ptr<std::uint16_t[]> ah;
  std::unique_ptr<std::uint32_t[]> bp;
  if (opt.functional) {
    FTM_EXPECTS(in.a.data() != nullptr && in.b.data() != nullptr &&
                in.c.data() != nullptr);
    ah = std::make_unique_for_overwrite<std::uint16_t[]>(in.m * kp);
    bp = std::make_unique_for_overwrite<std::uint32_t[]>((kp / 2) * panel);
    pack_a_half(in.a, kp, ah.get(), opt.dtype);
  }

  // Wide N runs as sequential column panels of the AM-pitch width (96):
  // each panel is one hgemm pass over the full M x K, and the panels
  // serialize on the one simulated cluster, so cycles add.
  GemmResult r;
  for (std::size_t j0 = 0; j0 < in.n; j0 += panel) {
    const std::size_t nw = std::min(panel, in.n - j0);
    HGemmInput hin;
    hin.m = in.m;
    hin.n = nw;
    hin.k = kp;
    hin.dtype = opt.dtype;
    if (opt.functional) {
      pack_b_half(in.b.block(0, j0, in.k, nw), kp, bp.get(), opt.dtype);
      hin.a = ah.get();
      hin.b = bp.get();
      hin.c = in.c.data() + j0;
      hin.lda = kp;
      hin.ldb = nw;
      hin.ldc = in.c.ld();
    }
    const GemmResult pr = hgemm(engine, hin, opt);
    r.cycles += pr.cycles;
    r.ddr_bytes += pr.ddr_bytes;
    r.kernel_calls += pr.kernel_calls;
    r.strategy = pr.strategy;
    r.dtype = pr.dtype;
    r.cores = pr.cores;
  }
  // Zero-padded K adds no useful flops; report rates for the true shape.
  r.seconds = engine.cluster().cycles_to_seconds(r.cycles);
  r.gflops = engine.cluster().gflops(in.flops(), r.cycles);
  const double peak = engine.machine().core_peak_gflops() *
                      kernelgen::peak_scale(opt.dtype) *
                      static_cast<double>(opt.cores);
  r.efficiency = peak > 0 ? r.gflops / peak : 0.0;
  r.host_wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

}  // namespace ftm::core
