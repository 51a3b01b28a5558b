#include "ftm/core/ftimm.hpp"

#include <cmath>
#include <optional>

#include "ftm/abft/abft.hpp"
#include "ftm/core/hgemm.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::core {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::Auto: return "auto";
    case Strategy::TGemm: return "tgemm";
    case Strategy::ParallelM: return "ftimm-M";
    case Strategy::ParallelK: return "ftimm-K";
  }
  return "?";
}

const char* to_string(IntegrityMode m) {
  switch (m) {
    case IntegrityMode::Off: return "off";
    case IntegrityMode::Verify: return "verify";
    case IntegrityMode::VerifyCorrect: return "verify+correct";
  }
  return "?";
}

FtimmEngine::FtimmEngine(const isa::MachineConfig& mc)
    : FtimmEngine(mc, std::make_shared<kernelgen::KernelCache>(mc)) {}

FtimmEngine::FtimmEngine(const isa::MachineConfig& mc,
                         std::shared_ptr<kernelgen::KernelCache> kernels)
    : mc_(mc),
      cluster_(mc),
      cache_(std::move(kernels)),
      mblocks0_(initial_m_blocks(mc)),
      kblocks0_(initial_k_blocks(mc)) {
  FTM_EXPECTS(cache_ != nullptr);
}

Strategy FtimmEngine::choose_strategy(std::size_t m, std::size_t n,
                                      std::size_t k) const {
  // §IV-C: with N <= n_a and M sufficiently large, parallelize over M
  // (covers the tall-x-small and regular-x-tall-skinny cases). With small
  // M but large K, parallelize over K with the GSM reduction. Shapes with
  // wide N stay on the traditional path, which parallelizes over N.
  if (n > 96) return Strategy::TGemm;
  const std::size_t cores = static_cast<std::size_t>(mc_.cores_per_cluster);
  const std::size_t m_needed = cores * 6;  // at least one m_s>=6 slice/core
  if (m >= m_needed && m >= k / 8) return Strategy::ParallelM;
  if (k > m && k >= cores * 32) return Strategy::ParallelK;
  return Strategy::ParallelM;
}

MBlocks FtimmEngine::m_blocks_for(std::size_t m, std::size_t n,
                                  std::size_t k, bool dynamic,
                                  int cores) const {
  return dynamic ? adjust_m_blocks(mblocks0_, m, n, k, mc_, cores)
                 : mblocks0_;
}

KBlocks FtimmEngine::k_blocks_for(std::size_t m, std::size_t n,
                                  std::size_t k, bool dynamic,
                                  int cores) const {
  return dynamic ? adjust_k_blocks(kblocks0_, m, n, k, mc_, cores)
                 : kblocks0_;
}

GemmPlan FtimmEngine::plan(std::size_t m, std::size_t n, std::size_t k,
                           const FtimmOptions& opt) const {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_EXPECTS(opt.cores >= 1 && opt.cores <= mc_.cores_per_cluster);
  FTM_EXPECTS(opt.dtype != kernelgen::DType::F64);  // FP64: use dgemm()
  // Tuned plans only replace the fully automatic path: a forced strategy
  // or pinned (non-dynamic) blocks is an explicit caller decision.
  if (provider_ != nullptr && opt.force == Strategy::Auto &&
      opt.dynamic_blocks) {
    if (auto tuned = provider_->lookup(m, n, k, opt)) {
      FTM_TRACE_COUNTER("plan.tuned", 1);
      FTM_TRACE_COUNTER("plan.built", 1);
      return *tuned;
    }
  }
  GemmPlan p;
  p.strategy = opt.force;
  if (p.strategy == Strategy::Auto) p.strategy = choose_strategy(m, n, k);
  p.cores = opt.cores;
  switch (p.strategy) {
    case Strategy::ParallelM:
      p.mblocks = m_blocks_for(m, n, k, opt.dynamic_blocks, opt.cores);
      break;
    case Strategy::ParallelK:
      p.kblocks = k_blocks_for(m, n, k, opt.dynamic_blocks, opt.cores);
      break;
    case Strategy::TGemm:
      p.tblocks = tblocks_;
      break;
    case Strategy::Auto:
      FTM_ASSERT(false);
  }
  FTM_TRACE_COUNTER("plan.built", 1);
  return p;
}

namespace {

/// Simulated cycles the Huang–Abraham checksum scheme costs: the extra
/// FLOPs charged at per-core peak across the run's active cores, plus one
/// DMA-cost charge for the checksum rows/columns riding the panel
/// transfers. A pure cycle-model addend — no data moves here.
std::uint64_t checksum_cost_cycles(const isa::MachineConfig& mc,
                                   const GemmInput& in, int cores) {
  const double flops_per_cycle =
      static_cast<double>(mc.peak_flops_per_cycle()) *
      static_cast<double>(cores);
  const auto flop_cycles = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(abft::checksum_flops(in.m, in.n, in.k)) /
                flops_per_cycle));
  sim::DmaRequest req;
  req.route = sim::DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes =
      static_cast<std::size_t>(abft::checksum_bytes(in.m, in.n, in.k));
  return flop_cycles + sim::dma_cost_cycles(mc, req, cores);
}

}  // namespace

GemmResult FtimmEngine::sgemm_planned(const GemmInput& in,
                                      const GemmPlan& plan,
                                      const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(opt.cores >= 1 && opt.cores <= mc_.cores_per_cluster);
  // FP32 views cannot carry FP64 data: FP64 callers use dgemm().
  FTM_EXPECTS(opt.dtype != kernelgen::DType::F64);
  // A tuned DMA buffering depth travels with the plan and overrides the
  // caller's ping-pong setting (0 = plan has no opinion).
  FtimmOptions eff = opt;
  if (plan.dma_buffers > 0) eff.pingpong = plan.dma_buffers >= 2;

  // Mixed precision (docs/precision.md): F16/BF16 requests run hgemm_f32,
  // which adjusts its own half-format blocks (2-byte operands change every
  // footprint) — the FP32 plan does not apply.
  if (kernelgen::is_half(eff.dtype)) return hgemm_f32(*this, in, eff);

  // ABFT (ISSUE 8, docs/robustness.md): capture the checksum expectations
  // before the strategy mutates C. Timing-only runs have no data to
  // protect but still pay the modeled checksum cycles, so the overhead is
  // visible in cycle sweeps. The Off path must not touch the abft layer
  // at all — it stays byte- and cycle-identical to a pre-ABFT build.
  const bool protect = eff.integrity.mode != IntegrityMode::Off;
  std::optional<abft::Checker> checker;
  if (protect && eff.functional && in.c.data() != nullptr) {
    checker.emplace(in.a, in.b, in.c, eff.integrity.tolerance_scale);
  }

  GemmResult r;
  switch (plan.strategy) {
    case Strategy::ParallelM:
      r = run_strategy_m(cluster_, *cache_, in, plan.mblocks, eff);
      break;
    case Strategy::ParallelK:
      r = run_strategy_k(cluster_, *cache_, in, plan.kblocks, eff);
      break;
    case Strategy::TGemm:
      r = run_tgemm(cluster_, *cache_, in, plan.tblocks, eff);
      break;
    case Strategy::Auto:
      FTM_ASSERT(false);
      return {};
  }
  if (!protect) return r;

  if (checker) {
    // Throws IntegrityError when the damage exceeds in-place repair; the
    // runtime's resilience path recomputes (C is unspecified until then).
    const abft::VerifyStats vs = checker->verify(
        in.c, eff.integrity.mode == IntegrityMode::VerifyCorrect,
        cluster_.id());
    r.checksum_checks = static_cast<std::uint64_t>(vs.checks);
    r.sdc_detected = static_cast<std::uint64_t>(vs.detected);
    r.sdc_corrected = static_cast<std::uint64_t>(vs.corrected);
    FTM_TRACE_COUNTER("integrity.checks", r.checksum_checks);
    if (r.sdc_detected > 0) {
      FTM_TRACE_COUNTER("integrity.detected", r.sdc_detected);
    }
    if (r.sdc_corrected > 0) {
      FTM_TRACE_COUNTER("integrity.corrected", r.sdc_corrected);
    }
  }
  r.checksum_cycles = checksum_cost_cycles(mc_, in, r.cores);
  r.cycles += r.checksum_cycles;
  r.seconds = cluster_.cycles_to_seconds(r.cycles);
  r.gflops = cluster_.gflops(in.flops(), r.cycles);
  const double peak = mc_.core_peak_gflops() * static_cast<double>(r.cores);
  r.efficiency = peak > 0 ? r.gflops / peak : 0.0;
  FTM_TRACE_COUNTER("integrity.cycles", r.checksum_cycles);
  return r;
}

GemmResult FtimmEngine::sgemm(const GemmInput& in, const FtimmOptions& opt) {
  return sgemm_planned(in, plan(in.m, in.n, in.k, opt), opt);
}

GemmResult FtimmEngine::tgemm(const GemmInput& in, const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  return run_tgemm(cluster_, *cache_, in, tblocks_, opt);
}

}  // namespace ftm::core
