// Micro-kernel experiments: Tables I-III (the generated pipelines), Fig. 3
// (micro-kernel efficiency), the FP64 kernel extension, and the detailed
// simulation vs the analytic initiation-interval bound.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "ftm/kernelgen/generator.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/workload/sweeps.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

/// Locates the loop body (bundles between the SBR target and the SBR) and
/// prints its unit occupancy for `columns` cycles, in the paper's layout
/// (rows = functional units, columns = cycles), plus per-unit utilization.
void print_pipeline(const kernelgen::KernelSpec& spec, int columns) {
  const auto& mc = isa::default_machine();
  const kernelgen::Tiling t = kernelgen::choose_tiling(spec, mc);
  const isa::Program p = kernelgen::generate_microkernel(spec, t, mc);

  std::size_t body_begin = 0, body_end = p.bundles.size();
  for (std::size_t i = 0; i < p.bundles.size(); ++i) {
    for (const auto& op : p.bundles[i].ops) {
      if (op.op == isa::Opcode::SBR) {
        body_begin = static_cast<std::size_t>(op.imm);
        body_end = i + mc.lat_sbr;  // branch + delay slots
      }
    }
  }
  const std::size_t body_len = body_end - body_begin;

  std::printf(
      "\nKernel %s  [regime=%s, mu=%d, ku=%d, II=%d, body=%zu cycles for %d "
      "unrolled iterations]\n",
      p.name.c_str(), to_string(kernelgen::regime_for(spec.na)), t.mu, t.ku,
      t.ii, body_len, std::max(2, (240 / std::max(t.ii, 1) + 1) & ~1));

  std::map<isa::Unit, std::vector<std::string>> rows;
  for (int u = 0; u < isa::kUnitCount; ++u)
    rows[static_cast<isa::Unit>(u)].assign(columns, ".");
  for (int c = 0; c < columns && body_begin + c < body_end; ++c) {
    for (const auto& op : p.bundles[body_begin + c].ops) {
      rows[op.unit][c] = isa::to_string(op.op);
    }
  }
  std::printf("%-10s", "Cycle");
  for (int c = 0; c < columns; ++c) std::printf("%-11d", c + 1);
  std::printf("\n");
  for (int u = 0; u < isa::kUnitCount; ++u) {
    const auto unit = static_cast<isa::Unit>(u);
    std::printf("%-10s", isa::to_string(unit));
    for (int c = 0; c < columns; ++c)
      std::printf("%-11s", rows[unit][c].c_str());
    std::printf("\n");
  }

  // Whole-body per-unit utilization.
  std::map<isa::Unit, int> counts;
  for (std::size_t i = body_begin; i < body_end; ++i)
    for (const auto& op : p.bundles[i].ops) counts[op.unit]++;
  std::printf("Unit utilization over the %zu-cycle body: ", body_len);
  for (const auto& [unit, n] : counts) {
    std::printf("%s=%.0f%% ", isa::to_string(unit),
                100.0 * n / static_cast<double>(body_len));
  }
  std::printf("\n");
}

}  // namespace

int tables(const Cli& cli) {
  const int cols = static_cast<int>(cli.get_int("columns", 12));

  print_banner("Table I: m_s >= t_fma, 64 < n_a <= 96 (wide regime)");
  print_pipeline({8, 512, 96}, cols);

  print_banner("Table II: m_s = 6, 32 < n_a <= 64 (medium regime)");
  print_pipeline({6, 512, 64}, cols);

  print_banner("Table III: m_s = 6, 0 < n_a <= 32 (narrow regime)");
  print_pipeline({6, 512, 32}, cols);

  if (cli.get_bool("disasm", false)) {
    print_banner("Full disassembly: ms=6, ka=32, na=96");
    const isa::Program p =
        kernelgen::generate_microkernel({6, 32, 96}, isa::default_machine());
    std::printf("%s\n", p.disassemble().c_str());
  }

  // Cross-check: the three kernels' measured utilization against the
  // paper's upper bounds (§IV-A3).
  Table t({"kernel", "regime", "measured util", "paper bound"});
  const auto& mc = isa::default_machine();
  for (const kernelgen::KernelSpec s :
       {kernelgen::KernelSpec{8, 512, 96}, kernelgen::KernelSpec{6, 512, 64},
        kernelgen::KernelSpec{6, 512, 32}}) {
    kernelgen::MicroKernel uk(s, mc);
    t.begin_row()
        .cell(uk.program().name)
        .cell(to_string(kernelgen::regime_for(s.na)))
        .cell(uk.calibration().fmac_utilization(mc), 3)
        .cell(kernelgen::upper_bound_utilization(s.na, mc), 3);
  }
  report(t, "FMAC utilization vs paper upper bound", "pipeline_tables.csv");
  return 0;
}

// Fig. 3, all six panels: (a) N=96, K=512 (b) N=64, K=512 (c) N=32, K=512
// (d) N=96, K=32 (e) N=64, K=32 (f) N=32, K=32, sweeping M (= m_s) on one
// simulated core: GFlops, efficiency against the 345.6 GFlops core peak,
// the analytic prediction, and the paper's §IV-A3 upper bound.
int fig3(const Cli&) {
  const auto& mc = isa::default_machine();
  kernelgen::KernelCache cache(mc);

  const char panel_name[] = {'a', 'b', 'c', 'd', 'e', 'f'};
  int panel = 0;
  Table all({"panel", "N", "K", "M", "cycles", "GFlops", "efficiency",
             "predicted", "upper bound", "stalls"});
  for (int k : workload::microkernel_k_values()) {
    for (int n : workload::microkernel_n_values()) {
      Table t({"M", "cycles", "GFlops", "efficiency", "predicted",
               "upper bound"});
      for (int m : workload::microkernel_m_values()) {
        const kernelgen::KernelSpec spec{m, k, n};
        const kernelgen::MicroKernel& uk = cache.get(spec);
        const double secs =
            static_cast<double>(uk.cycles()) / (mc.freq_ghz * 1e9);
        const double gflops = spec.flops() / secs / 1e9;
        const double predicted =
            kernelgen::predicted_utilization(spec, uk.tiling(), mc);
        const double bound = kernelgen::upper_bound_utilization(n, mc);
        t.begin_row()
            .cell(static_cast<long long>(m))
            .cell(static_cast<std::size_t>(uk.cycles()))
            .cell(gflops, 1)
            .cell(uk.efficiency(), 3)
            .cell(predicted, 3)
            .cell(bound, 3);
        all.begin_row()
            .cell(std::string(1, panel_name[panel]))
            .cell(static_cast<long long>(n))
            .cell(static_cast<long long>(k))
            .cell(static_cast<long long>(m))
            .cell(static_cast<std::size_t>(uk.cycles()))
            .cell(gflops, 1)
            .cell(uk.efficiency(), 3)
            .cell(predicted, 3)
            .cell(bound, 3)
            .cell(static_cast<std::size_t>(uk.calibration().stall_cycles));
      }
      char title[128];
      std::snprintf(title, sizeof(title),
                    "Fig. 3(%c): micro-kernel performance, N=%d, K=%d",
                    panel_name[panel], n, k);
      t.print(title);
      ++panel;
    }
  }
  std::printf("Kernels generated: %zu (cache hits %zu)\n", cache.generated(),
              cache.hits());
  save(all, result_path("fig3_microkernel.csv"));
  return 0;
}

// FP64 micro-kernels (extension). The VPE register file holds 16 FP64
// lanes and the SPU broadcast path carries one 64-bit scalar per cycle, so
// the broadcast-bandwidth wall of §IV-A3 moves: the bound is vn/3 (33% for
// N<=16, 67% for N<=32, ~100% for 33<=N<=48). Same grid as Fig. 3, with
// the FP32 kernel of the same vector count alongside.
int fp64(const Cli&) {
  const auto& mc = isa::default_machine();
  kernelgen::KernelCache cache(mc);

  Table t({"M", "N(f64)", "K", "f64 GFlops", "f64 eff", "f64 bound",
           "f32 eff @2N", "f32 bound"});
  for (int k : {512, 32}) {
    for (int n : {48, 32, 16, 8}) {
      for (int m : {2, 4, 6, 8, 12}) {
        kernelgen::KernelSpec s64{m, k, n};
        s64.dtype = kernelgen::DType::F64;
        const auto& uk64 = cache.get(s64);
        // The comparable FP32 kernel covers the same vector count: 2N.
        kernelgen::KernelSpec s32{m, k, 2 * n};
        const auto& uk32 = cache.get(s32);
        const double secs =
            static_cast<double>(uk64.cycles()) / (mc.freq_ghz * 1e9);
        t.begin_row()
            .cell(static_cast<long long>(m))
            .cell(static_cast<long long>(n))
            .cell(static_cast<long long>(k))
            .cell(s64.flops() / secs / 1e9, 1)
            .cell(uk64.efficiency(), 3)
            .cell(kernelgen::upper_bound_utilization(s64, mc), 3)
            .cell(uk32.efficiency(), 3)
            .cell(kernelgen::upper_bound_utilization(s32, mc), 3);
      }
    }
  }
  report(t,
         "FP64 micro-kernels (extension): efficiency vs the moved "
         "broadcast wall",
         "fp64_kernels.csv");
  return 0;
}

// Measured kernel cycles (detailed VLIW simulation with scoreboard stalls)
// vs the closed-form initiation-interval bound of §IV-A: validates that
// the simulation and the paper's analytic reasoning agree, and shows where
// they diverge (short K: pipeline fill dominates).
int ablation_model(const Cli&) {
  const auto& mc = isa::default_machine();
  kernelgen::KernelCache cache(mc);

  Table t({"ms", "ka", "na", "measured cycles", "analytic cycles",
           "measured/analytic", "measured eff", "predicted eff"});
  struct Case {
    int ms, ka, na;
  };
  const Case cases[] = {
      {8, 512, 96}, {8, 128, 96}, {8, 32, 96},  {6, 512, 64}, {6, 128, 64},
      {6, 32, 64},  {6, 512, 32}, {6, 128, 32}, {6, 32, 32},  {12, 512, 96},
      {16, 512, 32}, {4, 512, 96}, {2, 512, 96},
  };
  for (const Case& c : cases) {
    const kernelgen::KernelSpec spec{c.ms, c.ka, c.na};
    const kernelgen::MicroKernel& uk = cache.get(spec);
    const kernelgen::Tiling& tl = uk.tiling();
    // Analytic: II cycles per (mu x ku) block, per k-iteration, per tile.
    const int tiles = (c.ms + tl.mu - 1) / tl.mu;
    const double iters =
        static_cast<double>((c.ka + tl.ku - 1) / tl.ku) * tiles;
    const double analytic = iters * tl.ii;
    const double predicted = kernelgen::predicted_utilization(spec, tl, mc);
    t.begin_row()
        .cell(static_cast<long long>(c.ms))
        .cell(static_cast<long long>(c.ka))
        .cell(static_cast<long long>(c.na))
        .cell(static_cast<std::size_t>(uk.cycles()))
        .cell(analytic, 0)
        .cell(static_cast<double>(uk.cycles()) / analytic, 3)
        .cell(uk.efficiency(), 3)
        .cell(predicted, 3);
  }
  report(t, "Model cross-check: detailed simulation vs analytic II bound",
         "ablation_model.csv");
  return 0;
}

}  // namespace ftm::bench
