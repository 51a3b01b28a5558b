// Kernel explorer: inspect what the micro-kernel generator produces for a
// given (m_s, k_a, n_a) shape — tiling decision, disassembly, calibrated
// cycles/efficiency, and optionally a cycle-by-cycle execution trace on the
// detailed core model.
//
//   ./kernel_explorer --ms 8 --ka 64 --na 96 [--disasm] [--trace]
//   ./kernel_explorer --sweep          # efficiency grid like Fig. 3
#include <cstdio>
#include <map>

#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  if (!cli.check("kernel_explorer", {"sweep", "ms", "ka", "na", "load_c",
                                     "disasm", "trace", "trace_rows"})) {
    return 2;
  }
  const auto& mc = isa::default_machine();

  if (cli.get_bool("sweep", false)) {
    Table t({"ms", "na", "mu", "ku", "II", "cycles(ka=512)", "efficiency",
             "upper bound"});
    for (int na : {96, 64, 32, 16}) {
      for (int ms : {2, 4, 6, 8, 10, 12, 14, 16}) {
        kernelgen::KernelSpec s{ms, 512, na};
        kernelgen::MicroKernel uk(s, mc);
        t.begin_row()
            .cell(static_cast<long long>(ms))
            .cell(static_cast<long long>(na))
            .cell(static_cast<long long>(uk.tiling().mu))
            .cell(static_cast<long long>(uk.tiling().ku))
            .cell(static_cast<long long>(uk.tiling().ii))
            .cell(static_cast<std::size_t>(uk.cycles()))
            .cell(uk.efficiency(), 3)
            .cell(kernelgen::upper_bound_utilization(na, mc), 3);
      }
    }
    t.print("Micro-kernel efficiency sweep (K=512)");
    return 0;
  }

  kernelgen::KernelSpec spec;
  spec.ms = static_cast<int>(cli.get_int("ms", 8));
  spec.ka = static_cast<int>(cli.get_int("ka", 64));
  spec.na = static_cast<int>(cli.get_int("na", 96));
  spec.load_c = cli.get_bool("load_c", true);

  kernelgen::MicroKernel uk(spec, mc);
  const auto& t = uk.tiling();
  const auto& cal = uk.calibration();
  std::printf("kernel        : %s\n", uk.program().name.c_str());
  std::printf("regime        : %s (n_a = %d -> %d vectors)\n",
              to_string(kernelgen::regime_for(spec.na)), spec.na, spec.vn());
  std::printf("tiling        : m_u=%d, k_u=%d, II=%d\n", t.mu, t.ku, t.ii);
  std::printf("vector regs   : %d of %d\n",
              kernelgen::vector_regs_needed(t, spec.vn()), mc.vector_regs);
  std::printf("program size  : %zu bundles, %zu ops\n",
              uk.program().bundles.size(), uk.program().op_count());
  std::printf("calibration   : %llu cycles (%llu stalls, %llu bundles "
              "issued)\n",
              static_cast<unsigned long long>(cal.cycles),
              static_cast<unsigned long long>(cal.stall_cycles),
              static_cast<unsigned long long>(cal.bundles));
  std::printf("efficiency    : %.1f%% of core peak (paper bound %.1f%%)\n",
              100.0 * uk.efficiency(),
              100.0 * kernelgen::upper_bound_utilization(spec.na, mc));
  std::printf("FMAC slots    : %.1f%% occupied\n",
              100.0 * cal.fmac_utilization(mc));

  if (cli.get_bool("disasm", false)) {
    std::printf("\n%s", uk.program().disassemble().c_str());
  }

  if (cli.get_bool("trace", false)) {
    // Re-run on a fresh core with a trace: prints issue cycle per bundle
    // (stalls appear as gaps) for the first `trace_rows` bundles.
    const long long max_rows = cli.get_int("trace_rows", 64);
    sim::DspCore core(mc);
    const auto a = core.sm().alloc(spec.a_bytes());
    const auto b = core.am().alloc(spec.b_bytes());
    const auto c = core.am().alloc(spec.c_bytes());
    long long rows = 0;
    std::uint64_t last_cycle = 0;
    std::printf("\ncycle  pc   (gap = scoreboard stall)\n");
    core.set_trace([&](std::size_t pc, std::uint64_t cycle) {
      if (rows++ >= max_rows) return;
      const std::uint64_t gap = cycle > last_cycle + 1 && rows > 1
                                    ? cycle - last_cycle - 1
                                    : 0;
      std::string note;
      if (gap) note = "  <- stalled " + std::to_string(gap) + " cycles";
      std::printf("%5llu  %-4zu%s\n",
                  static_cast<unsigned long long>(cycle), pc, note.c_str());
      last_cycle = cycle;
    });
    uk.run_detailed(core, a.offset, b.offset, c.offset);
    if (rows > max_rows) {
      std::printf("... (%lld more bundles)\n", rows - max_rows);
    }
  }
  return 0;
}
