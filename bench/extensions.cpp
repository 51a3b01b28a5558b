// Extension experiments beyond the paper's figures: batched small GEMMs,
// hardware-sensitivity what-ifs, and the FP16/BF16 tier with the Strassen
// crossover study.
#include <cstdio>
#include <string>
#include <vector>

#include "ftm/core/batched.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/core/strassen.hpp"
#include "ftm/workload/sweeps.hpp"
#include "harness.hpp"

namespace ftm::bench {
namespace {

using core::FtimmOptions;
using core::GemmInput;

const char* dtype_name(kernelgen::DType d) {
  switch (d) {
    case kernelgen::DType::F64: return "f64";
    case kernelgen::DType::F16: return "f16";
    case kernelgen::DType::BF16: return "bf16";
    default: return "f32";
  }
}

}  // namespace

// Batched small irregular GEMMs (the paper's FEM / libxsmm motivation):
// the batch-parallel scheduler against per-problem whole-cluster runs.
int batched(const Cli&) {
  core::FtimmEngine eng;
  const FtimmOptions opt = timing_only();

  Table t({"batch", "M", "N", "K", "batched GFlops", "per-problem GFlops",
           "batch speedup"});
  struct Case {
    std::size_t batch, m, n, k;
  };
  const Case cases[] = {
      {64, 128, 8, 8},    {64, 256, 16, 16},  {256, 128, 8, 8},
      {256, 512, 16, 16}, {64, 1024, 32, 32}, {16, 4096, 32, 32},
      {8, 20480, 32, 32},
  };
  for (const Case& c : cases) {
    std::vector<GemmInput> batch(c.batch, GemmInput::shape_only(c.m, c.n, c.k));
    const core::BatchedResult br = core::sgemm_batched(eng, batch, opt);
    std::uint64_t seq = 0;
    for (const auto& in : batch) seq += eng.sgemm(in, opt).cycles;
    const double seq_secs =
        static_cast<double>(seq) / (eng.machine().freq_ghz * 1e9);
    const double seq_gflops = br.flops / seq_secs / 1e9;
    t.begin_row()
        .cell(c.batch)
        .cell(c.m)
        .cell(c.n)
        .cell(c.k)
        .cell(br.gflops, 1)
        .cell(seq_gflops, 1)
        .cell(seq_secs / br.seconds, 2);
  }
  report(t, "Batched small GEMMs: batch-parallel vs per-problem 8-core",
         "batched.csv");
  return 0;
}

// Hardware what-ifs: the machine description is a parameter
// (src/isa/machine.hpp), so ask how much DDR bandwidth the irregular shapes
// need before ftIMM turns compute-bound, and how much DMA startup latency
// matters at ftIMM's block sizes.
int sensitivity(const Cli&) {
  const FtimmOptions opt = timing_only();

  {
    Table t({"bw scale", "GB/s", "typeI GFlops", "typeII GFlops",
             "typeIII GFlops", "typeIII % of compute peak"});
    for (double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      isa::MachineConfig mc;
      mc.ddr_bytes_per_sec *= scale;
      core::FtimmEngine eng(mc);
      const auto cases = workload::fig6_cases();
      double g[3];
      for (int i = 0; i < 3; ++i) {
        g[i] = eng.sgemm(GemmInput::shape_only(cases[i].m, cases[i].n,
                                               cases[i].k),
                         opt)
                   .gflops;
      }
      t.begin_row()
          .cell(scale, 1)
          .cell(mc.ddr_bytes_per_sec / 1e9, 1)
          .cell(g[0], 1)
          .cell(g[1], 1)
          .cell(g[2], 1)
          .cell(100.0 * g[2] / mc.cluster_peak_gflops(), 1);
    }
    report(t,
           "Sensitivity: DDR bandwidth (paper hardware = scale 1.0; the "
           "irregular shapes stay memory-bound until several x)",
           "sensitivity_bandwidth.csv");
  }

  {
    Table t({"startup cycles", "typeI GFlops", "small-batch GFlops"});
    for (std::uint64_t startup : {0ull, 256ull, 1024ull, 4096ull}) {
      isa::MachineConfig mc;
      mc.dma_startup_cycles = startup;
      core::FtimmEngine eng(mc);
      const double g1 =
          eng.sgemm(GemmInput::shape_only(1 << 18, 32, 32), opt).gflops;
      // Small blocks feel startup hardest.
      const double g2 =
          eng.sgemm(GemmInput::shape_only(2048, 8, 8), opt).gflops;
      t.begin_row()
          .cell(static_cast<std::size_t>(startup))
          .cell(g1, 1)
          .cell(g2, 1);
    }
    report(t, "Sensitivity: DMA startup latency (assumption in machine.hpp)",
           "sensitivity_dma_startup.csv");
  }

  // The paper's key micro-architectural limit, the broadcast path.
  {
    Table t({"bcast fp32/cycle", "N=32 kernel eff", "N=96 kernel eff"});
    for (int bc : {1, 2, 4}) {
      isa::MachineConfig mc;
      mc.broadcast_fp32_per_cycle = bc;
      // Note: the ISA models the ceiling structurally (one SVBCAST2 slot),
      // so only the analytic bound moves here; the generated-kernel
      // efficiency column uses the default machine and is repeated to
      // show what the structural ceiling produces.
      core::FtimmEngine eng;
      const auto& k32 = eng.kernels().get({6, 512, 32});
      const auto& k96 = eng.kernels().get({8, 512, 96});
      t.begin_row()
          .cell(static_cast<long long>(bc))
          .cell(k32.efficiency(), 3)
          .cell(k96.efficiency(), 3);
    }
    t.print("Broadcast path: structural 2-FP32/cycle ceiling (paper "
            "§IV-A1); N<=32 kernels pinned to 2/3 peak");
  }
  return 0;
}

// Mixed precision (docs/precision.md): the shape taxonomy across FP32 /
// FP16 / BF16 against the dtype-aware roofline, then the Strassen
// crossover study (square dims vs the best blocked variant). --full adds
// the 32768^3 crossover point (~30 s). --smoke checks the CI invariants:
//   (a) on compute-bound type-III shapes the half tiers run >= 1.8x the
//       FP32 FLOP rate (the VFMULAH32 2-way dot doubles the ceiling;
//       margin below 2.0x absorbs the unchanged fill/drain overhead);
//   (b) forced Strassen beats the best blocked variant at 16384^3 with
//       the default cutoff (one recursion level past the crossover).
int mixed(const Cli& cli) {
  const bool smoke = cli.get_bool("smoke", false);
  const bool full = cli.get_bool("full", false);

  const auto& mc = isa::default_machine();
  core::FtimmEngine engine(mc);
  // Cycle model only; accuracy lives in the tests.
  const FtimmOptions base = timing_only();

  struct Shape {
    const char* cls;  // taxonomy class from the paper's §V evaluation
    std::size_t m, n, k;
  };
  const std::vector<Shape> shapes = {
      {"I", 262144, 32, 32},   {"I", 262144, 64, 64},
      {"II", 32, 32, 262144},  {"II", 64, 64, 262144},
      {"III", 4096, 64, 4096}, {"III", 8192, 96, 8192},
      {"square", 2048, 2048, 2048},
  };
  const kernelgen::DType dtypes[] = {
      kernelgen::DType::F32, kernelgen::DType::F16, kernelgen::DType::BF16};

  Table t({"class", "m", "n", "k", "dtype", "strategy", "cycles", "GFlops",
           "roofline", "% roof"});
  // f32 cycles per shape index, then per-half speedups for the smoke gate.
  std::vector<std::uint64_t> f32_cycles(shapes.size(), 0);
  bool ok = true;
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const Shape& s = shapes[si];
    for (const auto dt : dtypes) {
      FtimmOptions opt = base;
      opt.dtype = dt;
      const auto in = GemmInput::shape_only(s.m, s.n, s.k);
      const auto r = engine.sgemm(in, opt);
      const double roof =
          core::roofline_gflops(s.m, s.n, s.k, opt.cores, mc, dt);
      t.begin_row()
          .cell(std::string(s.cls))
          .cell(s.m)
          .cell(s.n)
          .cell(s.k)
          .cell(std::string(dtype_name(dt)))
          .cell(std::string(core::to_string(r.strategy)))
          .cell(static_cast<std::size_t>(r.cycles))
          .cell(r.gflops, 1)
          .cell(roof, 1)
          .cell(100.0 * r.gflops / roof, 1);
      if (dt == kernelgen::DType::F32) {
        f32_cycles[si] = r.cycles;
      } else if (std::string(s.cls) == "III") {
        // Compute-bound shapes must realize the doubled DOT2 ceiling.
        const double speedup = static_cast<double>(f32_cycles[si]) /
                               static_cast<double>(r.cycles);
        if (smoke && speedup < 1.8) {
          std::fprintf(stderr,
                       "smoke: %s %zux%zux%zu only %.2fx over f32 "
                       "(want >= 1.8x)\n",
                       dtype_name(dt), s.m, s.n, s.k, speedup);
          ok = false;
        }
      }
    }
  }
  t.print("mixed-precision sweep (timing-only, dtype-aware roofline)");

  std::vector<std::size_t> dims = smoke ? std::vector<std::size_t>{16384}
                                        : std::vector<std::size_t>{
                                              4096, 8192, 16384};
  if (full && !smoke) dims.push_back(32768);
  Table st({"d", "blocked cycles", "strassen cycles", "levels", "speedup"});
  for (const std::size_t d : dims) {
    const auto in = GemmInput::shape_only(d, d, d);
    const auto rb = engine.sgemm_autotuned(in, base);
    FtimmOptions so = base;
    so.force = core::Strategy::Strassen;
    const auto rs = engine.sgemm(in, so);
    const double speedup =
        static_cast<double>(rb.cycles) / static_cast<double>(rs.cycles);
    st.begin_row()
        .cell(d)
        .cell(static_cast<std::size_t>(rb.cycles))
        .cell(static_cast<std::size_t>(rs.cycles))
        .cell(static_cast<long long>(rs.strassen_levels))
        .cell(speedup, 3);
    if (smoke && d >= 16384 && rs.cycles >= rb.cycles) {
      std::fprintf(stderr,
                   "smoke: strassen (%llu) did not beat blocked (%llu) "
                   "at d=%zu\n",
                   static_cast<unsigned long long>(rs.cycles),
                   static_cast<unsigned long long>(rb.cycles), d);
      ok = false;
    }
  }
  st.print("Strassen vs best blocked (default cutoff " +
           std::to_string(core::kStrassenDefaultCutoff) + ")");

  const std::string csv =
      cli.get("csv", smoke ? "" : result_path("mixed_precision.csv"));
  if (!csv.empty()) save(t, csv);
  if (smoke) {
    if (!ok) return 1;
    std::printf("smoke: ok (half tier >= 1.8x on type III, strassen wins "
                "at 16384)\n");
  }
  return 0;
}

}  // namespace ftm::bench
