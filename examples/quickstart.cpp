// Quickstart: run one irregular-shaped GEMM through ftIMM on the simulated
// FT-m7032 GPDSP cluster, verify the numbers against a reference, and look
// at what the library decided to do.
//
//   ./quickstart [--m 8192] [--n 32] [--k 32] [--cores 8]
#include <cstdio>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  if (!cli.check("quickstart", {"m", "n", "k", "cores"})) return 2;
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 8192));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 32));
  const std::size_t k = static_cast<std::size_t>(cli.get_int("k", 32));

  // 1. Build a problem: C += A * B with random FP32 data.
  workload::GemmProblem p = workload::make_problem(m, n, k);
  std::printf("GEMM %zu x %zu x %zu (%s)\n", m, n, k,
              to_string(workload::classify(m, n, k)));

  // 2. Keep a reference result for verification.
  HostMatrix expect(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  // 3. Run it through ftIMM. The engine classifies the shape, picks the
  //    parallelization strategy, adjusts block sizes, and auto-generates
  //    the micro-kernels the blocks need.
  core::FtimmEngine engine;
  core::FtimmOptions opt;
  opt.cores = static_cast<int>(cli.get_int("cores", 8));
  const core::GemmResult r = engine.sgemm(
      core::GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);

  // 4. Verify and report.
  const double err = max_rel_diff(p.c.view(), expect.view());
  std::printf("strategy         : %s\n", to_string(r.strategy));
  std::printf("simulated cycles : %llu (%.3f ms at 1.8 GHz)\n",
              static_cast<unsigned long long>(r.cycles), r.seconds * 1e3);
  std::printf("achieved         : %.1f GFlops (%.1f%% of %d-core peak)\n",
              r.gflops, 100.0 * r.efficiency, r.cores);
  std::printf("roofline bound   : %.1f GFlops\n",
              engine.roofline(m, n, k, opt.cores));
  std::printf("DDR traffic      : %.1f MiB (compulsory %.1f MiB)\n",
              static_cast<double>(r.ddr_bytes) / (1 << 20),
              core::min_ddr_bytes(m, n, k) / (1 << 20));
  std::printf("micro-kernels    : %llu calls, %zu generated\n",
              static_cast<unsigned long long>(r.kernel_calls),
              engine.kernels().generated());
  std::printf("max rel error    : %.2e (tolerance %.2e) -> %s\n", err,
              gemm_tolerance(k), err < gemm_tolerance(k) ? "OK" : "FAIL");

  // 5. Compare with the traditional implementation.
  workload::GemmProblem q = workload::make_problem(m, n, k);
  const core::GemmResult tr = engine.tgemm(
      core::GemmInput::bound(q.a.view(), q.b.view(), q.c.view()), opt);
  std::printf("TGEMM baseline   : %.1f GFlops -> ftIMM speedup %.2fx\n",
              tr.gflops, tr.seconds / r.seconds);
  return err < gemm_tolerance(k) ? 0 : 1;
}
