// Batched small-GEMM workload in the style of high-order FEM assembly —
// the paper's first motivating application (§I cites libxsmm's small-
// matrix GEMMs from fluid-dynamics FEM). Each element applies a small
// dense operator to its nodal values; across a mesh this is thousands of
// independent small GEMMs, far too small individually to fill a GPDSP
// cluster. The batched scheduler runs them one core per problem, eight at
// a time.
//
//   ./fem_batch [--elements 2048] [--nodes 64] [--fields 8] [--quad 24]
#include <cstdio>
#include <vector>

#include "ftm/core/batched.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/prng.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  if (!cli.check("fem_batch", {"elements", "nodes", "fields", "quad"})) {
    return 2;
  }
  const std::size_t elements =
      static_cast<std::size_t>(cli.get_int("elements", 2048));
  const std::size_t nodes = static_cast<std::size_t>(cli.get_int("nodes", 64));
  const std::size_t fields =
      static_cast<std::size_t>(cli.get_int("fields", 8));
  const std::size_t quad = static_cast<std::size_t>(cli.get_int("quad", 24));

  // Per element: U_q[quad x fields] += D[quad x nodes] * U[nodes x fields]
  // (interpolation of nodal fields to quadrature points). D is shared; the
  // nodal values differ per element.
  std::printf(
      "FEM batch: %zu elements, per-element GEMM %zu x %zu x %zu "
      "(%.1f KFlop each)\n",
      elements, quad, fields, nodes,
      2.0 * quad * fields * nodes / 1e3);

  Prng rng(2024);
  HostMatrix d(quad, nodes);
  d.fill_random(rng);
  std::vector<HostMatrix> u, uq;
  u.reserve(elements);
  uq.reserve(elements);
  for (std::size_t e = 0; e < elements; ++e) {
    u.emplace_back(nodes, fields);
    u.back().fill_random(rng);
    uq.emplace_back(quad, fields);
  }

  std::vector<core::GemmInput> batch;
  batch.reserve(elements);
  for (std::size_t e = 0; e < elements; ++e) {
    batch.push_back(
        core::GemmInput::bound(d.view(), u[e].view(), uq[e].view()));
  }

  core::FtimmEngine engine;
  const core::BatchedResult r = core::sgemm_batched(engine, batch);
  std::printf("batch makespan  : %.3f ms simulated (%llu cycles)\n",
              r.seconds * 1e3, static_cast<unsigned long long>(r.cycles));
  std::printf("throughput      : %.1f GFlops aggregate (%zu small + %zu "
              "wide problems)\n",
              r.gflops, r.small_problems, r.wide_problems);

  // Compare against running each element GEMM with the full cluster.
  core::FtimmOptions opt;
  opt.functional = false;
  std::uint64_t seq = 0;
  for (const auto& in : batch) {
    seq += engine
               .sgemm(core::GemmInput::shape_only(in.m, in.n, in.k), opt)
               .cycles;
  }
  std::printf("vs per-problem 8-core runs: %.3f ms -> batch scheduler "
              "%.2fx faster\n",
              static_cast<double>(seq) /
                  (engine.machine().freq_ghz * 1e9) * 1e3,
              static_cast<double>(seq) / static_cast<double>(r.cycles));

  // Spot-verify one element against the reference.
  HostMatrix expect(quad, fields);
  cpu::reference_gemm(d.view(), u[7].view(), expect.view());
  const double err = max_rel_diff(uq[7].view(), expect.view());
  std::printf("element 7 max rel err: %.2e (%s)\n", err,
              err < gemm_tolerance(nodes) ? "OK" : "FAIL");
  return err < gemm_tolerance(nodes) ? 0 : 1;
}
