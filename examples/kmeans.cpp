// K-means clustering with the distance computation offloaded to ftIMM —
// the first motivating workload of the paper's introduction. The dominant
// cost of Lloyd's algorithm is computing sample-to-centroid similarities,
// which reduces to the type-I irregular GEMM
//     dots[samples x centroids] = points[samples x dims] * centroidsT
// with samples >> dims ~= centroids: exactly ftIMM's tall-x-small case.
// Nearest centroid by squared distance is argmin(||c||^2 - 2 * dot).
//
//   ./kmeans [--samples 65536] [--dims 32] [--centroids 16] [--iters 5]
#include <cmath>
#include <cstdio>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  if (!cli.check("kmeans", {"samples", "dims", "centroids", "iters"})) return 2;
  const std::size_t samples =
      static_cast<std::size_t>(cli.get_int("samples", 65536));
  const std::size_t dims = static_cast<std::size_t>(cli.get_int("dims", 32));
  const std::size_t kc =
      static_cast<std::size_t>(cli.get_int("centroids", 16));
  const int iters = static_cast<int>(cli.get_int("iters", 5));

  // Clustered synthetic points (A of the GEMM, fixed across iterations).
  workload::KmeansShape shape{samples, dims, kc};
  workload::GemmProblem data = workload::make_kmeans_gemm(shape);
  std::printf("k-means: %zu samples, %zu dims, %zu centroids (GEMM type: "
              "%s)\n",
              samples, dims, kc,
              to_string(workload::classify(samples, kc, dims)));

  // Initial centroids: the first kc samples.
  HostMatrix centroids(kc, dims);
  for (std::size_t c = 0; c < kc; ++c)
    for (std::size_t d = 0; d < dims; ++d)
      centroids.at(c, d) = data.a.at(c * (samples / kc), d);

  core::FtimmEngine engine;
  HostMatrix bt(dims, kc);       // centroids^T: the B operand
  HostMatrix dots(samples, kc);  // the C operand
  std::vector<std::size_t> assign(samples, 0);

  double total_gemm_seconds = 0;
  std::uint64_t total_cycles = 0;
  for (int it = 0; it < iters; ++it) {
    for (std::size_t d = 0; d < dims; ++d)
      for (std::size_t c = 0; c < kc; ++c) bt.at(d, c) = centroids.at(c, d);
    dots.fill(0.0f);

    // The heavy step on the accelerator: dots = points * centroids^T.
    const core::GemmResult r = engine.sgemm(
        core::GemmInput::bound(data.a.view(), bt.view(), dots.view()));
    total_gemm_seconds += r.seconds;
    total_cycles += r.cycles;

    // Assignment: argmin ||x - c||^2 = argmin(||c||^2 - 2 x.c).
    std::vector<float> cnorm(kc, 0.0f);
    for (std::size_t c = 0; c < kc; ++c)
      for (std::size_t d = 0; d < dims; ++d)
        cnorm[c] += centroids.at(c, d) * centroids.at(c, d);
    std::vector<std::size_t> count(kc, 0);
    HostMatrix sums(kc, dims);
    double inertia_proxy = 0;
    for (std::size_t s = 0; s < samples; ++s) {
      std::size_t best = 0;
      float best_score = cnorm[0] - 2.0f * dots.at(s, 0);
      for (std::size_t c = 1; c < kc; ++c) {
        const float score = cnorm[c] - 2.0f * dots.at(s, c);
        if (score < best_score) {
          best_score = score;
          best = c;
        }
      }
      assign[s] = best;
      ++count[best];
      inertia_proxy += best_score;
      for (std::size_t d = 0; d < dims; ++d)
        sums.at(best, d) += data.a.at(s, d);
    }
    // Update step.
    for (std::size_t c = 0; c < kc; ++c) {
      if (count[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d)
        centroids.at(c, d) = sums.at(c, d) / static_cast<float>(count[c]);
    }
    std::printf(
        "iter %d: GEMM %.2f ms simulated (%.1f GFlops, %s), inertia proxy "
        "%.3e\n",
        it, r.seconds * 1e3, r.gflops, to_string(r.strategy),
        inertia_proxy);
  }

  // Cluster size summary.
  std::vector<std::size_t> count(kc, 0);
  for (std::size_t s : assign) ++count[s];
  std::printf("final cluster sizes:");
  for (std::size_t c = 0; c < kc; ++c) std::printf(" %zu", count[c]);
  std::printf("\ntotal distance-GEMM time on simulated cluster: %.2f ms "
              "(%llu cycles)\n",
              total_gemm_seconds * 1e3,
              static_cast<unsigned long long>(total_cycles));
  return 0;
}
