// ftm_tune — offline pre-tuner for the shape-class tuning cache.
//
// Tunes a list of representative shapes on the simulated FT-m7032 cluster
// and writes (or merges into) a persistent cache file that FtimmEngine /
// GemmRuntime consult at plan time (docs/tuning.md).
//
//   ftm_tune --out tuned.json                         # default shape list
//   ftm_tune --out tuned.json --shapes "262144,32,32;32,32,262144"
//   ftm_tune --out tuned.json --cache tuned.json      # incremental merge
//   ftm_tune --smoke                                  # CI self-check
#include <cstdio>
#include <string>
#include <vector>

#include "ftm/tune/tuner.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"

namespace {

using ftm::tune::Tuner;
using ftm::tune::TuningCache;

/// Parses "M,N,K;M,N,K;..." (whitespace-free). Returns false on malformed
/// input so the CLI can fail with a message instead of a throw.
bool parse_shapes(const std::string& text, std::vector<Tuner::Shape>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    unsigned long long m = 0, n = 0, k = 0;
    if (std::sscanf(item.c_str(), "%llu,%llu,%llu", &m, &n, &k) != 3 ||
        m == 0 || n == 0 || k == 0) {
      return false;
    }
    out->push_back({m, n, k});
    pos = end + 1;
  }
  return !out->empty();
}

/// The default pre-tune list: one representative per irregular class of
/// the paper's evaluation (§V) plus two regular anchors.
std::vector<Tuner::Shape> default_shapes() {
  return {
      {262144, 32, 32},   // type I: tall-and-skinny A, tiny B
      {262144, 64, 64},   // type I, wider
      {32, 32, 262144},   // type II: huge-K reduction
      {64, 64, 262144},   // type II, wider
      {8192, 96, 8192},   // type III: regular times skinny
      {4096, 64, 4096},   // type III, smaller
      {2048, 2048, 2048},  // regular anchor
      {4096, 4096, 4096},  // regular anchor
  };
}

int smoke() {
  // Tiny-budget end-to-end self-check: tune, round-trip the cache through
  // text, and verify the reloaded provider serves the tuned plan.
  ftm::tune::TunerOptions to;
  to.budget = 16;
  Tuner tuner(ftm::isa::default_machine(), to);
  TuningCache cache;
  const auto reports = tuner.tune_into(cache, {{262144, 32, 32}});
  const auto& e = reports[0].entry;
  if (e.tuned_cycles > e.default_cycles) {
    std::fprintf(stderr, "smoke: tuned slower than default\n");
    return 1;
  }
  TuningCache reloaded;
  if (reloaded.deserialize(cache.serialize()) !=
          ftm::tune::LoadStatus::Ok ||
      reloaded.size() != cache.size()) {
    std::fprintf(stderr, "smoke: serialize round-trip failed\n");
    return 1;
  }
  ftm::core::FtimmOptions opt;
  if (!reloaded.lookup(262144, 32, 32, opt)) {
    std::fprintf(stderr, "smoke: lookup missed the tuned class\n");
    return 1;
  }
  std::printf("smoke: ok (default %llu -> tuned %llu cycles)\n",
              static_cast<unsigned long long>(e.default_cycles),
              static_cast<unsigned long long>(e.tuned_cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ftm::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: ftm_tune [--smoke] [--out FILE] [--cache FILE]\n"
        "                [--shapes \"M,N,K;M,N,K;...\"] [--cores N]\n"
        "                [--dtype f32|f16|bf16] [--budget N] [--rounds N]\n"
        "                [--seed N] [--csv FILE]\n");
    return 0;
  }
  if (!cli.check("ftm_tune", {"smoke", "out", "cache", "shapes", "cores",
                               "dtype", "budget", "rounds", "seed", "csv"})) {
    return 2;
  }
  if (cli.get_bool("smoke", false)) return smoke();

  ftm::tune::TunerOptions to;
  const std::string dtype = cli.get("dtype", "f32");
  if (dtype == "f16") {
    to.dtype = ftm::kernelgen::DType::F16;
  } else if (dtype == "bf16") {
    to.dtype = ftm::kernelgen::DType::BF16;
  } else if (dtype != "f32") {
    std::fprintf(stderr, "ftm_tune: bad --dtype '%s'\n", dtype.c_str());
    return 2;
  }
  to.cores = static_cast<int>(cli.get_int("cores", to.cores));
  to.budget = static_cast<int>(cli.get_int("budget", to.budget));
  to.rounds = static_cast<int>(cli.get_int("rounds", to.rounds));
  to.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::vector<Tuner::Shape> shapes;
  const std::string shapes_arg = cli.get("shapes", "");
  if (shapes_arg.empty()) {
    shapes = default_shapes();
  } else if (!parse_shapes(shapes_arg, &shapes)) {
    std::fprintf(stderr, "ftm_tune: bad --shapes '%s'\n", shapes_arg.c_str());
    return 2;
  }

  TuningCache cache;
  const std::string merge = cli.get("cache", "");
  if (!merge.empty()) {
    const auto st = cache.load(merge);
    if (st != ftm::tune::LoadStatus::Ok &&
        st != ftm::tune::LoadStatus::FileMissing) {
      std::fprintf(stderr, "ftm_tune: ignoring %s (%s)\n", merge.c_str(),
                   ftm::tune::to_string(st));
    }
  }

  Tuner tuner(ftm::isa::default_machine(), to);
  const auto reports = tuner.tune_into(cache, shapes);

  ftm::Table t({"m", "n", "k", "class", "strategy", "default_cycles",
                "tuned_cycles", "gain_pct", "evals", "pruned"});
  for (const auto& r : reports) {
    const auto& e = r.entry;
    const double gain =
        e.default_cycles == 0
            ? 0
            : 100.0 * (1.0 - static_cast<double>(e.tuned_cycles) /
                                 static_cast<double>(e.default_cycles));
    t.begin_row()
        .cell(e.m)
        .cell(e.n)
        .cell(e.k)
        .cell(e.cls.key())
        .cell(ftm::core::to_string(e.strategy))
        .cell(static_cast<std::size_t>(e.default_cycles))
        .cell(static_cast<std::size_t>(e.tuned_cycles))
        .cell(gain, 2)
        .cell(r.evaluated)
        .cell(r.pruned);
  }
  t.print("ftm_tune (" + std::to_string(cache.size()) + " cached classes)");
  const std::string csv = cli.get("csv", "");
  if (!csv.empty()) t.write_csv(csv);

  const std::string out = cli.get("out", "");
  if (!out.empty() && !cache.save(out)) {
    std::fprintf(stderr, "ftm_tune: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
