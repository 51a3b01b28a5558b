// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <taxonomy-functional|serving-tiny|sweep-timing>
//             --seed N --seconds S --trace 0|1
//
// Report lines start with '#'; the last line of stdout is the result
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
// when every op was verified and simulated costs repeated exactly.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage(("unknown workload " + value).c_str());
      opt.workload = *w;
      have_workload = true;
    } else if (!parse_number(value, number) || number < 0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      opt.seconds = number;
    } else if (flag == "--trace") {
      opt.trace = number != 0;
    } else if (flag == "--setup-only") {
      opt.setup_only = number != 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    if (opt.setup_only) {
      std::printf("%.9g\n", perfbench::setup_seconds(opt));
      return 0;
    }
    const perfbench::RunResult r = perfbench::run(opt, stdout);
    std::printf("%s\n", perfbench::result_json(r.correct, r.attempted,
                                               r.failed, r.metrics)
                            .c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
