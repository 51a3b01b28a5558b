#include "harness.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace ftm::bench {

std::string result_path(const std::string& file) { return "results/" + file; }

void make_parent_dirs(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
}

void save(const Table& t, const std::string& path) {
  make_parent_dirs(path);
  t.write_csv(path);
  std::printf("CSV written to %s\n", path.c_str());
}

void report(const Table& t, const std::string& title,
            const std::string& csv) {
  t.print(title);
  save(t, result_path(csv));
}

core::FtimmOptions timing_only(int cores) {
  core::FtimmOptions opt;
  opt.cores = cores;
  opt.functional = false;
  return opt;
}

std::string shape_key(std::size_t m, std::size_t n, std::size_t k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(k);
}

bool write_gate_json(const std::string& path,
                     const std::vector<GateEntry>& entries) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "ftm_bench: cannot write %s\n", path.c_str());
    return false;
  }
  f << "{\n  \"schema\": 1,\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GateEntry& e = entries[i];
    f << "    {\"shape\": \"" << e.shape << "\", \"variant\": \""
      << e.variant << "\", \"cycles\": " << e.cycles;
    if (e.informational) {
      f << ", \"informational\": true}";
    } else {
      f << ", \"wall_us\": " << e.wall_us << "}";
    }
    f << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  f << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace ftm::bench
