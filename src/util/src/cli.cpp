#include "ftm/util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ftm {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

long long Cli::get_int(const std::string& name, long long def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def
                            : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Cli::check(const std::string& prog,
                const std::vector<std::string>& declared) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(declared.begin(), declared.end(), name) == declared.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s (flags:%s)\n",
                   prog.c_str(), name.c_str(),
                   declared.empty() ? " none" : flag_list(declared).c_str());
      return false;
    }
  }
  if (!positional_.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", prog.c_str(),
                 positional_.front().c_str());
    return false;
  }
  return true;
}

std::string Cli::flag_list(const std::vector<std::string>& declared) {
  std::string s;
  for (const std::string& f : declared) s += " [--" + f + "]";
  return s;
}

}  // namespace ftm
