// Minimal command-line flag parser for examples, tools and benchmark
// binaries. Supports `--name value`, `--name=value`, and boolean `--flag`.
// Parsing accepts any flag; a program states the flags it takes with
// check(), so a misspelt flag fails instead of leaving its default in
// force.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ftm {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage check for a program that takes exactly the flags `declared`
  /// and no positional argument. On an undeclared flag or a positional
  /// argument, prints what was wrong and the declared flags to stderr,
  /// prefixed with `prog`, and returns false: the caller exits 2.
  bool check(const std::string& prog,
             const std::vector<std::string>& declared) const;

  /// " [--a] [--b]" for each declared flag, for usage lines.
  static std::string flag_list(const std::vector<std::string>& declared);

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ftm
