// Minimal --flag=value / --flag value parser shared by the bench and
// example binaries, plus the BURTREE_SCALE environment knob that scales
// workload sizes towards (or past) the paper's 1M-object setting.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace burtree {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool Has(const std::string& key) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, std::string def) const;
  bool GetBool(const std::string& key, bool def) const;

  /// True when the user passed --help / -h.
  bool HelpRequested() const;

  /// Every flag queried through a Get* accessor so far, with the default
  /// rendered as a string — the binary's de-facto flag set, used by
  /// PrintUsage so `--help` output can never drift from the code.
  const std::vector<std::pair<std::string, std::string>>& known_flags()
      const {
    return known_flags_;
  }

  /// Prints one "--flag (default: value)" line per queried flag.
  void PrintUsage(std::ostream& os) const;

  /// If --help / -h was passed, prints usage for every flag queried so
  /// far (plus an optional trailing note) and exits 0. Otherwise, if a
  /// passed --flag was never queried, names each such flag on stderr and
  /// exits 2. Call it after the last Get* so both lists are complete.
  void ExitIfHelpRequested(const char* argv0,
                           const char* footer = nullptr) const;

  /// BURTREE_SCALE env var (default 1.0) multiplied onto workload sizes:
  /// `Scaled(100000)` with BURTREE_SCALE=10 reproduces paper scale. A
  /// value that is not a positive number exits 2, like a bad flag.
  static double ScaleFactor();
  static uint64_t Scaled(uint64_t base);

 private:
  void Note(const std::string& key, std::string def) const;

  std::unordered_map<std::string, std::string> kv_;
  bool help_requested_ = false;
  /// Insertion-ordered record of queried flags (mutable: queries are
  /// logically const reads).
  mutable std::vector<std::pair<std::string, std::string>> known_flags_;
};

}  // namespace burtree
