#include "harness/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/parse.h"

namespace burtree {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";
    }
  }
}

bool CliArgs::Has(const std::string& key) const { return kv_.count(key) > 0; }

bool CliArgs::HelpRequested() const { return help_requested_; }

void CliArgs::Note(const std::string& key, std::string def) const {
  const auto seen = std::find_if(
      known_flags_.begin(), known_flags_.end(),
      [&](const auto& kv) { return kv.first == key; });
  if (seen == known_flags_.end()) {
    known_flags_.emplace_back(key, std::move(def));
  }
}

void CliArgs::PrintUsage(std::ostream& os) const {
  for (const auto& [key, def] : known_flags_) {
    os << "  --" << key << " (default: " << def << ")\n";
  }
}

void CliArgs::ExitIfHelpRequested(const char* argv0,
                                  const char* footer) const {
  if (!help_requested_) return;
  std::cout << "usage: " << argv0 << " [flags]\nflags:\n";
  PrintUsage(std::cout);
  if (footer != nullptr) std::cout << "\n" << footer << "\n";
  std::exit(0);
}

int64_t CliArgs::GetInt(const std::string& key, int64_t def) const {
  Note(key, std::to_string(def));
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  // Strict parse (common/parse.h): strtoll here used to turn
  // "--threads 1e3" into 1 and "--seed 0x2f" into 0 without a word.
  int64_t v = 0;
  if (!ParseInt64(it->second, &v)) {
    std::cerr << "bad integer '" << it->second << "' for --" << key
              << "\n";
    std::exit(2);
  }
  return v;
}

double CliArgs::GetDouble(const std::string& key, double def) const {
  Note(key, std::to_string(def));
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  // Strict like GetInt: strtod ran "--buffer abc" as a 0% buffer.
  double v = 0.0;
  if (!ParseDouble(it->second, &v)) {
    std::cerr << "bad number '" << it->second << "' for --" << key << "\n";
    std::exit(2);
  }
  return v;
}

std::string CliArgs::GetString(const std::string& key,
                               std::string def) const {
  Note(key, def);
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

bool CliArgs::GetBool(const std::string& key, bool def) const {
  Note(key, def ? "true" : "false");
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

double CliArgs::ScaleFactor() {
  const char* env = std::getenv("BURTREE_SCALE");
  if (env == nullptr) return 1.0;
  double v = 0.0;
  if (!ParseDouble(env, &v) || v <= 0.0) {
    std::cerr << "bad BURTREE_SCALE '" << env
              << "' (want a positive number)\n";
    std::exit(2);
  }
  return v;
}

uint64_t CliArgs::Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFactor());
}

}  // namespace burtree
