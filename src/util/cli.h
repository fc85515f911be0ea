// Minimal command-line flag parser used by benches and examples.
//
// Flags take the form --name=value, --name value, or bare key=value (the
// ScenarioSpec syntax: `bench_driver --scenario=search n=512 trials=4`);
// bare --name sets a bool. Unknown flags are collected and can be rejected
// by the caller. The command line is the only input: no environment
// variable reaches a run.
//
// Every typed read goes through the strict parsers below, so a value must
// parse whole: `n=256x`, `csv=ture` and `churn-mult=nan` are errors that
// name the key, never a silent n=256, text table or NaN run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace churnstore {

/// Strict value parsers, shared by Cli's getters and the spec's extras
/// readers (core/scenario.h): the whole token must parse, an empty value is
/// an error and a double must be finite. Each throws std::invalid_argument
/// naming `key` and `value`.
[[nodiscard]] std::int64_t parse_int(const std::string& key,
                                     const std::string& value);
[[nodiscard]] double parse_double(const std::string& key,
                                  const std::string& value);
/// A 64-bit value spelled unsigned (up to 2^64 - 1) or signed, which wraps
/// (-1 is 2^64 - 1): the seed prints unsigned, and its signed spelling
/// stays valid.
[[nodiscard]] std::uint64_t parse_u64(const std::string& key,
                                      const std::string& value);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Construct from pre-split tokens (used by tests).
  explicit Cli(std::vector<std::string> tokens);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// true/false, 1/0, yes/no or on/off; any other value throws.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --n=256,512,1024; an empty element
  /// throws.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::map<std::string, std::string>& flags() const {
    return values_;
  }

 private:
  void parse(const std::vector<std::string>& tokens);
  /// The flag's value, or null when the command line does not set it.
  [[nodiscard]] const std::string* lookup(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace churnstore
