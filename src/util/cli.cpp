#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>

namespace churnstore {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("spec key '" + key + "' must be " + expected +
                              ", got '" + value + "'");
}

/// True when the whole of `token` parses as a T (an empty token does not).
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::int64_t parse_int(const std::string& key, const std::string& value) {
  std::int64_t out = 0;
  if (!parse_whole(value, out)) bad_value(key, value, "an integer");
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  if (parse_whole(value, out)) return out;
  return static_cast<std::uint64_t>(parse_int(key, value));
}

double parse_double(const std::string& key, const std::string& value) {
  double out = 0.0;
  if (!parse_whole(value, out) || !std::isfinite(out)) {
    bad_value(key, value, "a finite number");
  }
  return out;
}

Cli::Cli(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

Cli::Cli(std::vector<std::string> tokens) { parse(tokens); }

void Cli::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      // Bare key=value tokens are flags too (scenario-spec syntax).
      const auto eq = tok.find('=');
      if (eq != std::string::npos && eq > 0) {
        values_[tok.substr(0, eq)] = tok.substr(eq + 1);
      } else {
        positional_.push_back(tok);
      }
      continue;
    }
    std::string body = tok.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      values_[body] = tokens[++i];
    } else {
      values_[body] = "true";
    }
  }
}

const std::string* Cli::lookup(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return lookup(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const std::string* v = lookup(name);
  return v ? *v : fallback;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* v = lookup(name);
  return v ? parse_int(name, *v) : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* v = lookup(name);
  return v ? parse_double(name, *v) : fallback;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = lookup(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  bad_value(name, *v, "true/false, 1/0, yes/no or on/off");
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const std::string* v = lookup(name);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  const std::string_view list = *v;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    std::int64_t element = 0;
    if (!parse_whole(list.substr(start, comma - start), element)) {
      bad_value(name, *v, "a comma-separated list of integers");
    }
    out.push_back(element);
    if (comma == std::string_view::npos) return out;
    start = comma + 1;
  }
}

}  // namespace churnstore
