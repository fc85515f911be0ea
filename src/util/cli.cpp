#include "util/cli.h"

#include <sstream>
#include <stdexcept>

namespace churnstore {

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
  if (!v) return fallback;
  return std::stoll(*v);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* v = lookup(name);
  if (!v) return fallback;
  return std::stod(*v);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = lookup(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const std::string* v = lookup(name);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) out.push_back(std::stoll(part));
  }
  return out.empty() ? fallback : out;
}

}  // namespace churnstore
