// shardcheck CLI: scan the repo's source roots and enforce the ShardContext
// determinism contract (see shardcheck.h for the rule catalog).
//
//   shardcheck [--root=DIR] [--compile-commands=FILE] [ROOT...]
//
// ROOTs default to `src bench tests` under --root (default: cwd). Every
// .h/.cpp under the roots is scanned (two passes: cross-file symbols, then
// every rule within its scope). With --compile-commands, the scanned .cpp
// set is cross-checked against what CMake actually compiles, so a
// glob/driver drift can never silently leave new files unscanned — any
// mismatch is a hard error.
//
// Exit codes: 0 clean; 1 unsuppressed diagnostics; 2 usage/IO/drift error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "shardcheck/shardcheck.h"

namespace fs = std::filesystem;

namespace {

struct SourceFile {
  std::string rel;   ///< path relative to root, forward slashes
  std::string text;  ///< file contents
  shardcheck::LexOutput lex;
};

[[nodiscard]] bool has_source_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

[[nodiscard]] std::string to_rel(const fs::path& abs, const fs::path& root) {
  return fs::relative(abs, root).generic_string();
}

/// Minimal compile_commands.json reader: pairs each "file" value with the
/// preceding "directory" value to resolve relative paths. Good for what
/// CMake emits; a parse failure is reported as drift, never ignored.
[[nodiscard]] bool read_compile_commands(const std::string& path,
                                         std::vector<fs::path>& out,
                                         std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path +
            " — configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  auto read_string_after = [&](std::size_t key_end,
                               std::string& value) -> bool {
    std::size_t p = json.find_first_not_of(" \t\r\n", key_end);
    if (p == std::string::npos || json[p] != ':') return false;
    p = json.find_first_not_of(" \t\r\n", p + 1);
    if (p == std::string::npos || json[p] != '"') return false;
    ++p;
    value.clear();
    while (p < json.size() && json[p] != '"') {
      if (json[p] == '\\' && p + 1 < json.size()) {
        ++p;
        value.push_back(json[p] == 'n' ? '\n' : json[p]);
      } else {
        value.push_back(json[p]);
      }
      ++p;
    }
    return p < json.size();
  };

  std::string directory;
  std::size_t pos = 0;
  bool any = false;
  while (pos < json.size()) {
    const std::size_t dk = json.find("\"directory\"", pos);
    const std::size_t fk = json.find("\"file\"", pos);
    if (fk == std::string::npos) break;
    if (dk != std::string::npos && dk < fk) {
      std::string d;
      if (read_string_after(dk + 11, d)) directory = d;
    }
    std::string f;
    if (!read_string_after(fk + 6, f)) {
      error = path + ": malformed entry near offset " + std::to_string(fk);
      return false;
    }
    fs::path fp(f);
    if (fp.is_relative() && !directory.empty()) fp = fs::path(directory) / fp;
    out.push_back(fp);
    any = true;
    pos = fk + 6;
  }
  if (!any) {
    error = path + ": no compile entries found — stale or truncated build "
            "directory; reconfigure and rebuild";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string compile_commands;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = fs::path(arg.substr(7));
    } else if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands = arg.substr(19);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: shardcheck [--root=DIR] [--compile-commands=FILE] "
                   "[ROOT...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "shardcheck: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots = {"src", "bench", "tests"};
  root = fs::weakly_canonical(root);

  // --- gather + lex ----------------------------------------------------------
  std::vector<SourceFile> files;
  for (const std::string& r : roots) {
    const fs::path dir = root / r;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      std::fprintf(stderr, "shardcheck: root %s is not a directory\n",
                   dir.string().c_str());
      return 2;
    }
    for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
      if (!it->is_regular_file() || !has_source_ext(it->path())) continue;
      SourceFile sf;
      sf.rel = to_rel(it->path(), root);
      std::ifstream in(it->path(), std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      sf.text = ss.str();
      files.push_back(std::move(sf));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  for (SourceFile& sf : files) sf.lex = shardcheck::lex(sf.text);

  // --- coverage cross-check against the CMake-compiled set -------------------
  if (!compile_commands.empty()) {
    std::vector<fs::path> compiled;
    std::string error;
    if (!read_compile_commands(compile_commands, compiled, error)) {
      std::fprintf(stderr, "shardcheck: %s\n", error.c_str());
      return 2;
    }
    std::set<std::string> compiled_rel;
    for (const fs::path& p : compiled) {
      const fs::path abs = fs::weakly_canonical(p);
      const std::string rel = to_rel(abs, root);
      for (const std::string& r : roots) {
        if (rel.rfind(r + "/", 0) == 0) {
          compiled_rel.insert(rel);
          break;
        }
      }
    }
    std::set<std::string> scanned_cpp;
    for (const SourceFile& sf : files) {
      if (sf.rel.size() > 4 &&
          sf.rel.compare(sf.rel.size() - 4, 4, ".cpp") == 0) {
        scanned_cpp.insert(sf.rel);
      }
    }
    std::vector<std::string> drift;
    for (const std::string& f : compiled_rel) {
      if (scanned_cpp.count(f) == 0) {
        drift.push_back(f + " is compiled but was not scanned");
      }
    }
    for (const std::string& f : scanned_cpp) {
      if (compiled_rel.count(f) == 0) {
        drift.push_back(f + " is scanned but not in the compile database "
                            "(stale build dir, or the CMake glob missed it)");
      }
    }
    if (!drift.empty()) {
      std::fprintf(stderr,
                   "shardcheck: lint file list drifted from the CMake source "
                   "list (%zu mismatch(es)) — reconfigure the build dir so "
                   "no file is silently unscanned:\n",
                   drift.size());
      for (const std::string& d : drift) {
        std::fprintf(stderr, "  %s\n", d.c_str());
      }
      return 2;
    }
  }

  // --- pass 1: cross-file symbols; pass 2: rules ------------------------------
  shardcheck::Symbols sym;
  for (const SourceFile& sf : files) shardcheck::collect_symbols(sf.lex, sym);

  std::vector<shardcheck::Diagnostic> diags;
  int suppressed_total = 0;
  for (const SourceFile& sf : files) {
    int suppressed = 0;
    auto d = shardcheck::analyze(sf.rel, sf.lex, sym, &suppressed);
    suppressed_total += suppressed;
    diags.insert(diags.end(), d.begin(), d.end());
  }

  for (const auto& d : diags) std::printf("%s\n", d.format().c_str());

  std::map<std::string, int> by_rule;
  for (const auto& d : diags) ++by_rule[d.rule];
  std::printf("shardcheck: %zu file(s) scanned, %zu unsuppressed "
              "diagnostic(s), %d suppressed\n",
              files.size(), diags.size(), suppressed_total);
  for (const auto& [rule, count] : by_rule) {
    std::printf("  shardcheck-%-18s %d\n", rule.c_str(), count);
  }
  return diags.empty() ? 0 : 1;
}
