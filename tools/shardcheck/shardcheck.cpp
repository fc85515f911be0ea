#include "shardcheck/shardcheck.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <optional>

namespace shardcheck {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool is(const Token& t, std::string_view text) noexcept {
  return t.text == text;
}
[[nodiscard]] bool is_ident(const Token& t, std::string_view text) noexcept {
  return t.kind == Tok::Ident && t.text == text;
}

[[nodiscard]] bool starts_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

/// Index of the token matching the opener at `open` (which must be one of
/// ( [ { ), or ts.size() when unbalanced.
[[nodiscard]] std::size_t match_forward(const Tokens& ts, std::size_t open) {
  const std::string_view o = ts[open].text;
  const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < ts.size(); ++i) {
    if (ts[i].kind != Tok::Punct) continue;
    if (ts[i].text == o) ++depth;
    if (ts[i].text == c && --depth == 0) return i;
  }
  return ts.size();
}

/// Index of the '>' closing the '<' at `open`, tracking only angle depth
/// (callers use this right after a template name, where shift/comparison
/// operators cannot appear at the top level). Returns ts.size() when the
/// scan runs away (e.g. a real less-than), capped to keep that cheap.
[[nodiscard]] std::size_t match_angle(const Tokens& ts, std::size_t open) {
  int depth = 0;
  const std::size_t limit = std::min(ts.size(), open + 256);
  for (std::size_t i = open; i < limit; ++i) {
    if (ts[i].kind != Tok::Punct) continue;
    if (ts[i].text == "<") ++depth;
    if (ts[i].text == ">" && --depth == 0) return i;
    if (ts[i].text == ";") break;  // statement ended: not a template
  }
  return ts.size();
}

// --- scope tracking ----------------------------------------------------------

/// Brace-depth walker that attributes tokens to their innermost class /
/// struct scope (namespaces tracked for depth only). Feed every token in
/// order through observe().
class ScopeTracker {
 public:
  void observe(const Tokens& ts, std::size_t i) {
    const Token& t = ts[i];
    if (t.kind == Tok::Ident) {
      if ((t.text == "class" || t.text == "struct") &&
          (i == 0 || (!is_ident(ts[i - 1], "enum") &&
                      !is_ident(ts[i - 1], "friend")))) {
        pending_ = Pending{true, true, head_name(ts, i + 1)};
      } else if (t.text == "namespace") {
        pending_ = Pending{true, false, head_name(ts, i + 1)};
      }
      return;
    }
    if (t.kind != Tok::Punct) return;
    // A '(' between the head and its '{' means we misread something like a
    // template parameter or a function signature — drop the pending head.
    if (t.text == "(" || t.text == ";") {
      pending_.active = false;
    } else if (t.text == "{") {
      if (pending_.active) {
        scopes_.push_back(Scope{pending_.is_class, pending_.name, depth_});
        pending_.active = false;
      }
      ++depth_;
    } else if (t.text == "}") {
      --depth_;
      if (!scopes_.empty() && scopes_.back().depth == depth_) {
        scopes_.pop_back();
      }
    }
  }

  /// True when the current token sits DIRECTLY inside a class/struct body
  /// (member-declaration scope), not nested in a member function body or
  /// an initializer brace.
  [[nodiscard]] bool at_member_scope() const noexcept {
    return !scopes_.empty() && scopes_.back().is_class &&
           depth_ == scopes_.back().depth + 1;
  }
  /// The class owning the member scope, valid when at_member_scope().
  [[nodiscard]] std::string_view member_class() const noexcept {
    return at_member_scope() ? std::string_view(scopes_.back().name)
                             : std::string_view{};
  }

 private:
  /// First identifier after a class/struct/namespace keyword, skipping
  /// [[attributes]]; empty for anonymous scopes.
  [[nodiscard]] static std::string head_name(const Tokens& ts, std::size_t i) {
    while (i < ts.size()) {
      if (is(ts[i], "[") && i + 1 < ts.size() && is(ts[i + 1], "[")) {
        i = match_forward(ts, i);  // outer ']' of [[...]]
        ++i;
        continue;
      }
      if (ts[i].kind == Tok::Ident) return std::string(ts[i].text);
      break;
    }
    return {};
  }

  struct Pending {
    bool active = false;
    bool is_class = false;
    std::string name;
  };
  struct Scope {
    bool is_class;
    std::string name;
    int depth;
  };
  Pending pending_;
  std::vector<Scope> scopes_;
  int depth_ = 0;
};

// --- container recognition (shared by pass 1 and R6/R7) ----------------------

/// std containers whose storage lives on the global heap unless an
/// ArenaAllocator is threaded through. SmallVec and std::array are exempt
/// by design (inline storage / arena spill).
constexpr std::array<std::string_view, 11> kHeapContainers = {
    "vector",        "deque",         "list",     "map",
    "set",           "multimap",      "multiset", "unordered_map",
    "unordered_set", "basic_string",  "string"};

[[nodiscard]] bool is_heap_container(std::string_view name) noexcept {
  return std::find(kHeapContainers.begin(), kHeapContainers.end(), name) !=
         kHeapContainers.end();
}

/// True when the identifier at `i` is reached through member access or a
/// non-std qualifier (Foo::vector) — never a std container use then.
[[nodiscard]] bool qualified_away(const Tokens& ts, std::size_t i) {
  if (i == 0) return false;
  if (is(ts[i - 1], ".") || is(ts[i - 1], "->")) return true;
  if (is(ts[i - 1], "::")) return !(i >= 2 && is_ident(ts[i - 2], "std"));
  return false;
}

struct ContainerMember {
  std::string name;
  int first_line;   ///< line of the container keyword
  int name_line;    ///< line of the declared member name
  bool arena_alloc; ///< instantiated with ArenaAllocator
  bool map_like;    ///< std::map / std::unordered_map (operator[] inserts)
  bool string_like; ///< std::string (operator+= / append allocate)
};

/// Parse a member declaration whose type starts with the container keyword
/// at `i` (the caller checks member scope). References/pointers are
/// rejected (non-owning), as are typedef/using aliases and function
/// declarators.
[[nodiscard]] std::optional<ContainerMember> parse_container_member(
    const Tokens& ts, std::size_t i) {
  const Token& t = ts[i];
  if (t.kind != Tok::Ident || !is_heap_container(t.text)) return std::nullopt;
  if (qualified_away(ts, i)) return std::nullopt;
  // typedef std::vector<...> Alias; / using handled by the forward scan
  // (the container sits at the END of a using-decl), but typedef needs a
  // lookback over the qualifier tokens.
  std::size_t b = i;
  while (b > 0 &&
         (is(ts[b - 1], "::") || is_ident(ts[b - 1], "std") ||
          is_ident(ts[b - 1], "const") || is_ident(ts[b - 1], "mutable") ||
          is_ident(ts[b - 1], "static"))) {
    --b;
  }
  if (b > 0 && (is_ident(ts[b - 1], "typedef") || is_ident(ts[b - 1], "using"))) {
    return std::nullopt;
  }

  bool arena = false;
  bool map_like = false;
  bool string_like = false;
  std::size_t k;
  if (i + 1 < ts.size() && is(ts[i + 1], "<")) {
    const std::size_t close = match_angle(ts, i + 1);
    if (close >= ts.size()) return std::nullopt;
    for (std::size_t a = i + 1; a < close; ++a) {
      if (is_ident(ts[a], "ArenaAllocator")) arena = true;
    }
    map_like = t.text == "map" || t.text == "unordered_map";
    k = close + 1;
  } else if (t.text == "string") {
    string_like = true;
    k = i + 1;
  } else {
    return std::nullopt;
  }

  while (k < ts.size() && is_ident(ts[k], "const")) ++k;
  if (k < ts.size() && (is(ts[k], "&") || is(ts[k], "*"))) {
    return std::nullopt;  // reference/pointer member: no owned heap storage
  }
  if (k >= ts.size() || ts[k].kind != Tok::Ident) return std::nullopt;
  if (k + 1 >= ts.size()) return std::nullopt;
  const std::string_view after = ts[k + 1].text;
  if (!(after == ";" || after == "=" || after == "{" || after == ",")) {
    return std::nullopt;  // function declarator or other non-member use
  }
  return ContainerMember{std::string(ts[k].text), t.line, ts[k].line,
                         arena, map_like, string_like};
}

// --- symbol collection (pass 1) ----------------------------------------------

/// After the closing '>' of a container template-id, find the declared
/// name: skips cv/ref/ptr tokens; rejects scope access (::), function
/// declarators and other non-declaration uses.
[[nodiscard]] std::optional<std::string> declared_name(const Tokens& ts,
                                                       std::size_t after) {
  std::size_t k = after;
  while (k < ts.size() &&
         (is(ts[k], "&") || is(ts[k], "*") || is_ident(ts[k], "const"))) {
    ++k;
  }
  if (k >= ts.size() || ts[k].kind != Tok::Ident) return std::nullopt;
  if (k + 1 < ts.size()) {
    const std::string_view nxt = ts[k + 1].text;
    // Declarations end in ; , = { ) (member, local, parameter). A '('
    // would be a function returning the container; '::' a nested-name use.
    if (!(nxt == ";" || nxt == "," || nxt == "=" || nxt == "{" ||
          nxt == ")")) {
      return std::nullopt;
    }
  }
  return std::string(ts[k].text);
}

/// First token line strictly greater than `line`; -1 when none. `lines` is
/// the sorted list of lines holding at least one token.
[[nodiscard]] int next_code_line(const std::vector<int>& lines, int line) {
  auto it = std::upper_bound(lines.begin(), lines.end(), line);
  return it == lines.end() ? -1 : *it;
}

[[nodiscard]] std::vector<int> token_lines(const LexOutput& lx) {
  std::vector<int> code_lines;
  code_lines.reserve(lx.tokens.size());
  for (const Token& t : lx.tokens) {
    if (code_lines.empty() || code_lines.back() != t.line) {
      code_lines.push_back(t.line);
    }
  }
  return code_lines;
}

/// Collect the base-class names of the class whose `class`/`struct` keyword
/// sits at `i` into `sym.bases`. Handles `final`, access specifiers,
/// virtual bases and templated bases (Base<T> records Base).
void collect_bases(const Tokens& ts, std::size_t i, Symbols& sym) {
  std::size_t k = i + 1;
  std::string name;
  if (k < ts.size() && ts[k].kind == Tok::Ident) {
    name = std::string(ts[k].text);
    ++k;
  }
  if (name.empty()) return;
  if (k < ts.size() && is_ident(ts[k], "final")) ++k;
  if (k >= ts.size() || !is(ts[k], ":")) return;  // no base clause
  std::set<std::string, std::less<>> bases;
  for (++k; k < ts.size(); ++k) {
    const Token& t = ts[k];
    if (t.kind == Tok::Punct) {
      if (t.text == "{" || t.text == ";" || t.text == "(") break;
      if (t.text == "<") {  // templated base: skip its arguments
        const std::size_t close = match_angle(ts, k);
        if (close >= ts.size()) break;
        k = close;
      }
      continue;
    }
    if (t.kind != Tok::Ident) continue;
    if (t.text == "public" || t.text == "protected" || t.text == "private" ||
        t.text == "virtual") {
      continue;
    }
    // Qualified bases (ns::Base): keep only the last identifier.
    if (k + 1 < ts.size() && is(ts[k + 1], "::")) continue;
    bases.insert(std::string(t.text));
  }
  if (!bases.empty()) sym.bases[name].insert(bases.begin(), bases.end());
}

}  // namespace

void collect_symbols(const LexOutput& lx, Symbols& sym) {
  const Tokens& ts = lx.tokens;
  const std::vector<int> code_lines = token_lines(lx);
  // Pass-1 view of arena-backed annotations: growth-checking must know,
  // across files, which members opted out (pass 2 re-parses the grammar
  // with used-tracking and error reporting).
  std::set<int> arena_lines;
  for (const Comment& c : lx.comments) {
    if (c.text.find("shardcheck:arena-backed") != std::string::npos) {
      arena_lines.insert(c.own_line ? next_code_line(code_lines, c.line)
                                    : c.line);
    }
  }
  const auto arena_annotated = [&arena_lines](int first, int last) {
    auto it = arena_lines.lower_bound(first);
    return it != arena_lines.end() && *it <= last;
  };

  ScopeTracker scopes;
  int parens = 0;  // parameter lists sit at member brace depth: skip them
  for (std::size_t i = 0; i < ts.size(); ++i) {
    scopes.observe(ts, i);
    const Token& t = ts[i];
    if (t.kind == Tok::Punct) {
      if (t.text == "(") ++parens;
      if (t.text == ")") --parens;
    }
    if (t.kind != Tok::Ident) continue;

    // Class inheritance edges (R7 resolves Protocol-derived from these).
    if ((t.text == "class" || t.text == "struct") &&
        (i == 0 || (!is_ident(ts[i - 1], "enum") &&
                    !is_ident(ts[i - 1], "friend")))) {
      collect_bases(ts, i, sym);
      continue;
    }

    // std::unordered_map<...> name / std::unordered_set<...> name, both as
    // a direct declaration and as the element of an ordered outer container
    // (vector<unordered_set<T>> held_ — iterating held_[v] is the hazard).
    if ((t.text == "unordered_map" || t.text == "unordered_set") &&
        i + 1 < ts.size() && is(ts[i + 1], "<")) {
      const std::size_t close = match_angle(ts, i + 1);
      if (close >= ts.size()) continue;
      std::size_t k = close + 1;
      bool wrapped = false;
      while (k < ts.size() && is(ts[k], ">")) {  // outer template closes
        wrapped = true;
        ++k;
      }
      if (auto name = declared_name(ts, k)) {
        (wrapped ? sym.unordered_elem : sym.unordered_direct)
            .insert(std::move(*name));
      }
      // Fall through: the same token may open a container-member parse.
    }

    // Contiguous containers of raw pointers (std::sort hazard).
    if ((t.text == "vector" || t.text == "deque" || t.text == "SmallVec") &&
        i + 1 < ts.size() && is(ts[i + 1], "<")) {
      const std::size_t close = match_angle(ts, i + 1);
      if (close < ts.size()) {
        int depth = 0;
        bool ptr_elem = false;
        for (std::size_t k = i + 1; k < close; ++k) {
          if (is(ts[k], "<")) ++depth;
          if (is(ts[k], ">")) --depth;
          if (depth == 1 && is(ts[k], "*")) ptr_elem = true;
        }
        if (ptr_elem) {
          if (auto name = declared_name(ts, close + 1)) {
            sym.pointer_containers.insert(std::move(*name));
          }
        }
      }
    }

    // Heap-container MEMBERS (any class): growth calls on them inside hot
    // regions are R6 unless they carry ArenaAllocator or an arena-backed
    // annotation at the declaration site.
    if (parens == 0 && scopes.at_member_scope()) {
      if (auto m = parse_container_member(ts, i)) {
        if (!m->arena_alloc && !arena_annotated(m->first_line, m->name_line)) {
          sym.growth_members.insert(m->name);
          if (m->map_like) sym.map_members.insert(m->name);
          if (m->string_like) sym.string_members.insert(m->name);
        }
        continue;
      }
    }
  }
}

// --- pass 2: suppressions, regions, rules ------------------------------------

namespace {

struct Suppression {
  int target_line = -1;
  int comment_line = 0;
  std::string rule;
  bool used = false;
};

/// sharded-hook / hot-path function annotations.
struct FnAnnotation {
  int target_line = -1;
  int comment_line = 0;
  bool hot_path = false;  ///< hot-path (R6 only) vs sharded-hook (full set)
  bool used = false;
};

/// arena-backed / cold-state member annotations.
struct MemberAnnotation {
  int target_line = -1;
  int comment_line = 0;
  bool cold = false;  ///< cold-state vs arena-backed
  bool used = false;
};

struct Directives {
  std::vector<Suppression> suppressions;
  std::vector<FnAnnotation> annotations;
  std::vector<MemberAnnotation> member_annotations;
  std::vector<Diagnostic> malformed;  ///< bad-suppression diagnostics
};

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parse the shardcheck directive grammar out of every comment:
///   shardcheck:ok(Rn: reason)            suppression (reason mandatory)
///   shardcheck:sharded-hook(reason)      helper joins the sharded rule set
///   shardcheck:hot-path(reason)          function joins the R6 rule set
///   shardcheck:arena-backed(reason)      member growth is arena/capacity-safe
///   shardcheck:cold-state(reason)        member is never touched when hot
/// A trailing comment targets its own line; an own-line comment targets the
/// next code line.
[[nodiscard]] Directives parse_directives(const std::string& path,
                                          const LexOutput& lx,
                                          const std::vector<int>& code_lines) {
  Directives out;
  for (const Comment& c : lx.comments) {
    const std::string& text = c.text;
    const int target =
        c.own_line ? next_code_line(code_lines, c.line) : c.line;
    std::size_t pos = 0;
    while ((pos = text.find("shardcheck:", pos)) != std::string::npos) {
      std::size_t p = pos + std::string_view("shardcheck:").size();
      enum class Kind { kOk, kShardedHook, kHotPath, kArenaBacked, kColdState };
      static constexpr std::pair<std::string_view, Kind> kKeywords[] = {
          {"ok", Kind::kOk},
          {"sharded-hook", Kind::kShardedHook},
          {"hot-path", Kind::kHotPath},
          {"arena-backed", Kind::kArenaBacked},
          {"cold-state", Kind::kColdState},
      };
      std::optional<Kind> kind;
      std::size_t kw_len = 0;
      for (const auto& [word, k] : kKeywords) {
        if (text.compare(p, word.size(), word) == 0 && word.size() > kw_len) {
          kind = k;
          kw_len = word.size();
        }
      }
      pos = p;
      if (!kind) {
        out.malformed.push_back(
            {path, c.line, "bad-suppression",
             "unknown shardcheck directive (expected shardcheck:ok(Rn: "
             "reason), shardcheck:sharded-hook(reason), "
             "shardcheck:hot-path(reason), shardcheck:arena-backed(reason) "
             "or shardcheck:cold-state(reason))"});
        continue;
      }
      p += kw_len;
      while (p < text.size() &&
             std::isspace(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      const std::size_t open = p;
      const std::size_t close =
          open < text.size() && text[open] == '('
              ? text.find(')', open)
              : std::string::npos;
      if (close == std::string::npos) {
        out.malformed.push_back(
            {path, c.line, "bad-suppression",
             *kind == Kind::kOk
                 ? "shardcheck:ok needs (Rn: reason) — the reason is mandatory"
                 : "shardcheck annotation needs a (reason)"});
        continue;
      }
      const std::string_view body =
          trim(std::string_view(text).substr(open + 1, close - open - 1));
      if (*kind != Kind::kOk) {
        if (body.empty()) {
          out.malformed.push_back({path, c.line, "bad-suppression",
                                   "shardcheck annotation needs a non-empty "
                                   "reason"});
          continue;
        }
        if (*kind == Kind::kShardedHook || *kind == Kind::kHotPath) {
          out.annotations.push_back(
              FnAnnotation{target, c.line, *kind == Kind::kHotPath, false});
        } else {
          out.member_annotations.push_back(
              MemberAnnotation{target, c.line, *kind == Kind::kColdState,
                               false});
        }
        continue;
      }
      const std::size_t colon = body.find(':');
      std::string_view rule =
          trim(colon == std::string_view::npos ? body : body.substr(0, colon));
      std::string_view reason =
          colon == std::string_view::npos ? std::string_view{}
                                          : trim(body.substr(colon + 1));
      const bool rule_ok =
          rule.size() >= 2 && rule[0] == 'R' &&
          std::all_of(rule.begin() + 1, rule.end(), [](char ch) {
            return std::isdigit(static_cast<unsigned char>(ch));
          });
      if (!rule_ok || reason.empty()) {
        out.malformed.push_back(
            {path, c.line, "bad-suppression",
             "malformed suppression — use shardcheck:ok(Rn: reason) with a "
             "non-empty reason"});
        continue;
      }
      out.suppressions.push_back(
          Suppression{target, c.line, std::string(rule), false});
    }
  }
  return out;
}

struct Region {
  bool sharded = false;  ///< R1 + R3 apply (implies R2 and R6)
  bool merge = false;    ///< R2 applies
  bool hot = false;      ///< R6 applies (sharded hooks and hot-path fns)
  std::size_t param_begin, param_end;  ///< tokens inside ( ... )
  std::size_t body_begin, body_end;    ///< tokens inside { ... }
};

constexpr std::array<std::string_view, 12> kNotAFunctionName = {
    "if",     "for",   "while",    "switch", "catch",  "return",
    "sizeof", "throw", "decltype", "new",    "delete", "co_return"};

/// Recognize function definitions and classify sharded-hook / merge /
/// hot-path regions. Walks the whole token stream once.
[[nodiscard]] std::vector<Region> find_regions(const LexOutput& lx,
                                               Directives& dirs) {
  const Tokens& ts = lx.tokens;
  std::vector<Region> regions;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (t.kind != Tok::Ident || i + 1 >= ts.size() || !is(ts[i + 1], "(")) {
      continue;
    }
    if (std::find(kNotAFunctionName.begin(), kNotAFunctionName.end(),
                  t.text) != kNotAFunctionName.end()) {
      continue;
    }
    // Member-call and qualified-call sites are never definitions.
    if (i > 0 && (is(ts[i - 1], ".") || is(ts[i - 1], "->"))) continue;

    const std::size_t close = match_forward(ts, i + 1);
    if (close >= ts.size()) continue;
    // Skip cv/ref/noexcept/override between ')' and the body '{'.
    std::size_t k = close + 1;
    while (k < ts.size()) {
      if (is_ident(ts[k], "const") || is_ident(ts[k], "override") ||
          is_ident(ts[k], "final") || is(ts[k], "&")) {
        ++k;
        continue;
      }
      if (is_ident(ts[k], "noexcept")) {
        ++k;
        if (k < ts.size() && is(ts[k], "(")) k = match_forward(ts, k) + 1;
        continue;
      }
      break;
    }
    if (k >= ts.size() || !is(ts[k], "{")) continue;  // call or declaration
    const std::size_t body_end = match_forward(ts, k);
    if (body_end >= ts.size()) continue;

    // Classify.
    bool has_shard_ctx = false;
    for (std::size_t p = i + 2; p < close; ++p) {
      if (is_ident(ts[p], "ShardContext")) has_shard_ctx = true;
    }

    Region r;
    if ((t.text == "on_round_begin" || t.text == "on_message") &&
        has_shard_ctx) {
      r.sharded = true;
    } else if (t.text == "on_round_merge" || t.text == "on_dispatch_merge") {
      r.merge = true;
    }
    // A shardcheck:sharded-hook / hot-path annotation right above the
    // definition pulls any function into the respective rule set. The
    // annotation targets the first line of the declaration; the name may
    // sit a couple of lines below it in a multi-line signature.
    for (FnAnnotation& a : dirs.annotations) {
      if (a.target_line >= 0 && a.target_line <= t.line &&
          t.line <= a.target_line + 2) {
        a.used = true;
        if (a.hot_path) {
          r.hot = true;
        } else {
          r.sharded = true;
        }
      }
    }
    if (r.sharded) r.hot = true;
    if (!r.sharded && !r.merge && !r.hot) continue;
    r.param_begin = i + 2;
    r.param_end = close;
    r.body_begin = k + 1;
    r.body_end = body_end;
    regions.push_back(r);
  }
  return regions;
}

constexpr std::array<std::string_view, 10> kGrowthMethods = {
    "push_back", "emplace_back", "push_front", "emplace_front", "resize",
    "insert",    "emplace",      "append",     "reserve",        "assign"};

[[nodiscard]] bool is_growth_method(std::string_view name) noexcept {
  return std::find(kGrowthMethods.begin(), kGrowthMethods.end(), name) !=
         kGrowthMethods.end();
}

/// Protocol plus every class transitively derived from it, resolved from
/// the pass-1 inheritance edges.
[[nodiscard]] std::set<std::string, std::less<>> protocol_derived(
    const Symbols& sym) {
  std::set<std::string, std::less<>> out = {"Protocol"};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [cls, bases] : sym.bases) {
      if (out.count(cls) > 0) continue;
      for (const std::string& b : bases) {
        if (out.count(b) > 0) {
          out.insert(cls);
          changed = true;
          break;
        }
      }
    }
  }
  return out;
}

class Analysis {
 public:
  Analysis(const std::string& path, const LexOutput& lx, const Symbols& sym)
      : path_(path),
        ts_(lx.tokens),
        sym_(sym),
        in_src_(starts_with(path, "src/")) {}

  void diag(int line, const char* rule, std::string message) {
    raw_.push_back(Diagnostic{path_, line, rule, std::move(message)});
  }

  // --- R1/R2/R3/R6 inside one region ------------------------------------
  void check_region(const Region& r) {
    const char* where = r.sharded  ? "sharded hook"
                        : r.merge ? "merge body"
                                  : "hot-path function";
    collect_aliases(r);
    if (r.sharded) {
      for (std::size_t i = r.param_begin; i + 1 < r.param_end; ++i) {
        if (is_ident(ts_[i], "Rng") && is(ts_[i + 1], "&")) {
          diag(ts_[i].line, "R1",
               "Rng& parameter in a sharded hook shares sequential generator "
               "state across shards — take a stream_rng key instead");
        }
      }
    }
    const bool r6 = r.hot && in_src_;
    for (std::size_t i = r.body_begin; i < r.body_end; ++i) {
      const Token& t = ts_[i];
      if (t.kind != Tok::Ident) continue;
      if (r.sharded) check_r1(i);
      if (r.sharded) check_r3(i);
      if (r.sharded || r.merge) check_r2(i, where);
      if (r6) check_r6(i, where);
    }
  }

  void check_r1(std::size_t i) {
    const Token& t = ts_[i];
    if (t.text == "rng_") {
      diag(t.line, "R1",
           "shared sequential rng_ used in a sharded hook — draw from a "
           "per-(round,vertex) stream_rng instead");
    } else if (t.text == "protocol_rng") {
      diag(t.line, "R1",
           "net().protocol_rng() is shared sequential state — sharded hooks "
           "must use per-(round,vertex) stream_rng");
    } else if (t.text == "Rng" && i + 1 < ts_.size() && is(ts_[i + 1], "&")) {
      diag(t.line, "R1",
           "Rng& binding in a sharded hook aliases shared generator state — "
           "copy a stream_rng by value");
    }
  }

  /// Track `auto& alias = unordered_expr;` bindings inside the region so
  /// iteration through the alias is still seen (auto& st = state_[v]; for
  /// (auto& [k, m] : st) is the idiomatic escape hatch).
  void collect_aliases(const Region& r) {
    aliases_.clear();
    for (std::size_t i = r.body_begin; i + 4 < r.body_end; ++i) {
      if (!is_ident(ts_[i], "auto") || !is(ts_[i + 1], "&") ||
          ts_[i + 2].kind != Tok::Ident || !is(ts_[i + 3], "=")) {
        continue;
      }
      const std::size_t rhs = i + 4;
      if (ts_[rhs].kind != Tok::Ident) continue;
      const std::string_view src_name = ts_[rhs].text;
      if (is_direct_unordered(src_name) && rhs + 1 < r.body_end &&
          is(ts_[rhs + 1], ";")) {
        aliases_.insert(std::string(ts_[i + 2].text));
      } else if (sym_.unordered_elem.count(src_name) > 0 &&
                 rhs + 1 < r.body_end && is(ts_[rhs + 1], "[")) {
        const std::size_t rb = match_forward(ts_, rhs + 1);
        if (rb + 1 < r.body_end && is(ts_[rb + 1], ";")) {
          aliases_.insert(std::string(ts_[i + 2].text));
        }
      }
    }
  }

  [[nodiscard]] bool is_direct_unordered(std::string_view name) const {
    return sym_.unordered_direct.count(name) > 0 ||
           aliases_.count(std::string(name)) > 0;
  }

  void check_r2(std::size_t i, const char* where) {
    const Token& t = ts_[i];
    // Range-for whose range expression names unordered state.
    if (t.text == "for" && i + 1 < ts_.size() && is(ts_[i + 1], "(")) {
      const std::size_t close = match_forward(ts_, i + 1);
      if (close >= ts_.size()) return;
      std::size_t colon = ts_.size();
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (is(ts_[k], "(") || is(ts_[k], "[")) ++depth;
        if (is(ts_[k], ")") || is(ts_[k], "]")) --depth;
        if (depth == 1 && ts_[k].kind == Tok::Punct && ts_[k].text == ":") {
          colon = k;
          break;
        }
      }
      if (colon == ts_.size()) return;  // classic for; iterator form is
                                        // caught by .begin() below
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (ts_[k].kind != Tok::Ident) continue;
        if (flag_unordered_use(k, where, "iterated by a range-for")) break;
      }
      return;
    }
    // Explicit iterator walks: name.begin() / name[i].begin().
    if (i + 2 < ts_.size() && is(ts_[i + 1], ".") &&
        (is_ident(ts_[i + 2], "begin") || is_ident(ts_[i + 2], "cbegin")) &&
        is_direct_unordered(t.text)) {
      diag(t.line, "R2",
           "iterates std::unordered_* '" + std::string(t.text) + "' in a " +
               where + " — bucket order is not S-invariant; use an ordered "
               "container or stage keys and sort");
    } else if (i + 1 < ts_.size() && is(ts_[i + 1], "[") &&
               sym_.unordered_elem.count(t.text) > 0) {
      const std::size_t rb = match_forward(ts_, i + 1);
      if (rb + 2 < ts_.size() && is(ts_[rb + 1], ".") &&
          (is_ident(ts_[rb + 2], "begin") || is_ident(ts_[rb + 2], "cbegin"))) {
        diag(t.line, "R2",
             "iterates unordered element of '" + std::string(t.text) +
                 "' in a " + where + " — bucket order is not S-invariant");
      }
    }
  }

  /// True (and diagnoses) when token k names unordered state being iterated.
  bool flag_unordered_use(std::size_t k, const char* where,
                          const char* how) {
    const Token& t = ts_[k];
    const bool subscripted = k + 1 < ts_.size() && is(ts_[k + 1], "[");
    if (is_direct_unordered(t.text) && !subscripted) {
      diag(t.line, "R2",
           "std::unordered_* '" + std::string(t.text) + "' " + how + " in a " +
               where + " — bucket order is not S-invariant; use an ordered "
               "container or stage keys and sort");
      return true;
    }
    if (sym_.unordered_elem.count(t.text) > 0 && subscripted) {
      diag(t.line, "R2",
           "unordered element of '" + std::string(t.text) + "' " + how +
               " in a " + where + " — bucket order is not S-invariant");
      return true;
    }
    return false;
  }

  void check_r3(std::size_t i) {
    const Token& t = ts_[i];
    if (t.text == "net" && i + 4 < ts_.size() && is(ts_[i + 1], "(") &&
        is(ts_[i + 2], ")") && is(ts_[i + 3], ".") &&
        is_ident(ts_[i + 4], "send")) {
      diag(t.line, "R3",
           "direct net().send in a sharded hook bypasses the shard lane — "
           "route through ctx.send so merges stay canonical");
    } else if (t.text == "net_" && i + 2 < ts_.size() && is(ts_[i + 1], ".") &&
               is_ident(ts_[i + 2], "send")) {
      diag(t.line, "R3",
           "direct net_.send in a sharded hook bypasses the shard lane — "
           "route through ctx.send");
    } else if (t.text == "charge_bits" || t.text == "charge_bits_local" ||
               t.text == "add_total_bits" || t.text == "charge_processing") {
      diag(t.line, "R3",
           "metrics charge '" + std::string(t.text) +
               "' in a sharded hook — stage it per shard and apply it in "
               "the merge (charge_processing, ascending shard order)");
    }
  }

  // --- R6: heap discipline inside hot regions ---------------------------
  void check_r6(std::size_t i, const char* where) {
    const Token& t = ts_[i];
    if (t.text == "new") {
      diag(t.line, "R6",
           std::string("operator new in a ") + where +
               " — the steady state must be heap-quiet; draw from the shard "
               "arena (util/arena.h) or hoist the allocation to "
               "attach/prologue time");
      return;
    }
    if (t.text == "make_unique" || t.text == "make_shared") {
      diag(t.line, "R6",
           "std::" + std::string(t.text) + " allocates in a " + where +
               " — the steady state must be heap-quiet; hoist the allocation "
               "out of the per-round path");
      return;
    }
    if (t.text == "function" && i >= 2 && is(ts_[i - 1], "::") &&
        is_ident(ts_[i - 2], "std") && i + 1 < ts_.size() &&
        is(ts_[i + 1], "<")) {
      diag(t.line, "R6",
           std::string("std::function construction in a ") + where +
               " — capture storage heap-allocates; take a template callable "
               "or a function pointer instead");
      return;
    }
    // Local std container declarations / temporaries without ArenaAllocator.
    if (is_heap_container(t.text) && !qualified_away(ts_, i)) {
      if (i + 1 < ts_.size() && is(ts_[i + 1], "<")) {
        const std::size_t close = match_angle(ts_, i + 1);
        if (close < ts_.size()) {
          bool arena = false;
          for (std::size_t a = i + 1; a < close; ++a) {
            if (is_ident(ts_[a], "ArenaAllocator")) arena = true;
          }
          if (!arena && local_alloc_shape(close + 1)) {
            diag(t.line, "R6",
                 "local std::" + std::string(t.text) + " in a " + where +
                     " allocates from the global heap — instantiate with "
                     "ArenaAllocator or reuse a pre-sized member buffer");
            return;
          }
        }
      } else if (t.text == "string" && local_alloc_shape(i + 1)) {
        diag(t.line, "R6",
             std::string("local std::string in a ") + where +
                 " allocates from the global heap — use string_view or a "
                 "reused member buffer");
        return;
      }
    }
    // Growth calls on members that never declared their arena discipline.
    if (sym_.growth_members.count(t.text) > 0) {
      std::size_t k = i + 1;
      if (k < ts_.size() && is(ts_[k], "[")) {
        const std::size_t rb = match_forward(ts_, k);
        if (rb < ts_.size()) k = rb + 1;
      }
      if (k + 1 < ts_.size() && (is(ts_[k], ".") || is(ts_[k], "->")) &&
          is_growth_method(ts_[k + 1].text)) {
        diag(t.line, "R6",
             "growth call '" + std::string(t.text) + "." +
                 std::string(ts_[k + 1].text) + "' in a " + where +
                 " on a member not marked arena-backed — back it with "
                 "ArenaAllocator, or annotate the declaration "
                 "// shardcheck:arena-backed(reason) with the steady-state "
                 "capacity argument");
        return;
      }
      // The lexer emits single punctuation chars (only :: and -> fuse), so
      // += arrives as '+' '='.
      if (k + 1 < ts_.size() && is(ts_[k], "+") && is(ts_[k + 1], "=") &&
          sym_.string_members.count(t.text) > 0) {
        diag(t.line, "R6",
             "'" + std::string(t.text) + " +=' in a " + where +
                 " may reallocate the string — build cold or annotate the "
                 "member arena-backed with the capacity argument");
        return;
      }
    }
    if (sym_.map_members.count(t.text) > 0 && i + 1 < ts_.size() &&
        is(ts_[i + 1], "[")) {
      diag(t.line, "R6",
           "operator[] on map member '" + std::string(t.text) + "' in a " +
               where +
               " inserts a heap node when the key is absent — use find() for "
               "reads, or annotate the member arena-backed if growth here is "
               "intended");
    }
  }

  /// True when the tokens starting at `k` (right after the container
  /// type-id) declare or construct an owning object: `name ...`,
  /// `(args)` or `{args}`. References, pointers and nested-name uses
  /// (::iterator) don't allocate and return false.
  [[nodiscard]] bool local_alloc_shape(std::size_t k) const {
    while (k < ts_.size() && is_ident(ts_[k], "const")) ++k;
    if (k >= ts_.size()) return false;
    if (is(ts_[k], "&") || is(ts_[k], "*")) return false;
    const Token& nx = ts_[k];
    if (nx.kind == Tok::Ident) {
      if (k + 1 >= ts_.size()) return false;
      const std::string_view after = ts_[k + 1].text;
      return after == ";" || after == "=" || after == "{" || after == "(" ||
             after == ",";
    }
    return is(nx, "(") || is(nx, "{");
  }

  // --- R4 over the whole file (src/ outside util/) ----------------------
  void check_r4() {
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      const Token& t = ts_[i];
      if (t.kind != Tok::Ident) continue;
      const bool call_next = i + 1 < ts_.size() && is(ts_[i + 1], "(");
      if ((t.text == "rand" || t.text == "srand" || t.text == "time") &&
          call_next && plausibly_global_call(i)) {
        diag(t.line, "R4",
             std::string(t.text) +
                 "() draws ambient wall-clock/library state — all randomness "
                 "must come from the seeded Rng tree (util/rng.h)");
      } else if (t.text == "random_device") {
        diag(t.line, "R4",
             "std::random_device is nondeterministic — seed from the master "
             "seed via util/rng.h instead");
      } else if ((t.text == "system_clock" || t.text == "steady_clock" ||
                  t.text == "high_resolution_clock") &&
                 i + 2 < ts_.size() && is(ts_[i + 1], "::") &&
                 is_ident(ts_[i + 2], "now")) {
        diag(t.line, "R4",
             "wall-clock read (" + std::string(t.text) +
                 "::now) in src/ — simulation logic must be a pure function "
                 "of the seed; measurement-only reads need a reasoned "
                 "suppression");
      } else if (t.text == "static" || t.text == "thread_local") {
        check_mutable_static(i);
      }
    }
  }

  [[nodiscard]] bool plausibly_global_call(std::size_t i) const {
    if (i == 0) return true;
    const Token& p = ts_[i - 1];
    if (is(p, ".") || is(p, "->")) return false;  // member call
    if (is(p, "::")) return i >= 2 && is_ident(ts_[i - 2], "std");
    return true;
  }

  void check_mutable_static(std::size_t i) {
    // `static thread_local` — report once, on the first keyword.
    if (i > 0 && (is_ident(ts_[i - 1], "static") ||
                  is_ident(ts_[i - 1], "thread_local"))) {
      return;
    }
    // const/constexpr may precede the storage keyword.
    for (std::size_t b = i; b-- > 0 && b + 4 > i;) {
      if (is_ident(ts_[b], "const") || is_ident(ts_[b], "constexpr") ||
          is_ident(ts_[b], "constinit")) {
        return;
      }
      if (ts_[b].kind == Tok::Punct && !is(ts_[b], "&") && !is(ts_[b], "*")) {
        break;
      }
    }
    // Scan the decl-specifiers: immutable qualifiers allow it; a '(' at
    // angle-depth 0 before any terminator means a function declaration.
    int angle = 0;
    for (std::size_t k = i + 1; k < ts_.size() && k < i + 64; ++k) {
      const Token& t = ts_[k];
      if (t.kind == Tok::Ident) {
        if (t.text == "const" || t.text == "constexpr" ||
            t.text == "constinit") {
          return;
        }
        continue;
      }
      if (t.kind != Tok::Punct) continue;
      if (t.text == "<") ++angle;
      if (t.text == ">") --angle;
      if (angle > 0) continue;
      if (t.text == "(") return;  // function declaration/definition
      if (t.text == ";" || t.text == "=" || t.text == "{") {
        diag(ts_[i].line, "R4",
             "mutable " + std::string(ts_[i].text) +
                 " state is shared across trials/shards — thread it through "
                 "the owning object, or suppress with the reason it is safe");
        return;
      }
    }
  }

  // --- R5 everywhere ----------------------------------------------------
  void check_r5() {
    for (std::size_t i = 0; i + 2 < ts_.size(); ++i) {
      if (!is_ident(ts_[i], "std") || !is(ts_[i + 1], "::")) continue;
      const Token& name = ts_[i + 2];
      if (name.kind != Tok::Ident) continue;
      if ((name.text == "map" || name.text == "set" ||
           name.text == "multimap" || name.text == "multiset") &&
          i + 3 < ts_.size() && is(ts_[i + 3], "<")) {
        const std::size_t close = match_angle(ts_, i + 3);
        if (close >= ts_.size()) continue;
        int depth = 0;
        for (std::size_t k = i + 3; k < close; ++k) {
          if (is(ts_[k], "<")) ++depth;
          if (is(ts_[k], ">")) --depth;
          if (depth == 1 && is(ts_[k], ",")) break;  // key type ends
          if (depth == 1 && is(ts_[k], "*")) {
            diag(name.line, "R5",
                 "std::" + std::string(name.text) +
                     " keyed on a raw pointer orders by address — "
                     "nondeterministic across runs; key on a stable id");
            break;
          }
        }
      } else if ((name.text == "sort" || name.text == "stable_sort") &&
                 i + 3 < ts_.size() && is(ts_[i + 3], "(") &&
                 i + 4 < ts_.size() && ts_[i + 4].kind == Tok::Ident &&
                 sym_.pointer_containers.count(ts_[i + 4].text) > 0) {
        diag(name.line, "R5",
             "std::" + std::string(name.text) + " over pointer container '" +
                 std::string(ts_[i + 4].text) +
                 "' orders by address — nondeterministic across runs; sort "
                 "by a stable key");
      }
    }
  }

  // --- R7: arena discipline declared at the member declaration ----------
  /// Walks every class-member container declaration: marks arena-backed /
  /// cold-state annotations used (any class — the annotation also exempts
  /// R6 growth), and requires one (or ArenaAllocator) on every container
  /// member of a Protocol-derived class.
  void check_r7(Directives& dirs) {
    const std::set<std::string, std::less<>> protocols =
        protocol_derived(sym_);
    ScopeTracker scopes;
    int parens = 0;  // parameter lists sit at member brace depth: skip them
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      scopes.observe(ts_, i);
      if (ts_[i].kind == Tok::Punct) {
        if (ts_[i].text == "(") ++parens;
        if (ts_[i].text == ")") --parens;
      }
      if (ts_[i].kind != Tok::Ident || parens != 0 ||
          !scopes.at_member_scope()) {
        continue;
      }
      const auto m = parse_container_member(ts_, i);
      if (!m) continue;
      bool annotated = false;
      for (MemberAnnotation& a : dirs.member_annotations) {
        if (a.target_line >= m->first_line && a.target_line <= m->name_line) {
          a.used = true;
          annotated = true;
        }
      }
      if (m->arena_alloc || annotated) continue;
      const std::string cls(scopes.member_class());
      if (protocols.count(cls) == 0) continue;
      diag(m->first_line, "R7",
           "container member '" + m->name + "' of Protocol-derived class '" +
               cls +
               "' does not declare its arena discipline — instantiate with "
               "ArenaAllocator, or annotate "
               "// shardcheck:arena-backed(reason) (hot growth is arena-safe) "
               "or // shardcheck:cold-state(reason) (allocated/resized only "
               "in cold serial context)");
    }
  }

  [[nodiscard]] std::vector<Diagnostic> take() { return std::move(raw_); }

 private:
  const std::string& path_;
  const Tokens& ts_;
  const Symbols& sym_;
  const bool in_src_;
  std::set<std::string, std::less<>> aliases_;  ///< region-local bindings
  std::vector<Diagnostic> raw_;
};

}  // namespace

std::vector<Diagnostic> analyze(const std::string& path, const LexOutput& lx,
                                const Symbols& sym, int* suppressed_count) {
  const std::vector<int> code_lines = token_lines(lx);
  Directives dirs = parse_directives(path, lx, code_lines);
  std::vector<Region> regions = find_regions(lx, dirs);

  Analysis a(path, lx, sym);
  for (const Region& r : regions) a.check_region(r);
  if (starts_with(path, "src/") && !starts_with(path, "src/util/")) {
    a.check_r4();
  }
  a.check_r5();
  // R7 runs for src/ only, but always walks the member declarations so
  // arena-backed / cold-state annotations in any scanned file get their
  // used flags set (they may exist purely for R6 growth exemptions).
  a.check_r7(dirs);

  std::vector<Diagnostic> out = std::move(dirs.malformed);
  int suppressed = 0;
  for (Diagnostic& d : a.take()) {
    if (d.rule == "R7" && !starts_with(path, "src/")) continue;
    bool hit = false;
    for (Suppression& s : dirs.suppressions) {
      if (s.target_line == d.line && s.rule == d.rule) {
        s.used = true;
        hit = true;
      }
    }
    if (hit) {
      ++suppressed;
    } else {
      out.push_back(std::move(d));
    }
  }
  for (const Suppression& s : dirs.suppressions) {
    if (!s.used) {
      out.push_back({path, s.comment_line, "unused-suppression",
                     "suppression for " + s.rule +
                         " matches no diagnostic — delete it (stale "
                         "suppressions hide future regressions)"});
    }
  }
  for (const FnAnnotation& an : dirs.annotations) {
    if (!an.used) {
      out.push_back({path, an.comment_line, "unused-suppression",
                     std::string("shardcheck:") +
                         (an.hot_path ? "hot-path" : "sharded-hook") +
                         " annotation is not attached to a function "
                         "definition — move it to the line directly above "
                         "one"});
    }
  }
  for (const MemberAnnotation& an : dirs.member_annotations) {
    if (!an.used) {
      out.push_back({path, an.comment_line, "unused-suppression",
                     std::string("shardcheck:") +
                         (an.cold ? "cold-state" : "arena-backed") +
                         " annotation is not attached to a container member "
                         "declaration — move it onto (or directly above) "
                         "one"});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& x, const Diagnostic& y) {
              return x.line != y.line ? x.line < y.line : x.rule < y.rule;
            });
  if (suppressed_count != nullptr) *suppressed_count = suppressed;
  return out;
}

std::vector<Diagnostic> check_source(const std::string& path,
                                     std::string_view text,
                                     int* suppressed_count) {
  const LexOutput lx = lex(text);
  Symbols sym;
  collect_symbols(lx, sym);
  return analyze(path, lx, sym, suppressed_count);
}

}  // namespace shardcheck
