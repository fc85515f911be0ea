// shardcheck — the repo's determinism and arena-discipline linter.
//
// Statically enforces the ShardContext contract documented in
// src/core/protocol.h. Every rule is always on, each within its scope
// below (see README "Static analysis" for the catalog with rationale):
//
//   R1  no shared sequential Rng use (rng_ members, protocol_rng(), Rng&
//       bindings/params) inside sharded hook bodies — per-(round,vertex)
//       stream_rng only.
//   R2  no iteration over std::unordered_map / std::unordered_set state
//       inside sharded hooks or on_*_merge() bodies.
//   R3  no direct net().send / net_.send and no metrics charges inside
//       sharded hooks — sends route through ctx.send; a charge is staged
//       per shard and applied in the merge.
//   R4  global ban (src/ outside util/) on wall-clock and ambient
//       randomness — rand(), std::random_device, time(), *_clock::now —
//       and on mutable static / thread_local state.
//   R5  pointer-keyed ordering: std::map/std::set keyed on raw pointers,
//       std::sort over containers of raw pointers.
//   R6  heap discipline in hot regions (sharded hooks plus functions marked
//       `// shardcheck:hot-path(reason)`; src/ only): no operator new /
//       make_unique / make_shared, no std::function construction, no local
//       std container declarations or temporaries without ArenaAllocator,
//       and no growth calls (push_back / emplace_back / resize / insert /
//       reserve / append / assign, map operator[]-insert, += on strings) on
//       container members not marked `// shardcheck:arena-backed(reason)`.
//       The runtime counterpart is util/heap_sentinel.h: R6 proves the
//       steady state heap-quiet lexically, HeapQuiesceScope proves it
//       empirically — a violation should trip both.
//   R7  arena boundary declared at the declaration site (src/ only): every
//       std container member of a Protocol-derived class either takes
//       ArenaAllocator or carries a `// shardcheck:arena-backed(reason)`
//       (the member is legitimately mutated from hot regions and is exempt
//       from R6 growth checks; the reason declares why that is safe —
//       shard-arena storage, pre-sized capacity, or bounded control-plane
//       growth) or `// shardcheck:cold-state(reason)`
//       (storage allocated/resized only in cold serial context — attach,
//       churn, epilogues; hot code may read/write elements in place, and
//       growth from hot regions is still R6) annotation, so the memory
//       contract is visible in review instead of re-derived from maxrss
//       regressions.
//
// "Sharded hook" means: on_round_begin(shard, ctx); on_message(v, m, ctx)
// (every protocol's handlers run sharded by destination vertex); and any
// function marked with a `// shardcheck:sharded-hook(reason)` annotation on
// the line above its definition (helpers reachable only from sharded
// hooks). Merge bodies are on_round_merge() / on_dispatch_merge(). A "hot
// region" for R6 is any sharded hook plus any
// `// shardcheck:hot-path(reason)`-annotated function (serial code on the
// per-round path, e.g. merge helpers).
//
// Suppression: `// shardcheck:ok(Rn: reason)` — the reason is mandatory.
// A trailing comment suppresses its own line; a comment alone on a line
// suppresses the next code line. A suppression that does not match any
// diagnostic is itself an error (unused-suppression), so stale suppressions
// cannot linger; a suppression without a reason is an error
// (bad-suppression). The arena-backed / cold-state / hot-path annotations
// use the same attachment grammar and the same staleness property: an
// annotation that attaches to nothing is an error, and deleting a used one
// flips the exit code.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "shardcheck/lexer.h"

namespace shardcheck {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;     ///< "R1".."R7", "bad-suppression", "unused-suppression"
  std::string message;

  [[nodiscard]] std::string format() const {
    return file + ":" + std::to_string(line) + ": [shardcheck-" + rule + "] " +
           message;
  }
};

/// Cross-file facts gathered in pass 1 over every scanned file. Member
/// containers are declared in headers while hook bodies live in .cpp files,
/// so the name sets must be global to the run.
struct Symbols {
  /// Names declared as std::unordered_map/_set (iterating them is R2).
  std::set<std::string, std::less<>> unordered_direct;
  /// Names declared as ordered containers OF unordered containers, e.g.
  /// std::vector<std::unordered_set<T>> held_ (iterating held_[v] is R2).
  std::set<std::string, std::less<>> unordered_elem;
  /// Names declared as contiguous containers of raw pointers
  /// (std::sort over them is R5).
  std::set<std::string, std::less<>> pointer_containers;
  /// std container members (any class) declared WITHOUT ArenaAllocator and
  /// WITHOUT an arena-backed annotation — growth calls on these inside hot
  /// regions are R6. Declared in headers, grown in .cpp hook bodies, hence
  /// cross-file.
  std::set<std::string, std::less<>> growth_members;
  /// Subset of the above that is map-like (std::map / std::unordered_map):
  /// operator[] on them inserts, so a bare subscript in a hot region is R6.
  std::set<std::string, std::less<>> map_members;
  /// Subset declared std::string (operator+= / append allocate).
  std::set<std::string, std::less<>> string_members;
  /// class -> direct base classes; R7 resolves "Protocol-derived"
  /// transitively from this at analyze time.
  std::map<std::string, std::set<std::string, std::less<>>, std::less<>> bases;
};

/// Scan one lexed file into `sym` (pass 1).
void collect_symbols(const LexOutput& lx, Symbols& sym);

/// Analyze one lexed file (pass 2) under every rule. `path` is the
/// repo-relative path with forward slashes; it selects the R4 scope (src/
/// outside src/util/) and the R6/R7 scope (src/). Returned diagnostics are
/// post-suppression and include bad-suppression / unused-suppression meta
/// findings; `suppressed_count`, when non-null, receives the number of
/// diagnostics silenced by valid suppressions.
[[nodiscard]] std::vector<Diagnostic> analyze(const std::string& path,
                                              const LexOutput& lx,
                                              const Symbols& sym,
                                              int* suppressed_count = nullptr);

/// Convenience for tests and single-file use: lex + collect + analyze one
/// buffer as both pass-1 input and pass-2 subject.
[[nodiscard]] std::vector<Diagnostic> check_source(
    const std::string& path, std::string_view text,
    int* suppressed_count = nullptr);

}  // namespace shardcheck
