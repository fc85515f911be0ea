// Self-tests for the shardcheck determinism linter (tools/shardcheck/).
//
// Every rule gets a firing fixture and a near-miss; the tricky lexical
// cases (raw strings, commented-out code) and the suppression grammar
// (mandatory reason, unused-suppression, wrong-rule mismatch) are pinned
// here so the linter itself cannot silently regress. All fixture code
// lives inside raw string literals: the fixtures are invisible both to the
// compiler and to shardcheck's own scan of this file.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "shardcheck/shardcheck.h"

namespace {

using shardcheck::check_source;
using shardcheck::Diagnostic;

int count_rule(const std::vector<Diagnostic>& ds, const std::string& rule) {
  int n = 0;
  for (const Diagnostic& d : ds) {
    if (d.rule == rule) ++n;
  }
  return n;
}

bool has_rule_at(const std::vector<Diagnostic>& ds, const std::string& rule,
                 int line) {
  for (const Diagnostic& d : ds) {
    if (d.rule == rule && d.line == line) return true;
  }
  return false;
}

std::string join(const std::vector<Diagnostic>& ds) {
  std::string out;
  for (const Diagnostic& d : ds) out += d.format() + "\n";
  return out;
}

// --- R1: shared sequential randomness in sharded hooks ----------------------

TEST(ShardcheckR1, SharedRngInShardedHookFires) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  Rng rng_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto x = rng_.next();
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R1"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R1", 5)) << join(ds);
}

TEST(ShardcheckR1, ProtocolRngInShardedHookFires) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto x = protocol_rng().next();
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R1"), 1) << join(ds);
}

TEST(ShardcheckR1, StreamRngAndSerialHookAreClean) {
  // stream_rng is the sanctioned source; rng_ in the SERIAL prologue (the
  // zero-arg on_round_begin overload) is fine by the contract.
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  Rng rng_;
  void on_round_begin() { auto x = rng_.next(); }
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    Rng r = stream_rng(key_, v);
    auto x = r.next();
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R1"), 0) << join(ds);
}

// --- R2: unordered-container iteration in sharded hooks / merges ------------

TEST(ShardcheckR2, RangeForOverUnorderedMemberFires) {
  const auto ds = check_source("src/q.cpp", R"fix(
struct Q {
  std::unordered_map<int, int> table_;
  std::map<int, int> sorted_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    for (auto& kv : table_) { use(kv); }
    for (auto& kv : sorted_) { use(kv); }
  }
  void helper() {
    for (auto& kv : table_) { use(kv); }
  }
};
)fix");
  // Only the unordered member, and only inside the sharded hook.
  EXPECT_EQ(count_rule(ds, "R2"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R2", 6)) << join(ds);
}

TEST(ShardcheckR2, IteratorLoopInMergeBodyFires) {
  const auto ds = check_source("src/q.cpp", R"fix(
struct Q {
  std::unordered_set<int> live_;
  void on_round_merge() {
    for (auto it = live_.begin(); it != live_.end(); ++it) { use(*it); }
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R2"), 1) << join(ds);
}

TEST(ShardcheckR2, AliasedUnorderedElementFires) {
  // The idiomatic escape: bind vector-of-unordered element to a local
  // reference, then iterate the alias.
  const auto ds = check_source("src/q.cpp", R"fix(
struct Q {
  std::vector<std::unordered_map<int, int>> pending_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto& pn = pending_[v];
    for (auto it = pn.begin(); it != pn.end(); ++it) { use(*it); }
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R2"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R2", 6)) << join(ds);
}

TEST(ShardcheckR2, OrderedElementAliasIsClean) {
  const auto ds = check_source("src/q.cpp", R"fix(
struct Q {
  std::vector<std::map<int, int>> keys_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto& held = keys_[v];
    for (auto it = held.begin(); it != held.end(); ++it) { use(*it); }
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R2"), 0) << join(ds);
}

// --- R3: direct sends / metrics charges in sharded hooks --------------------

TEST(ShardcheckR3, DirectSendAndChargeInShardedDispatchFire) {
  const auto ds = check_source("src/s.cpp", R"fix(
struct S {
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) {
    net().send(v, m);
    ctx.send(v, m);
    charge_bits(10);
    stage_[ctx.shard()].charges.emplace_back(v, 10);
    return true;
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R3"), 2) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R3", 4)) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R3", 6)) << join(ds);
}

// --- R4: ambient time/randomness and mutable statics (src/ only) ------------

TEST(ShardcheckR4, AmbientCallsAndMutableStaticsFire) {
  const std::string fix = R"fix(
int f() { return rand(); }
long g() { return time(nullptr); }
void h() { std::random_device rd; }
long i() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
static int counter_ = 0;
)fix";
  const auto ds = check_source("src/x.cpp", fix);
  EXPECT_EQ(count_rule(ds, "R4"), 5) << join(ds);
}

TEST(ShardcheckR4, UtilAndTestsAreOutOfScope) {
  const std::string fix = R"fix(
int f() { return rand(); }
static int counter_ = 0;
)fix";
  EXPECT_EQ(check_source("src/util/x.cpp", fix).size(), 0u);
  EXPECT_EQ(check_source("tests/x.cpp", fix).size(), 0u);
  EXPECT_EQ(check_source("bench/x.cpp", fix).size(), 0u);
}

TEST(ShardcheckR4, ConstStaticsMembersAndDeclsAreClean) {
  const auto ds = check_source("src/x.cpp", R"fix(
static const int kMax = 4;
static constexpr double kRate = 0.5;
static void helper();
struct W {
  long t() { return clk_.time(); }
  int r() { return gen_.rand(); }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R4"), 0) << join(ds);
}

// --- R5: pointer-keyed ordering ---------------------------------------------

TEST(ShardcheckR5, PointerKeysAndPointerSortFire) {
  const auto ds = check_source("src/y.cpp", R"fix(
struct Node;
std::map<Node*, int> by_ptr;
std::set<const Node*> ptr_set;
std::map<int, Node*> by_id;
struct Y {
  std::vector<Node*> nodes_;
  std::vector<int> ids_;
  void a() { std::sort(nodes_.begin(), nodes_.end()); }
  void b() { std::sort(ids_.begin(), ids_.end()); }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R5"), 3) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R5", 3)) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R5", 4)) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R5", 9)) << join(ds);
}

// --- lexical near-misses: raw strings and commented-out code ----------------

TEST(ShardcheckLexical, RawStringsAndCommentsNeverFire) {
  const auto ds = check_source("src/z.cpp", R"fix(
struct Z {
  std::unordered_map<int, int> table_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    const char* s = R"x( net().send(v, m); rand(); rng_.next(); )x";
    // net().send(v, m);
    /* for (auto& kv : table_) { use(kv); } */
    ctx.send(v, m);
  }
};
)fix");
  EXPECT_EQ(ds.size(), 0u) << join(ds);
}

// --- suppression grammar ----------------------------------------------------

TEST(ShardcheckSuppress, TrailingSuppressionSilencesAndCounts) {
  int suppressed = 0;
  const auto ds = check_source("src/x.cpp", R"fix(
int f() { return rand(); }  // shardcheck:ok(R4: fixture, ambient call is intended here)
)fix",
                               &suppressed);
  EXPECT_EQ(ds.size(), 0u) << join(ds);
  EXPECT_EQ(suppressed, 1);
}

TEST(ShardcheckSuppress, OwnLineSuppressionCoversNextCodeLine) {
  int suppressed = 0;
  const auto ds = check_source("src/x.cpp", R"fix(
// shardcheck:ok(R4: fixture, ambient call is intended here)
int f() { return rand(); }
)fix",
                               &suppressed);
  EXPECT_EQ(ds.size(), 0u) << join(ds);
  EXPECT_EQ(suppressed, 1);
}

TEST(ShardcheckSuppress, DeletingTheSuppressionRestoresTheDiagnostic) {
  // The acceptance property: the suppression is the only thing keeping the
  // scan clean — remove it and the diagnostic (and nonzero exit) come back.
  const auto ds = check_source("src/x.cpp", R"fix(
int f() { return rand(); }
)fix");
  EXPECT_EQ(count_rule(ds, "R4"), 1) << join(ds);
}

TEST(ShardcheckSuppress, MissingReasonIsAnError) {
  const auto empty_reason = check_source("src/x.cpp", R"fix(
int f() { return rand(); }  // shardcheck:ok(R4:)
)fix");
  EXPECT_GE(count_rule(empty_reason, "bad-suppression"), 1)
      << join(empty_reason);
  EXPECT_EQ(count_rule(empty_reason, "R4"), 1) << join(empty_reason);

  const auto no_colon = check_source("src/x.cpp", R"fix(
int f() { return rand(); }  // shardcheck:ok(R4)
)fix");
  EXPECT_GE(count_rule(no_colon, "bad-suppression"), 1) << join(no_colon);
}

TEST(ShardcheckSuppress, UnusedSuppressionIsAnError) {
  const auto ds = check_source("src/x.cpp", R"fix(
int f() { return 1; }  // shardcheck:ok(R4: nothing actually fires here)
)fix");
  EXPECT_EQ(count_rule(ds, "unused-suppression"), 1) << join(ds);
}

TEST(ShardcheckSuppress, WrongRuleDoesNotSuppress) {
  const auto ds = check_source("src/x.cpp", R"fix(
int f() { return rand(); }  // shardcheck:ok(R2: rule id does not match)
)fix");
  EXPECT_EQ(count_rule(ds, "R4"), 1) << join(ds);
  EXPECT_EQ(count_rule(ds, "unused-suppression"), 1) << join(ds);
}

// --- sharded-hook annotation ------------------------------------------------

TEST(ShardcheckAnnotation, AnnotatedHelperJoinsTheShardedRuleSet) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  Rng rng_;
  // shardcheck:sharded-hook(helper reachable only from the shard lanes)
  void helper(Vertex v, ShardContext& ctx) {
    auto x = rng_.next();
  }
  void plain_helper(Vertex v) {
    auto x = rng_.next();
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R1"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R1", 6)) << join(ds);
}

TEST(ShardcheckAnnotation, DanglingAnnotationIsAnError) {
  const auto ds = check_source("src/p.cpp", R"fix(
// shardcheck:sharded-hook(points at nothing resembling a function)
int kValue = 3;
)fix");
  EXPECT_EQ(count_rule(ds, "unused-suppression"), 1) << join(ds);
}

// --- R6: heap discipline in hot regions --------------------------------------

TEST(ShardcheckR6, NewAndMakeUniqueInShardedHookFire) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto* p = new int(3);
    auto q = std::make_unique<int>(4);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 2) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 4)) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 5)) << join(ds);
}

TEST(ShardcheckR6, LocalContainerFiresButArenaAllocatorIsClean) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    std::vector<int> tmp;
    std::vector<int, ArenaAllocator<int>> ok(ArenaAllocator<int>(&arena));
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 4)) << join(ds);
}

TEST(ShardcheckR6, StdFunctionConstructionFires) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    std::function<void(int)> cb = [this](int x) { use(x); };
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
}

TEST(ShardcheckR6, GrowthOnUnannotatedMemberFiresButArenaBackedIsClean) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  std::vector<int> raw_;
  // shardcheck:arena-backed(capacity reserved to n at attach)
  std::vector<int> backed_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    raw_.push_back(1);
    backed_.push_back(2);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 7)) << join(ds);
}

TEST(ShardcheckR6, ColdStateMemberGrowthInHotRegionStillFires) {
  // cold-state declares the member is only touched in cold serial context;
  // growing it from a hot region contradicts the declaration and stays R6
  // (unlike arena-backed, which removes the member from the growth sets).
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  // shardcheck:cold-state(sized once at attach)
  std::vector<int> cold_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    cold_.push_back(1);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 6)) << join(ds);
}

TEST(ShardcheckR6, HotPathAnnotationJoinsR6ButNotR1) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  Rng rng_;
  // shardcheck:hot-path(inner forward loop, called from the sharded hooks)
  void forward() {
    auto x = rng_.next();
    auto* p = new int(1);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
  EXPECT_EQ(count_rule(ds, "R1"), 0) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 7)) << join(ds);
}

TEST(ShardcheckR6, MapSubscriptFiresButFindIsClean) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  std::unordered_map<int, int> table_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    table_[7] = 1;
    auto it = table_.find(7);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R6", 5)) << join(ds);
}

TEST(ShardcheckR6, StringAppendOnMemberFires) {
  const auto ds = check_source("src/p.cpp", R"fix(
struct P {
  std::string log_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    log_ += "tick";
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
}

TEST(ShardcheckR6, BenchPathIsOutOfScope) {
  // Heap discipline is a src/ engine contract; bench drivers allocate
  // freely.
  const auto ds = check_source("bench/x.cpp", R"fix(
struct P {
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    auto* p = new int(3);
  }
};
)fix");
  EXPECT_EQ(count_rule(ds, "R6"), 0) << join(ds);
}

TEST(ShardcheckR6, DeletingArenaBackedAnnotationRestoresTheDiagnostic) {
  // Acceptance pin: an annotation is load-bearing — stripping it flips the
  // verdict, so a stale annotation can never silently keep a file green.
  const std::string annotated = R"fix(
struct P {
  // shardcheck:arena-backed(capacity reserved to n at attach)
  std::vector<int> buf_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    buf_.push_back(1);
  }
};
)fix";
  EXPECT_EQ(count_rule(check_source("src/p.cpp", annotated), "R6"), 0);
  std::string stripped = annotated;
  const auto pos = stripped.find("  // shardcheck:arena-backed");
  ASSERT_NE(pos, std::string::npos);
  stripped.erase(pos, stripped.find('\n', pos) - pos);
  const auto ds = check_source("src/p.cpp", stripped);
  EXPECT_EQ(count_rule(ds, "R6"), 1) << join(ds);
}

// --- R7: arena discipline declared at the member declaration -----------------

TEST(ShardcheckR7, ProtocolDerivedContainerMemberFires) {
  const auto ds = check_source("src/p.h", R"fix(
struct P : Protocol {
  std::vector<int> queue_;
};
)fix");
  EXPECT_EQ(count_rule(ds, "R7"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R7", 3)) << join(ds);
}

TEST(ShardcheckR7, ArenaAllocatorSatisfiesTheDeclaration) {
  const auto ds = check_source("src/p.h", R"fix(
struct P : Protocol {
  std::vector<int, ArenaAllocator<int>> queue_;
};
)fix");
  EXPECT_EQ(count_rule(ds, "R7"), 0) << join(ds);
}

TEST(ShardcheckR7, ArenaBackedAndColdStateAnnotationsSatisfy) {
  const auto ds = check_source("src/p.h", R"fix(
struct P : Protocol {
  // shardcheck:arena-backed(reserved to n at attach)
  std::vector<int> hot_;
  // shardcheck:cold-state(rebuilt only on churn, serial context)
  std::vector<int> cold_;
};
)fix");
  EXPECT_EQ(count_rule(ds, "R7"), 0) << join(ds);
  EXPECT_EQ(count_rule(ds, "unused-suppression"), 0) << join(ds);
}

TEST(ShardcheckR7, NonProtocolClassIsClean) {
  const auto ds = check_source("src/p.h", R"fix(
struct Helper {
  std::vector<int> scratch_;
};
)fix");
  EXPECT_EQ(count_rule(ds, "R7"), 0) << join(ds);
}

TEST(ShardcheckR7, TransitiveDerivationFires) {
  const auto ds = check_source("src/p.h", R"fix(
struct Mid : Protocol {};
struct Deep : Mid {
  std::vector<int> buf_;
};
)fix");
  EXPECT_EQ(count_rule(ds, "R7"), 1) << join(ds);
  EXPECT_TRUE(has_rule_at(ds, "R7", 4)) << join(ds);
}

// --- diagnostic formatting ---------------------------------------------------

TEST(ShardcheckFormat, DiagnosticFormatIsFileLineRule) {
  const auto ds = check_source("src/x.cpp", "int f() { return rand(); }\n");
  ASSERT_EQ(ds.size(), 1u) << join(ds);
  const std::string s = ds[0].format();
  EXPECT_EQ(s.rfind("src/x.cpp:1: [shardcheck-R4] ", 0), 0u) << s;
}

}  // namespace
