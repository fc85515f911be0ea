// Observability layer unit tests: the Metrics touched-vertex sweep is
// exactly the old O(n) full sweep, trace sampling is a deterministic
// function of (seed, id), the message-carried trace id is charged honestly,
// TraceCollector drains spans into the right counters/histograms, and the
// registry/exporter plumbing (snapshot order, ok gating, spec-key parsing,
// per-cell file labels) behaves as documented, and a store-search trial
// with obs= set writes one well-formed jsonl file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "net/message.h"
#include "net/metrics.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats/histogram.h"
#include "util/rng.h"

namespace churnstore {
namespace {

TEST(MetricsTouchedSweep, ExactlyMatchesBruteForceFullSweep) {
  // end_round sweeps only first-touched vertices; max and mean must equal
  // the brute-force sweep over all n counters, bit for bit, across rounds
  // with repeat charges, zero-bit charges, and sharded-local charging.
  constexpr std::uint32_t kN = 257;
  constexpr std::uint32_t kShards = 4;
  Metrics m(kN, kShards);
  Rng rng(99);
  for (std::uint32_t round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> shadow(kN, 0);
    // Serial charges, including repeats and explicit zero-bit no-ops.
    for (int i = 0; i < 40; ++i) {
      const auto v = static_cast<Vertex>(rng.next_below(kN));
      const std::uint64_t bits = rng.next_below(3) == 0 ? 0 : rng.next_below(512);
      m.charge_bits(v, bits);
      shadow[v] += bits;
    }
    // Sharded-local charges: each vertex charged only by its owning shard
    // (contiguous partition), mirroring the engine's contract.
    for (int i = 0; i < 40; ++i) {
      const auto v = static_cast<Vertex>(rng.next_below(kN));
      const std::uint64_t bits = rng.next_below(256);
      m.charge_bits_local(v, bits, v % kShards);
      shadow[v] += bits;
    }
    std::uint64_t want_max = 0;
    std::uint64_t want_sum = 0;
    for (const std::uint64_t b : shadow) {
      want_max = b > want_max ? b : want_max;
      want_sum += b;
    }
    m.end_round();
    EXPECT_EQ(m.last_round_max_bits(), want_max) << "round " << round;
    EXPECT_DOUBLE_EQ(m.last_round_mean_bits(),
                     static_cast<double>(want_sum) / static_cast<double>(kN))
        << "round " << round;
  }
  EXPECT_EQ(m.rounds(), 20u);
}

TEST(MetricsTouchedSweep, CountersAreFullyResetBetweenRounds) {
  // A vertex touched in round 1 but not round 2 must contribute zero in
  // round 2 — the drain really zeroed its counter.
  Metrics m(8, 2);
  m.charge_bits(3, 100);
  m.end_round();
  EXPECT_EQ(m.last_round_max_bits(), 100u);
  m.charge_bits(5, 7);
  m.end_round();
  EXPECT_EQ(m.last_round_max_bits(), 7u);
  m.end_round();  // nothing touched at all
  EXPECT_EQ(m.last_round_max_bits(), 0u);
  EXPECT_DOUBLE_EQ(m.last_round_mean_bits(), 0.0);
}

TEST(TraceSampling, IsADeterministicFunctionOfSeedAndId) {
  TraceCollector a(42, 4);
  TraceCollector b(42, 4);
  TraceCollector other_seed(43, 4);
  std::uint64_t kept = 0;
  bool seed_matters = false;
  constexpr int kIds = 4096;
  for (int i = 0; i < kIds; ++i) {
    const std::uint64_t id = mix64(static_cast<std::uint64_t>(i)) | 1;
    EXPECT_EQ(a.sampled(id), b.sampled(id));
    kept += a.sampled(id);
    seed_matters |= a.sampled(id) != other_seed.sampled(id);
  }
  // 1/4 sampling: the kept fraction concentrates near kIds/4.
  EXPECT_GT(kept, kIds / 8u);
  EXPECT_LT(kept, kIds / 2u);
  EXPECT_TRUE(seed_matters) << "sampling ignored the seed";
  // sample_every <= 1 keeps everything.
  TraceCollector all(42, 1);
  TraceCollector zero(42, 0);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = mix64(static_cast<std::uint64_t>(i)) | 1;
    EXPECT_TRUE(all.sampled(id));
    EXPECT_TRUE(zero.sampled(id));
  }
}

TEST(MessageTraceId, IsChargedSixtyFourBitsWhenSet) {
  Message m;
  m.src = 1;
  m.dst = 2;
  m.type = MsgType::kProbe;
  m.words = {7, 8};
  m.set_payload_bits(100);
  const std::uint64_t untraced = m.size_bits();
  m.set_trace_id(0xdeadbeefULL);
  EXPECT_EQ(m.size_bits(), untraced + 64)
      << "a carried trace id must be paid for, not smuggled";
  m.set_trace_id(0);
  EXPECT_EQ(m.size_bits(), untraced);
}

TEST(TraceCollector, EndRoundDrainsSpansIntoCountersAndHistograms) {
  TraceCollector tc(7, 1);
  std::vector<TraceEvent> seen;
  tc.set_consumer([&seen](Round, const TraceEvent* ev, std::size_t n) {
    seen.insert(seen.end(), ev, ev + n);
  });

  const auto cls = RequestClass::kSearch;
  tc.record(make_trace_event(11, 5, 3, 0, 0, cls, TraceEv::kBegin));
  tc.record(make_trace_event(11, 6, 4, kHopForward, 1, cls, TraceEv::kHop));
  tc.record(make_trace_event(11, 9, 4, /*latency=*/4, /*hops=*/2, cls,
                             TraceEv::kEndOk));
  tc.record(make_trace_event(12, 9, 5, 0, 0, cls, TraceEv::kBegin));
  tc.record(make_trace_event(12, 12, 0, 3, 0, cls, TraceEv::kEndFail));
  tc.record(
      make_trace_event(13, 12, 0, 1, 0, cls, TraceEv::kEndCensored));
  tc.end_round(12);

  EXPECT_EQ(tc.spans_begun(cls), 2u);
  EXPECT_EQ(tc.spans_ok(cls), 1u);
  EXPECT_EQ(tc.spans_failed(cls), 1u);
  EXPECT_EQ(tc.spans_censored(cls), 1u);
  EXPECT_EQ(tc.events_recorded(), 6u);
  // Only kEndOk feeds the latency/hop histograms (failed/censored spans
  // would bias the tail downward).
  EXPECT_EQ(tc.latency(cls).total(), 1u);
  EXPECT_EQ(tc.hops(cls).total(), 1u);
  EXPECT_NEAR(tc.latency(cls).quantile(0.5), 4.0, 0.5);
  EXPECT_NEAR(tc.hops(cls).quantile(0.5), 2.0, 0.5);
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0].trace_id, 11u);
  EXPECT_EQ(seen[2].ev, static_cast<std::uint8_t>(TraceEv::kEndOk));

  // The merged log is cleared between rounds: a new round drains only its
  // own events.
  seen.clear();
  tc.record(make_trace_event(14, 13, 1, 0, 0, cls, TraceEv::kBegin));
  tc.end_round(13);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(tc.spans_begun(cls), 3u);
}

TEST(TraceEventLayout, StaysPackedAndRoundTripsFields) {
  static_assert(sizeof(TraceEvent) == 24);
  const TraceEvent e = make_trace_event(
      0xffffffffffffffffULL, 0x11223344, 0xaabbccdd, 0x55667788,
      /*hop=*/0x12345, RequestClass::kWalkerProbe, TraceEv::kEndOk);
  EXPECT_EQ(e.trace_id, 0xffffffffffffffffULL);
  EXPECT_EQ(e.round, 0x11223344u);
  EXPECT_EQ(e.vertex, 0xaabbccddu);
  EXPECT_EQ(e.detail, 0x55667788u);
  EXPECT_EQ(e.hop, 0xffffu) << "hop must clamp, not wrap";
  EXPECT_EQ(e.cls, static_cast<std::uint8_t>(RequestClass::kWalkerProbe));
}

TEST(MetricsRegistry, SnapshotPreservesOrderAndGatesValidity) {
  MetricsRegistry reg;
  int calls = 0;
  reg.add("a", [&calls] { return static_cast<double>(++calls); });
  reg.add_gated("b.unavailable", [] { return 123.0; }, [] { return false; });

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_TRUE(snap[0].ok);
  EXPECT_EQ(snap[1].name, "b.unavailable");
  EXPECT_FALSE(snap[1].ok) << "gated source must read not-ok, never 0";
}

TEST(ObsConfig, ParsesSpecKeysAndRejectsUnknownModes) {
  using Extras = std::map<std::string, std::string>;
  EXPECT_EQ(obs_config_from_extras(Extras{}).mode, ObsConfig::Mode::kNone);
  EXPECT_EQ(obs_config_from_extras(Extras{{"obs", "off"}}).mode,
            ObsConfig::Mode::kNone);

  const ObsConfig j = obs_config_from_extras(Extras{{"obs", "jsonl"},
                                                    {"obs-file", "x.jsonl"},
                                                    {"trace-sample", "8"},
                                                    {"obs-host", "0"}});
  EXPECT_EQ(j.mode, ObsConfig::Mode::kJsonl);
  EXPECT_EQ(j.path, "x.jsonl");
  EXPECT_EQ(j.sample_every, 8u);
  EXPECT_FALSE(j.host_metrics);

  const ObsConfig c = obs_config_from_extras(Extras{{"obs", "chrome"}});
  EXPECT_EQ(c.mode, ObsConfig::Mode::kChrome);
  EXPECT_TRUE(c.host_metrics);
  EXPECT_EQ(c.sample_every, 1u);

  EXPECT_THROW((void)obs_config_from_extras(Extras{{"obs", "csv"}}),
               std::invalid_argument);
  EXPECT_THROW((void)obs_config_from_extras(
                   Extras{{"obs", "jsonl"}, {"trace-sample", "-1"}}),
               std::invalid_argument);
}

TEST(ObsConfig, SubKeysWithoutObsErrorOutNamingTheKey) {
  // obs-file=, obs-host= and trace-sample= shape an exporter's output; with
  // obs absent or off nothing is written, so they must not exit 0.
  using Extras = std::map<std::string, std::string>;
  const Extras sub_keys = {
      {"obs-file", "x.jsonl"}, {"obs-host", "0"}, {"trace-sample", "2"}};
  for (const char* mode : {"", "off"}) {
    for (const auto& [key, value] : sub_keys) {
      Extras extras{{key, value}};
      if (*mode) extras["obs"] = mode;
      try {
        (void)obs_config_from_extras(extras);
        FAIL() << key << " without obs= must be rejected";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("obs="), std::string::npos) << msg;
      }
    }
  }
  // A malformed sub-key value names the key too: trace-sample=2x used to
  // sample 1 in 2.
  try {
    (void)obs_config_from_extras(
        Extras{{"obs", "jsonl"}, {"trace-sample", "2x"}});
    FAIL() << "trace-sample=2x must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'trace-sample'"), std::string::npos)
        << e.what();
  }
}

TEST(ObsConfig, RejectObsKeysNamesTheKeyAndTheScenariosThatExport) {
  using Extras = std::map<std::string, std::string>;
  EXPECT_NO_THROW(reject_obs_keys(Extras{}));
  EXPECT_NO_THROW(reject_obs_keys(Extras{{"obs", "off"}}));
  EXPECT_NO_THROW(reject_obs_keys(Extras{{"measure-rounds", "8"}}));
  for (const Extras& extras :
       {Extras{{"obs", "jsonl"}}, Extras{{"obs", "chrome"}},
        Extras{{"obs-file", "x.jsonl"}}, Extras{{"obs-host", "0"}},
        Extras{{"trace-sample", "4"}}}) {
    const std::string key = extras.begin()->first;
    try {
      reject_obs_keys(extras);
      FAIL() << key << " must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
      for (const char* exporter : {"chord", "search", "baselines",
                                   "message_complexity", "ablation",
                                   "adversary"}) {
        EXPECT_NE(msg.find(exporter), std::string::npos) << msg;
      }
    }
  }
}

TEST(ObsPathLabel, InsertsTheLabelBeforeTheExtension) {
  EXPECT_EQ(obs_path_with_label("obs.jsonl", "net.n256"),
            "obs.net.n256.jsonl");
  EXPECT_EQ(obs_path_with_label("out/obs_trace.json", "s16"),
            "out/obs_trace.s16.json");
  EXPECT_EQ(obs_path_with_label("noext", "a"), "noext.a");
  EXPECT_EQ(obs_path_with_label("dir.v1/noext", "a"), "dir.v1/noext.a")
      << "a dot in a directory name is not an extension";
  EXPECT_EQ(obs_path_with_label("obs.jsonl", ""), "obs.jsonl");
}

/// True when `text` is exactly one JSON value (objects, arrays, strings
/// with escapes, numbers, true/false/null) — enough to hold the exporter to
/// "every line parses".
class JsonCheck {
 public:
  explicit JsonCheck(std::string_view text) : s_(text) {}
  bool document() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return members('}', true);
      case '[': return members(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  /// An object's key:value members or an array's values, up to `close`.
  bool members(char close, bool keyed) {
    ++i_;
    skip_ws();
    if (eat(close)) return true;
    for (;;) {
      skip_ws();
      if (keyed) {
        if (!string()) return false;
        skip_ws();
        if (!eat(':')) return false;
        skip_ws();
      }
      if (!value()) return false;
      skip_ws();
      if (eat(close)) return true;
      if (!eat(',')) return false;
    }
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_++]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    eat('-');
    if (eat('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

TEST(JsonCheck, AcceptsJsonAndRejectsNearMisses) {
  for (const char* ok : {R"({"a":1,"b":[true,null,-0.5e3],"c":"x\"y"})",
                         "[]", "{}", R"("\u00e9")"}) {
    EXPECT_TRUE(JsonCheck(ok).document()) << ok;
  }
  for (const char* bad : {R"({"a":1,})", R"({"a" 1})", "[1 2]", "01",
                          R"({"a":nan})", R"({"a":1}{)", R"("\x")", ""}) {
    EXPECT_FALSE(JsonCheck(bad).document()) << bad;
  }
}

/// The jsonl files in `dir`, sorted.
std::vector<std::filesystem::path> jsonl_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The number of secs.* keys in a jsonl round line, each of whose values
/// must be a number: the session times the round phases, so none may read
/// null.
std::size_t expect_numeric_secs(const std::string& line) {
  std::size_t keys = 0;
  for (std::size_t at = line.find(R"("secs.)"); at != std::string::npos;
       at = line.find(R"("secs.)", at + 1)) {
    const std::size_t close = line.find('"', at + 1);
    if (close == std::string::npos) {
      ADD_FAILURE() << "unterminated key in " << line;
      break;
    }
    EXPECT_EQ(line.substr(close, 2), "\":") << line;
    const char first = line[close + 2];
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(first)) != 0 ||
                first == '-')
        << line.substr(at + 1, close - at - 1) << " is not a number in "
        << line;
    ++keys;
  }
  return keys;
}

/// Every line of an obs=jsonl file is JSON, exactly one (the last) is the
/// summary, at least one is a request span, and every round line's secs.*
/// values are numbers.
void expect_well_formed_jsonl(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0, summaries = 0, spans = 0;
  bool summary_last = false;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonCheck(line).document())
        << path << " line " << lines << ": " << line;
    summary_last = line.rfind(R"({"summary":true)", 0) == 0;
    summaries += summary_last;
    spans += line.rfind(R"({"span":)", 0) == 0;
    if (line.rfind(R"({"round":)", 0) == 0) {
      EXPECT_GT(expect_numeric_secs(line), 0u)
          << path << " line " << lines << " has no secs.* key";
    }
  }
  EXPECT_GT(lines, 1u) << path;
  EXPECT_EQ(summaries, 1u) << path;
  EXPECT_TRUE(summary_last) << path << ": the summary closes the file";
  EXPECT_GT(spans, 0u) << path << ": trace-sample=1 traced no request";
}

TEST(ObsExport, TracedStoreSearchTrialWritesOneParsableJsonlFile) {
  // obs= reaches the store-search trial every search-type scenario runs:
  // one trial writes exactly one labelled, well-formed jsonl file, and
  // tracing does not move the trial's result. Trials run in parallel write
  // one file each.
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "churnstore_obs_XXXXXX")
          .string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const std::filesystem::path dir = dir_template;
  std::filesystem::create_directories(dir / "one");
  std::filesystem::create_directories(dir / "two");
  const std::vector<std::string> keys = {"n=128",     "trials=1",
                                         "items=1",   "searches=3",
                                         "batches=1", "age-taus=0.5"};
  const auto traced_spec = [&keys](const std::filesystem::path& out) {
    std::vector<std::string> traced = keys;
    traced.insert(traced.end(), {"obs=jsonl", "obs-file=" + out.string(),
                                 "trace-sample=1"});
    return ScenarioSpec::from_cli(Cli(traced));
  };

  const StoreSearchResult plain =
      run_store_search_trial(ScenarioSpec::from_cli(Cli(keys)));
  const StoreSearchResult traced =
      run_store_search_trial(traced_spec(dir / "one" / "trial.jsonl"));
  EXPECT_EQ(plain.searches, traced.searches);
  EXPECT_EQ(plain.located, traced.located);
  EXPECT_EQ(plain.fetched, traced.fetched);
  EXPECT_EQ(plain.censored, traced.censored);
  EXPECT_DOUBLE_EQ(plain.bits_node_round_mean.mean(),
                   traced.bits_node_round_mean.mean());
  const auto one = jsonl_files(dir / "one");
  ASSERT_EQ(one.size(), 1u) << "one trial, one file";
  EXPECT_EQ(one[0].filename().string().rfind("trial.churnstore.n128.", 0), 0u)
      << one[0];
  expect_well_formed_jsonl(one[0]);

  ScenarioSpec two = traced_spec(dir / "two" / "trial.jsonl");
  two.trials = 2;
  Runner parallel(RunnerOptions{.threads = 2, .parallel = true});
  (void)parallel.store_search(two);
  const auto files = jsonl_files(dir / "two");
  ASSERT_EQ(files.size(), 2u) << "each trial seed labels its own file";
  for (const auto& path : files) expect_well_formed_jsonl(path);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace churnstore
