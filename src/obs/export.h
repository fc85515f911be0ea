// Observability exporters: spec-key plumbing (obs=/obs-file=/trace-sample=)
// and the ObsSession round observer that writes them.
//
//   obs=jsonl   one flat JSON object per round (unified-registry snapshot:
//               deterministic engine counters first, then the host metrics:
//               the secs.* phase and per-protocol timers and the heap.*
//               round stats) plus one "span" object per completed sampled
//               request, and a final "summary" object with the per-class
//               latency/hop quantiles. Both modes turn on the system's
//               phase timing, so every secs.* value is a number.
//   obs=chrome  chrome://tracing / Perfetto-loadable JSON. Two process
//               tracks: pid 0 renders measured wall-clock round phases
//               (churn/protocols/deliver/dispatch and the per-protocol
//               breakdown) on a cumulative-microsecond timeline built from
//               the phase timers (no new clock reads — shardcheck-R4 keeps
//               ambient clocks out of src/); pid 1 renders sampled request
//               spans on VIRTUAL time, 1 round = 1 ms, because request
//               latency is measured in rounds, not seconds.
//
// Determinism: with host metrics suppressed (ObsConfig::host_metrics =
// false) the jsonl byte stream is a pure function of the seed — identical
// for every shards= value. The chrome export's pid-0 track is wall-clock
// and therefore machine-dependent by nature; its pid-1 span track is
// deterministic.
//
// Everything in this header is cold-path: exporter allocations and file IO
// are observability overhead, excluded from the heap-quiet claim (they run
// after the round's heap delta is read; see P2PSystem::run_round).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace churnstore {

struct ObsConfig {
  enum class Mode { kNone, kJsonl, kChrome };
  Mode mode = Mode::kNone;
  std::string path;  ///< output file; "" = obs.jsonl / obs_trace.json
  std::uint32_t sample_every = 1;  ///< trace-sample=k keeps 1/k of requests
  bool host_metrics = true;  ///< include wall-clock/heap fields in jsonl
};

/// The obs spec keys: `obs` picks the exporter; the other three shape its
/// output and so need obs=jsonl or obs=chrome.
inline constexpr std::string_view kObsKeys[] = {"obs", "obs-file", "obs-host",
                                                "trace-sample"};

/// Parse the obs spec keys out of a scenario's extras map:
///   obs=jsonl|chrome|off   obs-file=PATH   obs-host=0|1   trace-sample=K
/// Unknown obs= values throw (same contract as every other spec key), and
/// so does obs-file=, obs-host= or trace-sample= while obs is absent or
/// off: a sub-key that writes nothing would exit 0 with no file.
[[nodiscard]] ObsConfig obs_config_from_extras(
    const std::map<std::string, std::string>& extras);

/// The check for every scenario that attaches no session: throws
/// std::invalid_argument naming the key when `extras` asks for output
/// (obs= other than off, obs-file=, obs-host= or trace-sample=). An
/// accepted key that writes nothing would exit 0 with no file.
void reject_obs_keys(const std::map<std::string, std::string>& extras);

/// Derive a per-cell output path: "dir/base.ext" + "label" ->
/// "dir/base.label.ext" (scenarios running several cells give each its own
/// file instead of overwriting one).
[[nodiscard]] std::string obs_path_with_label(const std::string& path,
                                              const std::string& label);

/// One observed run: owns the TraceCollector and the output file, installs
/// itself on the system's network + round observer hook, writes one round
/// record per run_round, and finalizes (summary line / trailing bracket)
/// on destruction. Construct AFTER the P2PSystem and destroy BEFORE it
/// (the collector's lanes borrow the network's shard arenas).
class ObsSession final : public RoundObserver {
 public:
  /// Writes to config.path (default obs.jsonl / obs_trace.json) with
  /// `label` inserted before the extension (obs_path_with_label).
  ObsSession(P2PSystem& sys, ObsConfig config, const std::string& label);
  ~ObsSession() override;
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  void on_round_observed(P2PSystem& sys) override;

  [[nodiscard]] TraceCollector& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceCollector& trace() const noexcept { return trace_; }

  /// Write the trailing summary / close the JSON and uninstall the hooks;
  /// idempotent, also run by the destructor.
  void finalize();

 private:
  void consume_spans(Round round, const TraceEvent* events, std::size_t n);
  void write_round_jsonl();
  void write_round_chrome(P2PSystem& sys);

  P2PSystem& sys_;
  ObsConfig config_;
  TraceCollector trace_;
  MetricsRegistry registry_;
  std::ofstream out_;
  bool finalized_ = false;
  bool first_chrome_event_ = true;
  double ts_cursor_us_ = 0.0;  ///< pid-0 wall-clock timeline position
  RoundPhaseTimers prev_timers_;
  std::vector<double> prev_protocol_secs_;
};

/// The session a run's obs= keys ask for (`extras` holds the spec's extras;
/// see obs_config_from_extras), attached to `sys` and writing to a file
/// labelled `label`; empty when obs is off. Scenarios attach sessions only
/// through here: chord per cell, run_store_search_trial per trial. Declare
/// the result after the system, so it dies first.
[[nodiscard]] std::optional<ObsSession> attach_obs_session(
    P2PSystem& sys, const std::map<std::string, std::string>& extras,
    const std::string& label);

}  // namespace churnstore
