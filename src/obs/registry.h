// Unified metrics registry: one named counter/gauge surface over the repo's
// scattered instruments — Metrics counters, P2PSystem phase and
// per-protocol timers, heap-sentinel round stats — so exporters
// (obs/export.h) snapshot everything through one API instead of growing a
// bespoke column per instrument.
//
// Degradation contract (matches the heap-sentinel precedent): every entry
// carries an ok flag; a gauge whose source is unavailable (phase timing
// off, sentinel compiled out) snapshots ok=false and exporters print
// null/n/a — never silent zeros dressed up as measurements.
//
// The registry is cold-path by design: it is built once per session and
// read once per round by exporters. Nothing here runs inside sharded hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace churnstore {

class P2PSystem;

class MetricsRegistry {
 public:
  /// Reads the current value of a scalar instrument (counter or gauge).
  using Read = std::function<double()>;
  /// Reads whether the instrument's source is currently trustworthy.
  using Ok = std::function<bool()>;

  /// Register an always-valid scalar.
  void add(std::string name, Read read);
  /// Register a scalar whose validity is gated (phase timers, heap stats).
  void add_gated(std::string name, Read read, Ok ok);

  struct Sample {
    std::string name;
    double value = 0.0;
    bool ok = true;  ///< false = source unavailable; render null, not 0
  };
  /// Evaluate every entry now, in registration order (deterministic output
  /// order is part of the jsonl format contract).
  [[nodiscard]] std::vector<Sample> snapshot() const;

 private:
  struct Entry {
    std::string name;
    Read read;
    Ok ok;  ///< null = always ok
  };
  std::vector<Entry> entries_;
};

/// Adopt the standard instruments of a P2PSystem run: Metrics counters,
/// round-phase timers and one secs.<protocol name> per registered protocol
/// (gated on phase timing being enabled), heap-sentinel round stats (gated
/// on HeapSentinel::available). Borrow-only: `sys` must outlive the
/// registry.
void register_standard_metrics(MetricsRegistry& reg, P2PSystem& sys);

}  // namespace churnstore
