// Whether this host exposes hardware counters (perf_event_open probe).
//
// The ledger prints available() as its `pmu` host fact, so a reader of a
// recorded number knows whether counter-backed claims (cycles, LLC and
// dTLB misses) could have been checked on that host.
//
// Graceful degradation is a hard requirement: CI containers and many VMs
// deny perf_event_open (EPERM under seccomp, ENOENT when no PMU is exposed,
// or the syscall is absent off Linux). In every such case available() is
// false — never a crash.
//
// Each event gets its own fd (no group leader), so a host where some events
// exist and others don't still reports the ones it has. Counting mode only
// (no sampling, no mmap), exclude_kernel+exclude_hv so
// perf_event_paranoid=2 hosts still permit it.
#pragma once

namespace churnstore {

class PerfCounters {
 public:
  /// Opens cycles, instructions, LLC read misses and dTLB read misses,
  /// each disabled; the destructor closes what opened.
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when at least one event opened. False on denial, absent PMU, or
  /// non-Linux.
  [[nodiscard]] bool available() const noexcept;

 private:
  static constexpr int kEvents = 4;
  int fds_[kEvents] = {-1, -1, -1, -1};
};

}  // namespace churnstore
