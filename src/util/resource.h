// Process resource introspection for the bench layer.
//
// peak_rss_bytes() puts the process's peak resident set in the outputs
// themselves: the ledger binary prints it as `maxrss_mb` and the chord
// scenario as its "maxrss MB" column, so a memory regression shows up in
// the same diff as a throughput regression.
//
// Note the value is the PROCESS peak (getrusage ru_maxrss), so within one
// table it is monotone across rows — read the last row of a sweep as "the
// whole sweep fit in this much". The ledger runs one process per
// repetition, so its number belongs to that repetition alone.
#pragma once

#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace churnstore {

/// Peak resident set size of this process in bytes; 0 when the platform
/// does not expose it.
[[nodiscard]] inline std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace churnstore
