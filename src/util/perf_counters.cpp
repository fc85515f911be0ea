#include "util/perf_counters.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#endif

namespace churnstore {

#if defined(__linux__)

namespace {

int open_event(std::uint32_t type, std::uint64_t config) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // paranoid=2 hosts allow user-only counting
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          /*group_fd=*/-1, /*flags=*/0);
  return static_cast<int>(fd);
}

constexpr std::uint64_t cache_config(std::uint64_t cache, std::uint64_t op,
                                     std::uint64_t result) noexcept {
  return cache | (op << 8) | (result << 16);
}

}  // namespace

PerfCounters::PerfCounters() {
  fds_[0] = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  fds_[1] = open_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  fds_[2] = open_event(PERF_TYPE_HW_CACHE,
                       cache_config(PERF_COUNT_HW_CACHE_LL,
                                    PERF_COUNT_HW_CACHE_OP_READ,
                                    PERF_COUNT_HW_CACHE_RESULT_MISS));
  fds_[3] = open_event(PERF_TYPE_HW_CACHE,
                       cache_config(PERF_COUNT_HW_CACHE_DTLB,
                                    PERF_COUNT_HW_CACHE_OP_READ,
                                    PERF_COUNT_HW_CACHE_RESULT_MISS));
}

PerfCounters::~PerfCounters() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

bool PerfCounters::available() const noexcept {
  for (int fd : fds_) {
    if (fd >= 0) return true;
  }
  return false;
}

#else  // !__linux__

PerfCounters::PerfCounters() = default;
PerfCounters::~PerfCounters() = default;
bool PerfCounters::available() const noexcept { return false; }

#endif

}  // namespace churnstore
