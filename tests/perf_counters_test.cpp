// util/perf_counters.h — perf_event_open probe, graceful-degrade contract.
//
// The probe is measurement plumbing, not engine logic: the one property the
// ledger (and CI) relies on is that a host without a PMU, a denied
// perf_event_open, or a non-Linux build never crashes and answers
// available() the same way every time it is asked.
#include "util/perf_counters.h"

#include <gtest/gtest.h>

namespace churnstore {
namespace {

TEST(PerfCounters, NaturalConstructionIsConsistent) {
  // On a PMU-less host (this repo's CI included) no event opens; on real
  // hardware some subset does. Either way the answer is a property of the
  // host, so every construction agrees, and closing the events in the
  // destructor leaves the next probe unaffected.
  const bool first = PerfCounters().available();
  for (int i = 0; i < 3; ++i) {
    const PerfCounters pc;
    EXPECT_EQ(pc.available(), first) << i;
  }
  const PerfCounters outer;
  {
    const PerfCounters inner;
    EXPECT_EQ(inner.available(), outer.available());
  }
  EXPECT_EQ(outer.available(), first);
}

}  // namespace
}  // namespace churnstore
