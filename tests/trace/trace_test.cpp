#include "trace/trace.hpp"

#include <gtest/gtest.h>

namespace hmcc::trace {
namespace {

TEST(TraceRecord, Factories) {
  const TraceRecord l = TraceRecord::load(0x100, 4);
  EXPECT_EQ(l.type, ReqType::kLoad);
  EXPECT_EQ(l.size, 4u);
  EXPECT_TRUE(l.is_access());
  EXPECT_FALSE(l.is_fence());
  EXPECT_FALSE(l.is_barrier());
  EXPECT_EQ(l.access_addr(), 0x100u);

  const TraceRecord s = TraceRecord::store(0x200, 8);
  EXPECT_EQ(s.type, ReqType::kStore);

  EXPECT_TRUE(TraceRecord::make_fence().is_fence());
  EXPECT_TRUE(TraceRecord::make_barrier().is_barrier());
  EXPECT_FALSE(TraceRecord::make_fence().is_access());
  EXPECT_FALSE(TraceRecord::make_barrier().is_access());
}

#ifndef NDEBUG
TEST(TraceRecordDeathTest, MarkerAddressIsALogicError) {
  // Markers must never be readable as real accesses: the checked accessors
  // trip an assert in debug builds instead of handing out a phantom addr 0.
  EXPECT_DEATH((void)TraceRecord::make_fence().access_addr(), "marker");
  EXPECT_DEATH((void)TraceRecord::make_barrier().access_size(), "marker");
}
#endif

TEST(TraceProfile, CountsAndFootprint) {
  MultiTrace mt;
  mt.per_core.resize(2);
  mt.per_core[0] = {TraceRecord::load(0, 8), TraceRecord::load(8, 8),
                    TraceRecord::store(64, 8), TraceRecord::make_fence()};
  mt.per_core[1] = {TraceRecord::load(128, 4), TraceRecord::make_barrier()};
  const TraceProfile p = profile(mt);
  EXPECT_EQ(p.records, 6u);
  EXPECT_EQ(p.loads, 3u);
  EXPECT_EQ(p.stores, 1u);
  EXPECT_EQ(p.fences, 1u);
  EXPECT_EQ(p.barriers, 1u);
  EXPECT_EQ(p.bytes, 28u);
  EXPECT_EQ(p.distinct_lines, 3u);  // lines 0, 64, 128
  // One access (addr 8) directly follows its predecessor's end.
  EXPECT_NEAR(p.sequential_fraction, 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(p.store_fraction(), 0.25);
}

TEST(MultiTrace, TotalsAcrossCores) {
  MultiTrace mt;
  mt.per_core.resize(4);
  mt.per_core[0].resize(10);
  mt.per_core[3].resize(5);
  EXPECT_EQ(mt.num_cores(), 4u);
  EXPECT_EQ(mt.total_records(), 15u);
}

}  // namespace
}  // namespace hmcc::trace
