// Tests for the variable-length on-chip value store (Fig 6(b)) and the
// underlying register arrays.

#include <gtest/gtest.h>

#include "dataplane/register_array.h"
#include "dataplane/value_store.h"

namespace netcache {
namespace {

TEST(RegisterArrayTest, ReadWrite) {
  RegisterArray<uint16_t> arr(8);
  arr.Write(3, 42);
  EXPECT_EQ(arr.Read(3), 42);
  EXPECT_EQ(arr.Read(0), 0);
}

TEST(RegisterArrayTest, ApplyReadModifyWrite) {
  RegisterArray<uint16_t> arr(4);
  arr.Write(1, 10);
  uint16_t v = arr.Apply(1, [](uint16_t x) { return static_cast<uint16_t>(x + 5); });
  EXPECT_EQ(v, 15);
  EXPECT_EQ(arr.Read(1), 15);
}

TEST(RegisterArrayTest, AccessCounting) {
  RegisterArray<uint8_t> arr(4);
  arr.Read(0);
  arr.Read(1);
  arr.Write(2, 1);
  EXPECT_EQ(arr.reads(), 2u);
  EXPECT_EQ(arr.writes(), 1u);
  arr.ResetAccessCounts();
  EXPECT_EQ(arr.reads(), 0u);
}

TEST(RegisterArrayTest, MemoryBits) {
  RegisterArray<uint16_t> arr(1024);
  EXPECT_EQ(arr.MemoryBits(), 1024u * 16);
}

class ValueStoreRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ValueStoreRoundTrip, WriteReadExact) {
  size_t size = GetParam();
  ValueStore vs(8, 64);
  Value v = Value::Filler(size * 131, size);
  size_t units = v.NumUnits();
  uint32_t bitmap = (1u << units) - 1;  // first `units` stages
  vs.WriteValue(bitmap, 7, v);
  EXPECT_EQ(vs.ReadValue(bitmap, 7, size), v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ValueStoreRoundTrip,
                         ::testing::Values(1, 15, 16, 17, 31, 32, 48, 64, 100, 127, 128));

TEST(ValueStoreTest, NonContiguousBitmap) {
  // The bitmap need not be contiguous (Fig 6(b): key D uses arrays 0 and 2).
  ValueStore vs(8, 16);
  Value v = Value::Filler(9, 32);
  uint32_t bitmap = 0b00100100;  // stages 2 and 5
  vs.WriteValue(bitmap, 3, v);
  EXPECT_EQ(vs.ReadValue(bitmap, 3, 32), v);
  // Only stages 2 and 5 were touched.
  EXPECT_EQ(vs.stage_writes(2), 1u);
  EXPECT_EQ(vs.stage_writes(5), 1u);
  EXPECT_EQ(vs.stage_writes(0), 0u);
  EXPECT_EQ(vs.stage_writes(1), 0u);
}

TEST(ValueStoreTest, IndependentIndexes) {
  ValueStore vs(4, 8);
  Value a = Value::Filler(1, 16);
  Value b = Value::Filler(2, 16);
  vs.WriteValue(0b0001, 0, a);
  vs.WriteValue(0b0001, 1, b);
  EXPECT_EQ(vs.ReadValue(0b0001, 0, 16), a);
  EXPECT_EQ(vs.ReadValue(0b0001, 1, 16), b);
}

TEST(ValueStoreTest, SharedIndexDifferentStages) {
  // Two values can share a row by using disjoint stage sets (the essence of
  // the bin-packing memory layout).
  ValueStore vs(8, 4);
  Value a = Value::Filler(3, 48);  // 3 units
  Value b = Value::Filler(4, 64);  // 4 units
  vs.WriteValue(0b00000111, 2, a);
  vs.WriteValue(0b01111000, 2, b);
  EXPECT_EQ(vs.ReadValue(0b00000111, 2, 48), a);
  EXPECT_EQ(vs.ReadValue(0b01111000, 2, 64), b);
}

TEST(ValueStoreTest, OverwriteInPlace) {
  ValueStore vs(8, 4);
  vs.WriteValue(0b11, 1, Value::Filler(5, 32));
  Value fresh = Value::Filler(6, 20);  // smaller value, same slots
  vs.WriteValue(0b11, 1, fresh);
  EXPECT_EQ(vs.ReadValue(0b11, 1, 20), fresh);
}

TEST(ValueStoreTest, PrototypeMemoryFootprint) {
  // §6: 8 stages x 64K x 16 B = 8 MB.
  ValueStore vs(8, 64 * 1024);
  EXPECT_EQ(vs.MemoryBits(), 8ull * 64 * 1024 * 16 * 8);
}

TEST(ValueStoreDeathTest, ValueTooLargeForBitmap) {
  ValueStore vs(8, 4);
  Value big = Value::Filler(1, 64);  // 4 units
  EXPECT_DEATH(vs.WriteValue(0b1, 0, big), "does not fit");
}

}  // namespace
}  // namespace netcache
