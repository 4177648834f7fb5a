// Tests for src/common: rng, hash, histogram, timeseries, status, logging.

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timeseries.h"

namespace netcache {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit over 1000 draws
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng a(23);
  Rng b = a.Split();
  // The split stream should not replay the parent's sequence.
  Rng a2(23);
  EXPECT_NE(b.Next(), a2.Next());
}

TEST(RngTest, UniformityChiSquared) {
  Rng rng(29);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 15 dof: p<0.001 at ~37.7.
  EXPECT_LT(chi2, 37.7);
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Avalanche-ish: flipping one input bit flips many output bits.
  uint64_t a = Mix64(0x1234);
  uint64_t b = Mix64(0x1235);
  int diff = std::popcount(a ^ b);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(HashTest, HashBytesMatchesLength) {
  uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_NE(HashBytes(data, 4), HashBytes(data, 8));
  EXPECT_EQ(HashBytes(data, 8), HashBytes(data, 8));
}

TEST(HashTest, SeededHashesDifferPerSeed) {
  int collisions = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (SeededHash(x, 1) == SeededHash(x, 2)) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(HashTest, SeededHashBytesConsistent) {
  const char* s = "netcache";
  EXPECT_EQ(SeededHashBytes(s, 8, 5), SeededHashBytes(s, 8, 5));
  EXPECT_NE(SeededHashBytes(s, 8, 5), SeededHashBytes(s, 8, 6));
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 99u);
  EXPECT_NEAR(h.Mean(), 49.5, 1e-9);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 99u);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 50.0, 1.0);
}

TEST(HistogramTest, LargeValuesWithinRelativeError) {
  Histogram h;
  uint64_t v = 123'456'789;
  h.Record(v);
  uint64_t q = h.Quantile(0.5);
  EXPECT_NEAR(static_cast<double>(q), static_cast<double>(v), v * 0.01);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    h.Record(rng.NextBounded(1'000'000));
  }
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    uint64_t val = h.Quantile(q);
    EXPECT_GE(val, prev);
    prev = val;
  }
}

TEST(HistogramTest, MergeEqualsCombined) {
  Histogram a;
  Histogram b;
  Histogram both;
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBounded(100000);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.Quantile(0.9), both.Quantile(0.9));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, RecordNWeights) {
  Histogram h;
  h.RecordN(10, 5);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.Mean(), 10.0, 1e-9);
}

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, BinsAccumulate) {
  TimeSeries ts(100);
  ts.Add(0, 1.0);
  ts.Add(99, 2.0);
  ts.Add(100, 3.0);
  ts.Add(250, 4.0);
  EXPECT_EQ(ts.NumBins(), 3u);
  EXPECT_DOUBLE_EQ(ts.BinSum(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.BinSum(1), 3.0);
  EXPECT_DOUBLE_EQ(ts.BinSum(2), 4.0);
  EXPECT_DOUBLE_EQ(ts.BinSum(3), 0.0);  // untouched
}

TEST(TimeSeriesTest, RateDividesByWidth) {
  TimeSeries ts(1000);
  ts.Add(0, 500.0);
  EXPECT_DOUBLE_EQ(ts.BinRate(0), 0.5);
}

TEST(TimeSeriesTest, AggregateCoarsens) {
  TimeSeries ts(10);
  for (uint64_t t = 0; t < 100; t += 10) {
    ts.Add(t, 1.0);
  }
  std::vector<double> agg = ts.Aggregate(5);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg[0], 5.0);
  EXPECT_DOUBLE_EQ(agg[1], 5.0);
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, FactoryAndToString) {
  Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
}

TEST(StatusTest, CodePrintsItsName) {
  // A failed EXPECT_EQ on two codes prints them through this path.
  EXPECT_EQ(::testing::PrintToString(StatusCode::kNotFound), "NOT_FOUND");
  std::ostringstream os;
  os << StatusCode::kUnavailable;
  EXPECT_EQ(os.str(), "UNAVAILABLE");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace netcache
