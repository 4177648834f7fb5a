// Tests for the wall-clock profiler: span recording and aggregation,
// capacity/drop accounting, multi-threaded lane assignment, the
// install/uninstall hook, the Chrome trace JSON shape tools/profile_report.py
// and Perfetto both consume, and the simulator's execute spans.

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/profiler.h"
#include "core/rack.h"

namespace netcache {
namespace {

Profiler::Options SmallOptions(size_t spans_per_lane = 64) {
  Profiler::Options opts;
  opts.spans_per_lane = spans_per_lane;
  opts.max_lanes = 8;
  return opts;
}

TEST(ProfilerTest, RecordsSpansAndAggregates) {
  Profiler prof(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kExecute, t0, t0 + 1000, /*arg=*/5);
  prof.RecordSpan(ProfCat::kExecute, t0 + 2000, t0 + 2500, /*arg=*/2);
  prof.RecordSpan(ProfCat::kEgressFlush, t0 + 2500, t0 + 2600, /*arg=*/7);

  EXPECT_EQ(prof.lanes_used(), 1u);
  EXPECT_EQ(prof.spans_recorded(), 3u);
  EXPECT_EQ(prof.spans_dropped(), 0u);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  // Aggregates: execute 1500 ns over 2 spans with 7 events; egress 100 ns.
  EXPECT_NE(json.find("\"execute\":{\"ns\":1500,\"count\":2,\"arg\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"egress_flush\":{\"ns\":100,\"count\":1,\"arg\":7}"),
            std::string::npos)
      << json;
}

TEST(ProfilerTest, CapacityOverflowDropsTimelineButKeepsAggregates) {
  Profiler prof(SmallOptions(/*spans_per_lane=*/4));
  uint64_t t0 = Profiler::NowNs();
  for (uint64_t i = 0; i < 10; ++i) {
    prof.RecordSpan(ProfCat::kExecute, t0 + i * 100, t0 + i * 100 + 10, 1);
  }
  EXPECT_EQ(prof.spans_recorded(), 4u);
  EXPECT_EQ(prof.spans_dropped(), 6u);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  // All 10 spans aggregate even though only 4 made the timeline.
  EXPECT_NE(json.find("\"execute\":{\"ns\":100,\"count\":10,\"arg\":10}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"spans_dropped\":6"), std::string::npos) << json;
}

TEST(ProfilerTest, ThreadsGetDistinctLanes) {
  Profiler prof(SmallOptions());
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof, t] {
      uint64_t base = Profiler::NowNs();
      for (int i = 0; i < kSpansEach; ++i) {
        prof.RecordSpan(ProfCat::kExecute, base + i * 10, base + i * 10 + 5, 0);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(prof.lanes_used(), static_cast<size_t>(kThreads));
  EXPECT_EQ(prof.spans_recorded(),
            static_cast<uint64_t>(kThreads * kSpansEach));
  EXPECT_EQ(prof.spans_dropped(), 0u);
}

TEST(ProfilerTest, LanePastCapIsCountedNotStored) {
  Profiler::Options opts = SmallOptions();
  opts.max_lanes = 1;
  Profiler prof(opts);
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kExecute, t0, t0 + 10, 1);  // main: lane 0
  std::thread overflow([&prof, t0] {
    prof.RecordSpan(ProfCat::kExecute, t0, t0 + 10, 1);  // past the cap
  });
  overflow.join();
  EXPECT_EQ(prof.lanes_used(), 1u);
  EXPECT_EQ(prof.spans_recorded(), 1u);
  EXPECT_EQ(prof.spans_dropped(), 1u);
}

TEST(ProfilerTest, ChromeTraceShape) {
  Profiler prof(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kSwitchDigest, t0 + 5000, t0 + 7000, /*arg=*/32);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Thread-name metadata plus the span itself, ts/dur in microseconds.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"switch_digest\",\"cat\":\"stage\","
                      "\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"netcache\":{\"version\":2"), std::string::npos) << json;
}

TEST(ProfilerTest, InstallHookAndScopes) {
  ASSERT_EQ(GetProfiler(), nullptr);
  {
    // No profiler installed: scopes are inert.
    ProfScope scope(ProfCat::kExecute);
    scope.set_arg(3);
    EXPECT_FALSE(ProfilingEnabled());
  }

  Profiler prof(SmallOptions());
  EXPECT_EQ(InstallProfiler(&prof), nullptr);
#ifdef NETCACHE_DISABLE_PROFILING
  EXPECT_FALSE(ProfilingEnabled());
  { ProfScope scope(ProfCat::kExecute); }
  EXPECT_EQ(prof.spans_recorded(), 0u);
  InstallProfiler(nullptr);
#else
  EXPECT_TRUE(ProfilingEnabled());
  {
    ProfScope scope(ProfCat::kExecute);
    scope.set_arg(9);
  }
  EXPECT_EQ(prof.spans_recorded(), 1u);

  EXPECT_EQ(InstallProfiler(nullptr), &prof);
  EXPECT_FALSE(ProfilingEnabled());
  { ProfScope scope(ProfCat::kExecute); }
  EXPECT_EQ(prof.spans_recorded(), 1u);  // uninstalled: nothing recorded
#endif
}

TEST(ProfilerTest, TlsSlotIsKeyedByProfiler) {
  // A thread that recorded into one profiler must never write a stale lane
  // pointer into a different instance: the thread-local binding is keyed by
  // profiler, and switching back costs a fresh lane (fine in practice — one
  // profiler is installed per process lifetime).
  Profiler a(SmallOptions());
  Profiler b(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  a.RecordSpan(ProfCat::kExecute, t0, t0 + 10, 1);
  b.RecordSpan(ProfCat::kEgressFlush, t0, t0 + 20, 2);
  a.RecordSpan(ProfCat::kExecute, t0 + 10, t0 + 30, 1);
  EXPECT_EQ(a.spans_recorded(), 2u);
  EXPECT_EQ(b.spans_recorded(), 1u);
  EXPECT_EQ(b.lanes_used(), 1u);
  EXPECT_EQ(a.lanes_used(), 2u);  // re-acquired after b: second lane
  EXPECT_EQ(a.spans_dropped(), 0u);
}

// Aggregate `field` ("ns", "count" or "arg") of category `cat` from the
// profile's "netcache" block; -1 when absent.
int64_t CatAggregate(const std::string& json, const std::string& cat, const std::string& field) {
  size_t at = json.find("\"" + cat + "\":{\"ns\":");
  if (at == std::string::npos) {
    return -1;
  }
  size_t end = json.find('}', at);
  size_t f = json.find("\"" + field + "\":", at);
  if (f == std::string::npos || f > end) {
    return -1;
  }
  return std::stoll(json.substr(f + field.size() + 3));
}

// The switch stage categories cover every NetCache Get the switch runs,
// whether it arrived alone or in a same-instant delivery burst: one span of
// each stage with arg 1 per Get, so every stage's summed arg equals the
// switch's reads counter. The dispatcher records one execute span per
// RunUntil call, tagged with the events it dispatched.
TEST(ProfilerSwitchCoverageTest, StageSpansCoverEveryGet) {
#ifdef NETCACHE_DISABLE_PROFILING
  GTEST_SKIP() << "profiling compiled out";
#else
  Profiler prof(SmallOptions(/*spans_per_lane=*/1024));
  RackConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 64;
  cfg.switch_config.indexes_per_pipe = 64;
  cfg.switch_config.stats.counter_slots = 64;
  cfg.controller_config.cache_capacity = 64;
  Rack rack(cfg);
  rack.Populate(100, 64);
  rack.WarmCache({Key::FromUint64(1), Key::FromUint64(2)});
  ASSERT_EQ(InstallProfiler(&prof), nullptr);

  auto get = [&rack](uint64_t id) {
    Key key = Key::FromUint64(id);
    rack.client(0).Get(rack.OwnerOf(key), key, [](const Status&, const Value&) {});
  };
  // Four Gets issued at one instant leave the client as one transmit group
  // and reach the switch as one delivery burst: two hits, two misses.
  rack.sim().ScheduleAt(10 * kMicrosecond, [&get] {
    for (uint64_t id : {1, 50, 2, 60}) {
      get(id);
    }
  });
  // Then spaced single Gets, hits and misses alternating.
  for (uint64_t i = 0; i < 8; ++i) {
    rack.sim().ScheduleAt((100 + 20 * i) * kMicrosecond,
                          [&get, i] { get(i % 2 == 0 ? 1 : 70 + i); });
  }
  rack.sim().RunUntil(2 * kMillisecond);
  ASSERT_EQ(InstallProfiler(nullptr), &prof);

  const SwitchCounters& c = rack.tor().counters();
  EXPECT_EQ(c.reads, 12u);
  EXPECT_GT(c.cache_hits, 0u);
  EXPECT_GT(c.cache_misses, 0u);
  EXPECT_GT(rack.sim().bursts_dispatched(), 0u);
  std::ostringstream out;
  prof.WriteChromeTrace(out);
  const std::string json = out.str();
  for (const char* cat : {"switch_digest", "switch_match_peek", "switch_value_serve"}) {
    EXPECT_EQ(CatAggregate(json, cat, "arg"), static_cast<int64_t>(c.reads)) << cat;
    EXPECT_EQ(CatAggregate(json, cat, "count"), static_cast<int64_t>(c.reads)) << cat;
  }
  EXPECT_EQ(CatAggregate(json, "execute", "count"), 1);
  EXPECT_EQ(CatAggregate(json, "execute", "arg"),
            static_cast<int64_t>(rack.sim().events_processed()));
#endif
}

}  // namespace
}  // namespace netcache
