// End-to-end integration tests: full rack (clients <-> ToR <-> servers, with
// controller) exchanging real packets through the simulator. Covers the whole
// §4.2/§4.3 query-handling and coherence story plus dynamic cache adoption.

#include <vector>

#include <gtest/gtest.h>

#include "core/rack.h"
#include "workload/generator.h"

namespace netcache {
namespace {

Key K(uint64_t id) { return Key::FromUint64(id); }

RackConfig TestRack() {
  RackConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 1024;
  cfg.switch_config.indexes_per_pipe = 1024;
  cfg.switch_config.stats.counter_slots = 1024;
  cfg.switch_config.stats.hh.sketch_width = 4096;
  cfg.switch_config.stats.hh.bloom_bits = 8192;
  cfg.switch_config.stats.hh.hot_threshold = 32;
  cfg.controller_config.cache_capacity = 64;
  cfg.controller_config.control_op_latency = 20 * kMicrosecond;
  cfg.controller_config.stats_epoch = 50 * kMillisecond;
  cfg.server_template.service_rate_qps = 1e6;
  return cfg;
}

TEST(RackIntegrationTest, GetFromServerEndToEnd) {
  Rack rack(TestRack());
  rack.Populate(100, 64);
  Status got = Status::Internal("pending");
  Value value;
  rack.client(0).Get(rack.OwnerOf(K(7)), K(7), [&](const Status& s, const Value& v) {
    got = s;
    value = v;
  });
  rack.sim().RunUntil(1 * kMillisecond);
  EXPECT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(value, WorkloadGenerator::ValueFor(7, 64));
  EXPECT_EQ(rack.tor().counters().cache_misses, 1u);
}

TEST(RackIntegrationTest, CachedGetServedBySwitchFaster) {
  Rack rack(TestRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(7)});

  Value value;
  rack.client(0).Get(rack.OwnerOf(K(7)), K(7),
                     [&](const Status&, const Value& v) { value = v; });
  rack.sim().RunUntil(1 * kMillisecond);
  EXPECT_EQ(value, WorkloadGenerator::ValueFor(7, 64));
  EXPECT_EQ(rack.tor().counters().cache_hits, 1u);
  EXPECT_EQ(rack.server(0).stats().reads + rack.server(1).stats().reads +
                rack.server(2).stats().reads + rack.server(3).stats().reads,
            0u);  // no server involved

  // Cache hits skip the server's service time, so they are faster: compare
  // against an uncached read.
  uint64_t hit_latency = rack.client(0).latency().max();
  rack.client(0).Get(rack.OwnerOf(K(50)), K(50), [](const Status&, const Value&) {});
  rack.sim().RunUntil(2 * kMillisecond);
  uint64_t miss_latency = rack.client(0).latency().max();
  EXPECT_GT(miss_latency, hit_latency);
}

TEST(RackIntegrationTest, WriteTheReadYourWrites) {
  // Write to a cached key, then read it back: the reply must carry the new
  // value no matter whether the read hits the (refreshed) cache or the
  // server — this is the coherence guarantee of §4.3.
  Rack rack(TestRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(9)});

  Value fresh = Value::Filler(0xf00d, 64);
  bool put_done = false;
  rack.client(0).Put(rack.OwnerOf(K(9)), K(9), fresh,
                     [&](const Status& s, const Value&) { put_done = s.ok(); });
  rack.sim().RunUntil(1 * kMillisecond);
  ASSERT_TRUE(put_done);

  Value read_back;
  rack.client(0).Get(rack.OwnerOf(K(9)), K(9),
                     [&](const Status&, const Value& v) { read_back = v; });
  rack.sim().RunUntil(2 * kMillisecond);
  EXPECT_EQ(read_back, fresh);

  // The data-plane refresh re-validated the entry with the new value.
  EXPECT_TRUE(rack.tor().IsValid(K(9)));
  EXPECT_EQ(*rack.tor().ReadCachedValue(K(9)), fresh);
  EXPECT_GE(rack.tor().counters().cache_updates, 1u);
}

TEST(RackIntegrationTest, ReadDuringInvalidationWindowServedByServer) {
  Rack rack(TestRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(9)});
  Value fresh = Value::Filler(0xbeef, 64);
  rack.client(0).Put(rack.OwnerOf(K(9)), K(9), fresh, [](const Status&, const Value&) {});
  // Read immediately (before the server's refresh can land).
  Value read_back;
  rack.client(0).Get(rack.OwnerOf(K(9)), K(9),
                     [&](const Status&, const Value& v) { read_back = v; });
  rack.sim().RunUntil(5 * kMillisecond);
  // Server serialization guarantees the read sees the new value, not the
  // stale cached one.
  EXPECT_EQ(read_back, fresh);
}

TEST(RackIntegrationTest, DeleteRemovesEverywhere) {
  Rack rack(TestRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(9)});
  bool deleted = false;
  rack.client(0).Delete(rack.OwnerOf(K(9)), K(9),
                        [&](const Status& s, const Value&) { deleted = s.ok(); });
  rack.sim().RunUntil(2 * kMillisecond);
  ASSERT_TRUE(deleted);
  // Cached entry is invalid; a read goes to the server and reports not-found.
  Status got = Status::Ok();
  rack.client(0).Get(rack.OwnerOf(K(9)), K(9), [&](const Status& s, const Value&) { got = s; });
  rack.sim().RunUntil(4 * kMillisecond);
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
  EXPECT_FALSE(rack.tor().IsValid(K(9)));
}

TEST(RackIntegrationTest, HotKeyGetsAdoptedAndServedFromCache) {
  Rack rack(TestRack());
  rack.Populate(1000, 64);
  rack.StartController();
  CheckerRunner& verifier = rack.EnableInvariantChecks(1 * kMillisecond);

  // Hammer one key via real client traffic.
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    rack.sim().Schedule(static_cast<SimDuration>(i) * 5 * kMicrosecond, [&rack, &done] {
      rack.client(0).Get(rack.OwnerOf(K(3)), K(3),
                         [&done](const Status&, const Value&) { ++done; });
    });
  }
  rack.sim().RunUntil(20 * kMillisecond);
  EXPECT_EQ(done, 200);
  EXPECT_TRUE(rack.tor().IsCached(K(3)));
  EXPECT_GT(rack.tor().counters().cache_hits, 0u);
  // Later reads are all switch-served.
  uint64_t server_reads_before = rack.server(0).stats().reads + rack.server(1).stats().reads +
                                 rack.server(2).stats().reads + rack.server(3).stats().reads;
  for (int i = 0; i < 50; ++i) {
    rack.client(0).Get(rack.OwnerOf(K(3)), K(3), [](const Status&, const Value&) {});
  }
  rack.sim().RunUntil(25 * kMillisecond);
  uint64_t server_reads_after = rack.server(0).stats().reads + rack.server(1).stats().reads +
                                rack.server(2).stats().reads + rack.server(3).stats().reads;
  EXPECT_EQ(server_reads_after, server_reads_before);

  // Cache adoption went through insertion, stats reports, and coherence
  // traffic; no invariant may have been violated along the way.
  verifier.Stop();
  EXPECT_EQ(verifier.RunOnce(), 0u);
  EXPECT_EQ(verifier.total_violations(), 0u);
}

TEST(RackIntegrationTest, NoCacheRackNeverHits) {
  RackConfig cfg = TestRack();
  cfg.cache_enabled = false;
  Rack rack(cfg);
  rack.Populate(100, 64);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    rack.client(0).Get(rack.OwnerOf(K(1)), K(1), [&](const Status&, const Value&) { ++done; });
  }
  rack.sim().RunUntil(10 * kMillisecond);
  EXPECT_EQ(done, 50);
  EXPECT_EQ(rack.tor().counters().cache_hits, 0u);
}

TEST(RackIntegrationTest, OverloadedServerShedsButCachePathUnaffected) {
  RackConfig cfg = TestRack();
  cfg.server_template.service_rate_qps = 1e4;  // slow: 100 us per query
  cfg.server_template.queue_capacity = 4;
  Rack rack(cfg);
  rack.Populate(100, 64);
  rack.WarmCache({K(1)});

  int cache_ok = 0;
  int server_fail = 0;
  for (int i = 0; i < 100; ++i) {
    rack.client(0).Get(rack.OwnerOf(K(1)), K(1), [&](const Status& s, const Value&) {
      cache_ok += s.ok() ? 1 : 0;
    });
    rack.client(0).Get(rack.OwnerOf(K(50)), K(50), [&](const Status& s, const Value&) {
      server_fail += s.ok() ? 0 : 1;
    });
  }
  rack.sim().RunUntil(50 * kMillisecond);
  EXPECT_EQ(cache_ok, 100);     // all cache hits served despite server overload
  EXPECT_GT(server_fail, 0);    // the uncached burst overflowed the queue
}

TEST(RackIntegrationTest, MixedWorkloadDrainsConsistently) {
  // Random mix of operations on overlapping keys; at the end, every key's
  // value read through the system matches a reference model.
  Rack rack(TestRack());
  rack.Populate(20, 64);
  rack.WarmCache({K(0), K(1), K(2), K(3)});
  rack.StartController();
  CheckerRunner& verifier = rack.EnableInvariantChecks(500 * kMicrosecond);

  Rng rng(123);
  std::vector<Value> reference(20);
  for (uint64_t id = 0; id < 20; ++id) {
    reference[id] = WorkloadGenerator::ValueFor(id, 64);
  }
  SimDuration t = 0;
  for (int i = 0; i < 300; ++i) {
    uint64_t id = rng.NextBounded(20);
    bool write = rng.NextBernoulli(0.3);
    t += 20 * kMicrosecond;
    if (write) {
      Value v = Value::Filler(1000 + static_cast<uint64_t>(i), 64);
      reference[id] = v;  // sequential issue order == serialization order
      rack.sim().ScheduleAt(t, [&rack, id, v] {
        rack.client(0).Put(rack.OwnerOf(K(id)), K(id), v, [](const Status&, const Value&) {});
      });
    } else {
      rack.sim().ScheduleAt(t, [&rack, id] {
        rack.client(0).Get(rack.OwnerOf(K(id)), K(id), [](const Status&, const Value&) {});
      });
    }
  }
  rack.sim().RunUntil(t + 50 * kMillisecond);

  // Final read-back of every key observes the reference value.
  for (uint64_t id = 0; id < 20; ++id) {
    Value got;
    rack.client(0).Get(rack.OwnerOf(K(id)), K(id),
                       [&](const Status&, const Value& v) { got = v; });
    rack.sim().RunUntil(rack.sim().Now() + 5 * kMillisecond);
    EXPECT_EQ(got, reference[id]) << "key " << id;
  }

  verifier.Stop();
  EXPECT_EQ(verifier.RunOnce(), 0u);
  EXPECT_EQ(verifier.total_violations(), 0u);
  EXPECT_GT(verifier.runs(), 1u);
}

}  // namespace
}  // namespace netcache
