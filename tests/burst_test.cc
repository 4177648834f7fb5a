// Tests for VPP-style burst processing: the simulator's same-instant delivery
// coalescing, link egress coalescing, and the switch under delivery bursts.
//
// The contract under test is behavioural transparency — a burst must produce
// exactly the emits and counters that one-at-a-time delivery produces in
// arrival order. Bursts are a throughput optimisation, never a semantic
// one; tests/determinism_test.cmake leg 3 proves the same property end-to-end
// (byte-identical rack metrics JSON with and without --no-burst).

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/simulator.h"

namespace netcache {
namespace {

constexpr IpAddress kClient = 0x0b000001;
constexpr IpAddress kClientB = 0x0b000002;
constexpr IpAddress kServerA = 0x0a000001;
constexpr IpAddress kServerB = 0x0a000002;

Key K(uint64_t id) { return Key::FromUint64(id); }

SwitchConfig SmallSwitch() {
  SwitchConfig cfg;
  cfg.num_pipes = 2;
  cfg.ports_per_pipe = 4;
  cfg.num_stages = 8;
  cfg.indexes_per_pipe = 64;
  cfg.cache_capacity = 64;
  cfg.stats.counter_slots = 64;
  cfg.stats.hh.sketch_width = 1024;
  cfg.stats.hh.bloom_bits = 4096;
  cfg.stats.hh.hot_threshold = 8;
  return cfg;
}

// One packet the switch emitted, as the far end of its egress link saw it.
struct Received {
  SimTime at = 0;
  uint32_t port = 0;
  Packet pkt;
};

// Far end of every switch port: records arrivals in delivery order.
class EmitRecorder : public Node {
 public:
  explicit EmitRecorder(Simulator* sim) : Node("recorder"), sim_(sim) {}
  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    received_.push_back({sim_->Now(), in_port, pkt});
  }

  Simulator* sim_;
  std::vector<Received> received_;
};

void ExpectSameEmits(const std::vector<Received>& burst, const std::vector<Received>& single) {
  ASSERT_EQ(burst.size(), single.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].at, single[i].at) << "emit " << i;
    EXPECT_EQ(burst[i].port, single[i].port) << "emit " << i;
    const Packet& a = burst[i].pkt;
    const Packet& b = single[i].pkt;
    EXPECT_EQ(a.nc.op, b.nc.op) << "emit " << i;
    EXPECT_EQ(a.nc.seq, b.nc.seq) << "emit " << i;
    EXPECT_EQ(a.nc.key, b.nc.key) << "emit " << i;
    EXPECT_EQ(a.nc.has_value, b.nc.has_value) << "emit " << i;
    EXPECT_EQ(a.nc.value, b.nc.value) << "emit " << i;
    EXPECT_EQ(a.ip.src, b.ip.src) << "emit " << i;
    EXPECT_EQ(a.ip.dst, b.ip.dst) << "emit " << i;
    EXPECT_EQ(a.ip.ttl, b.ip.ttl) << "emit " << i;
  }
}

void ExpectSameCounters(const SwitchCounters& a, const SwitchCounters& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.netcache_queries, b.netcache_queries);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_invalid, b.cache_invalid);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.cache_updates, b.cache_updates);
  EXPECT_EQ(a.hot_reports, b.hot_reports);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.unroutable, b.unroutable);
  EXPECT_EQ(a.ttl_drops, b.ttl_drops);
}

// The switch under test, counting the delivery bursts it is handed (the
// packets then run through the inherited per-packet loop).
class BurstCountingSwitch : public NetCacheSwitch {
 public:
  using NetCacheSwitch::NetCacheSwitch;
  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    ++bursts_;
    burst_packets_ += count;
    NetCacheSwitch::HandleBurst(arrivals, count);
  }

  size_t bursts_ = 0;
  size_t burst_packets_ = 0;
};

// A switch in its own simulator, every used port cabled to a recorder.
struct SwitchLeg {
  explicit SwitchLeg(bool coalesce) : sw(&sim, "tor", SmallSwitch()), rx(&sim) {
    sim.set_burst_coalescing(coalesce);
    for (uint32_t port : {0u, 1u, 4u, 5u}) {
      links.push_back(std::make_unique<Link>(&sim, LinkConfig{}));
      links.back()->Connect(&sw, port, &rx, port);
    }
    EXPECT_TRUE(sw.AddRoute(kServerA, 0).ok());
    EXPECT_TRUE(sw.AddRoute(kServerB, 1).ok());
    EXPECT_TRUE(sw.AddRoute(kClient, 4).ok());
    EXPECT_TRUE(sw.AddRoute(kClientB, 5).ok());
  }

  // Delivers pkts[i] on in_ports[i], all at one instant, and runs to quiescence.
  void Deliver(const std::vector<Packet>& pkts, const std::vector<uint32_t>& in_ports) {
    for (size_t i = 0; i < pkts.size(); ++i) {
      Packet* p = sim.packet_pool().Acquire(pkts[i]);
      sim.ScheduleDeliveryAt(100, Simulator::DeliveryRec{&sw, in_ports[i], p, nullptr, 0, 64});
    }
    sim.RunAll();
  }

  Simulator sim;
  BurstCountingSwitch sw;
  EmitRecorder rx;
  std::vector<std::unique_ptr<Link>> links;
};

// Two identically configured switches: one receives `pkts` as a same-instant
// delivery burst, the other with burst coalescing off (one HandlePacket
// event per packet, the reference schedule); both must agree on everything
// observable.
class BurstEquivalenceTest : public ::testing::Test {
 protected:
  BurstEquivalenceTest() : burst_(/*coalesce=*/true), single_(/*coalesce=*/false) {}

  void ForBoth(const std::function<void(NetCacheSwitch&)>& setup) {
    setup(burst_.sw);
    setup(single_.sw);
  }

  void RunBoth(const std::vector<Packet>& pkts, std::vector<uint32_t> in_ports = {}) {
    in_ports.resize(pkts.size(), 4);
    burst_.Deliver(pkts, in_ports);
    single_.Deliver(pkts, in_ports);
    // The burst leg's switch really got one burst, the reference none.
    EXPECT_EQ(burst_.sw.bursts_, 1u);
    EXPECT_EQ(burst_.sw.burst_packets_, pkts.size());
    EXPECT_EQ(single_.sw.bursts_, 0u);
  }

  void ExpectEquivalent() {
    ExpectSameEmits(burst_.rx.received_, single_.rx.received_);
    ExpectSameCounters(burst_.sw.counters(), single_.sw.counters());
    // Per-key cache counters (the hot-key statistics the controller reads).
    auto burst_counts = burst_.sw.ReadCacheCounters();
    auto single_counts = single_.sw.ReadCacheCounters();
    ASSERT_EQ(burst_counts.size(), single_counts.size());
    for (size_t i = 0; i < burst_counts.size(); ++i) {
      EXPECT_EQ(burst_counts[i].first, single_counts[i].first);
      EXPECT_EQ(burst_counts[i].second, single_counts[i].second);
    }
  }

  SwitchLeg burst_;
  SwitchLeg single_;
};

TEST_F(BurstEquivalenceTest, GetRunHitsAndMisses) {
  ForBoth([](NetCacheSwitch& sw) {
    ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
    ASSERT_TRUE(sw.InsertCacheEntry(K(2), Value::Filler(2, 32), kServerB).ok());
  });
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 32; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(i % 5), i));  // keys 1,2 hit
  }
  RunBoth(pkts);
  ExpectEquivalent();
  EXPECT_GT(burst_.sw.counters().cache_hits, 0u);
  EXPECT_GT(burst_.sw.counters().cache_misses, 0u);
}

TEST_F(BurstEquivalenceTest, WriteBarrierSplitsRun) {
  ForBoth([](NetCacheSwitch& sw) {
    ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
  });
  // Gets around a Put to the cached key: the Put must invalidate the entry
  // for the Gets after it in the same burst, exactly as per-packet.
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(1), i));
  }
  pkts.push_back(MakePut(kClient, kServerA, K(1), Value::Filler(9, 64), 100));
  for (uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(1), 200 + i));
  }
  RunBoth(pkts);
  ExpectEquivalent();
  EXPECT_EQ(burst_.sw.counters().invalidations, 1u);
  EXPECT_EQ(burst_.sw.counters().cache_invalid, 8u);  // the post-Put Gets
}

TEST_F(BurstEquivalenceTest, HotReportInsertionMidBurstIsSeenByLaterGets) {
  // A hot-report handler that inserts the key synchronously mutates the
  // lookup table mid-burst: the Gets after the report must hit the new
  // entry, matching the one-at-a-time schedule exactly.
  ForBoth([](NetCacheSwitch& sw) {
    sw.SetSampleRate(1.0);
    sw.SetHotThreshold(8);
    sw.SetHotReportHandler([&sw](const Key& key, uint32_t) {
      Status s = sw.InsertCacheEntry(key, Value::Filler(77, 48), kServerA);
      EXPECT_TRUE(s.ok());
    });
  });
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 32; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(77), i));
  }
  RunBoth(pkts);
  ExpectEquivalent();
  EXPECT_EQ(burst_.sw.counters().hot_reports, 1u);
  EXPECT_GT(burst_.sw.counters().cache_hits, 0u);  // post-insertion Gets hit
}

TEST_F(BurstEquivalenceTest, MixedPortsInOneBurst) {
  ForBoth([](NetCacheSwitch& sw) {
    ASSERT_TRUE(sw.InsertCacheEntry(K(3), Value::Filler(3, 16), kServerA).ok());
  });
  // Alternating in_ports and clients within one same-instant burst.
  std::vector<Packet> pkts;
  std::vector<uint32_t> ports;
  for (uint32_t i = 0; i < 16; ++i) {
    IpAddress src = (i % 2 == 0) ? kClient : kClientB;
    pkts.push_back(MakeGet(src, kServerA, K(3 + i % 3), i));
    ports.push_back((i % 2 == 0) ? 4 : 5);
  }
  RunBoth(pkts, ports);
  ExpectEquivalent();
  EXPECT_GT(burst_.sw.counters().cache_hits, 0u);
}

// ------------------------------------------------- simulator coalescing

// Records every arrival and whether it came through HandleBurst.
class RecordingNode : public Node {
 public:
  explicit RecordingNode(Simulator* sim) : Node("recorder"), sim_(sim) {}

  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    seqs_.push_back(pkt.nc.seq);
    ports_.push_back(in_port);
    ++single_calls_;
  }
  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    ++burst_calls_;
    last_burst_size_ = count;
    for (size_t i = 0; i < count; ++i) {
      seqs_.push_back(arrivals[i].pkt->nc.seq);
      ports_.push_back(arrivals[i].port);
    }
  }

  Simulator* sim_;
  std::vector<uint32_t> seqs_;
  std::vector<uint32_t> ports_;
  size_t single_calls_ = 0;
  size_t burst_calls_ = 0;
  size_t last_burst_size_ = 0;
};

Simulator::DeliveryRec Rec(Simulator& sim, Node* node, uint32_t port, uint32_t seq) {
  Packet* p = sim.packet_pool().Acquire(MakeGet(kClient, kServerA, K(seq), seq));
  return Simulator::DeliveryRec{node, port, p, nullptr, 0, 64};
}

TEST(SimulatorBurstTest, CoalescesSameInstantDeliveries) {
  Simulator sim;
  RecordingNode node(&sim);
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 1, 0));
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 2, 1));
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 1, 2));
  sim.RunAll();
  EXPECT_EQ(node.burst_calls_, 1u);
  EXPECT_EQ(node.last_burst_size_, 3u);
  EXPECT_EQ(node.seqs_, (std::vector<uint32_t>{0, 1, 2}));  // arrival order
  EXPECT_EQ(node.ports_, (std::vector<uint32_t>{1, 2, 1}));
  EXPECT_EQ(sim.bursts_dispatched(), 1u);
  EXPECT_EQ(sim.burst_packets(), 3u);
  EXPECT_EQ(sim.events_processed(), 3u);  // each delivery still counts
}

TEST(SimulatorBurstTest, DifferentTimesOrNodesDoNotCoalesce) {
  Simulator sim;
  RecordingNode a(&sim);
  RecordingNode b(&sim);
  sim.ScheduleDeliveryAt(100, Rec(sim, &a, 0, 0));
  sim.ScheduleDeliveryAt(100, Rec(sim, &b, 0, 1));  // different node
  sim.ScheduleDeliveryAt(101, Rec(sim, &a, 0, 2));  // different time
  sim.RunAll();
  EXPECT_EQ(a.burst_calls_ + b.burst_calls_, 0u);
  EXPECT_EQ(a.single_calls_, 2u);
  EXPECT_EQ(b.single_calls_, 1u);
  EXPECT_EQ(sim.bursts_dispatched(), 0u);
}

TEST(SimulatorBurstTest, PlainEventBreaksBatch) {
  // A closure event scheduled between two same-instant deliveries must act
  // as a barrier: its side effects may observe the first delivery's state.
  Simulator sim;
  RecordingNode node(&sim);
  int fired_after = -1;
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 0));
  sim.ScheduleAt(100, [&] { fired_after = static_cast<int>(node.seqs_.size()); });
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 1));
  sim.RunAll();
  EXPECT_EQ(node.burst_calls_, 0u);
  EXPECT_EQ(node.single_calls_, 2u);
  EXPECT_EQ(fired_after, 1);  // ran between the two deliveries
}

TEST(SimulatorBurstTest, CoalescingOffDispatchesSingly) {
  Simulator sim;
  sim.set_burst_coalescing(false);
  RecordingNode node(&sim);
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 0));
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 1));
  sim.RunAll();
  EXPECT_EQ(node.burst_calls_, 0u);
  EXPECT_EQ(node.single_calls_, 2u);
  EXPECT_EQ(node.seqs_, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(sim.bursts_dispatched(), 0u);
}

// ------------------------------------------------- link egress coalescing
//
// Same-instant transmissions on one link direction form a transmit group
// delivered as one burst at the LAST member's serialization end plus
// propagation (the far NIC raises one interrupt for the back-to-back train).
// With --no-egress-batch the group ships as adjacent per-packet records that
// the dispatcher re-coalesces — every observable (arrival order, times,
// burst shape, link accounting, event totals) must be identical.

class NullTx : public Node {
 public:
  NullTx() : Node("tx") {}
  void HandlePacket(const Packet&, uint32_t) override {}
};

class TimedRx : public Node {
 public:
  explicit TimedRx(Simulator* sim) : Node("rx"), sim_(sim) {}
  void HandlePacket(const Packet& pkt, uint32_t port) override {
    ++single_calls_;
    Record(pkt, port);
  }
  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    ++burst_calls_;
    last_burst_size_ = count;
    for (size_t i = 0; i < count; ++i) {
      Record(*arrivals[i].pkt, arrivals[i].port);
    }
  }
  void Record(const Packet& pkt, uint32_t port) {
    seqs_.push_back(pkt.nc.seq);
    ports_.push_back(port);
    times_.push_back(sim_->Now());
  }

  Simulator* sim_;
  std::vector<uint32_t> seqs_;
  std::vector<uint32_t> ports_;
  std::vector<SimTime> times_;
  size_t single_calls_ = 0;
  size_t burst_calls_ = 0;
  size_t last_burst_size_ = 0;
};

struct EgressLeg {
  std::vector<uint32_t> seqs;
  std::vector<SimTime> times;
  size_t burst_calls = 0;
  size_t single_calls = 0;
  size_t last_burst_size = 0;
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
};

EgressLeg RunEgressLeg(bool egress_batch, uint32_t packets) {
  Simulator sim;
  sim.set_egress_batching(egress_batch);
  NullTx tx;
  TimedRx rx(&sim);
  Link link(&sim, LinkConfig{});
  link.Connect(&tx, 0, &rx, 0);
  sim.ScheduleAt(10, [&] {
    for (uint32_t i = 0; i < packets; ++i) {
      link.Transmit(0, MakeGet(kClient, kServerA, K(i), i));
    }
  });
  sim.RunAll();
  return EgressLeg{rx.seqs_,
                   rx.times_,
                   rx.burst_calls_,
                   rx.single_calls_,
                   rx.last_burst_size_,
                   link.stats(0).delivered,
                   link.stats(0).bytes,
                   sim.events_processed()};
}

TEST(EgressCoalescingTest, SameInstantTrainDeliversAsOneBurst) {
  EgressLeg leg = RunEgressLeg(/*egress_batch=*/true, 5);
  EXPECT_EQ(leg.burst_calls, 1u);
  EXPECT_EQ(leg.single_calls, 0u);
  EXPECT_EQ(leg.last_burst_size, 5u);
  EXPECT_EQ(leg.seqs, (std::vector<uint32_t>{0, 1, 2, 3, 4}));  // transmit order
  ASSERT_EQ(leg.times.size(), 5u);
  for (SimTime t : leg.times) {
    EXPECT_EQ(t, leg.times.front());  // one shared delivery instant
  }
  EXPECT_EQ(leg.delivered, 5u);
}

TEST(EgressCoalescingTest, NoEgressBatchLegIsObservationallyIdentical) {
  EgressLeg batched = RunEgressLeg(/*egress_batch=*/true, 6);
  EgressLeg unbatched = RunEgressLeg(/*egress_batch=*/false, 6);
  EXPECT_EQ(batched.seqs, unbatched.seqs);
  EXPECT_EQ(batched.times, unbatched.times);
  EXPECT_EQ(batched.burst_calls, unbatched.burst_calls);
  EXPECT_EQ(batched.single_calls, unbatched.single_calls);
  EXPECT_EQ(batched.last_burst_size, unbatched.last_burst_size);
  EXPECT_EQ(batched.delivered, unbatched.delivered);
  EXPECT_EQ(batched.bytes, unbatched.bytes);
  // A burst record weighs its member count, so event totals agree too.
  EXPECT_EQ(batched.events, unbatched.events);
  EXPECT_EQ(batched.burst_calls, 1u);  // and the burst actually happened
}

TEST(EgressCoalescingTest, DistinctInstantsFormDistinctGroups) {
  Simulator sim;
  NullTx tx;
  TimedRx rx(&sim);
  Link link(&sim, LinkConfig{});
  link.Connect(&tx, 0, &rx, 0);
  // Two transmissions accepted at different instants: the second queues
  // behind the first but opens its own group, so they deliver separately at
  // their own serialization ends.
  sim.ScheduleAt(10, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(0), 0)); });
  sim.ScheduleAt(11, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(1), 1)); });
  sim.RunAll();
  EXPECT_EQ(rx.burst_calls_, 0u);
  EXPECT_EQ(rx.single_calls_, 2u);
  EXPECT_EQ(rx.seqs_, (std::vector<uint32_t>{0, 1}));
  ASSERT_EQ(rx.times_.size(), 2u);
  EXPECT_LT(rx.times_[0], rx.times_[1]);
}

}  // namespace
}  // namespace netcache
