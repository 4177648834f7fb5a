// Tests for the discrete-event simulator, links and nodes.

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/link.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(10, [&] { order.push_back(2); });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, HandlerCanScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  sim.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 2);
}

class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    received.push_back({pkt, in_port});
  }
  std::vector<std::pair<Packet, uint32_t>> received;
};

// ------------------------------------------------------------ event queue

constexpr SimDuration kWindow = SimDuration{1} << Simulator::kEventWheelBits;

// A randomized serial schedule. Every event records (time, seq) when it
// fires, where seq is its schedule order — the queue key of a single stream.
// Each firing schedules a child at a distance picked to hit the queue's edge
// cases, or sometimes at an absolute time already used by a far-heap event,
// once the window has reached it. Since nothing is scheduled
// into the past and later schedules get larger keys, the fired sequence
// must equal every scheduled (time, seq) sorted.
class RandomSchedule {
 public:
  RandomSchedule(Simulator* sim, uint64_t seed, size_t budget)
      : sim_(sim), rng_(seed), budget_(budget) {}

  void Start(size_t chains) {
    for (size_t i = 0; i < chains; ++i) {
      Add(sim_->Now() + PickDelay());
    }
  }

  const std::vector<std::pair<SimTime, uint64_t>>& fired() const { return fired_; }
  std::vector<std::pair<SimTime, uint64_t>> SortedSchedule() const {
    std::vector<std::pair<SimTime, uint64_t>> all = scheduled_;
    std::sort(all.begin(), all.end());
    return all;
  }
  size_t scheduled_count() const { return scheduled_.size(); }
  SimTime last_scheduled_time() const { return scheduled_.back().first; }
  size_t scheduled_at_or_before(SimTime t) const {
    return static_cast<size_t>(std::count_if(scheduled_.begin(), scheduled_.end(),
                                             [t](const auto& e) { return e.first <= t; }));
  }
  size_t far_revisits() const { return far_revisits_; }

 private:
  SimDuration PickDelay() {
    switch (rng_.NextBounded(8)) {
      case 0:
        return 0;  // same-instant tie with everything pending at Now()
      case 1:
        return kWindow - 1;  // the wheel's last slot
      case 2:
        return kWindow;  // the first far distance
      case 3:
        return kWindow + rng_.NextBounded(4 * kWindow);  // far, enters the window later
      case 4:
        return 10 * kMillisecond + rng_.NextBounded(1000);  // reply-timer distance
      default:
        return rng_.NextBounded(64) * 50;  // coarse grid: many equal times
    }
  }

  void Add(SimTime at) {
    const uint64_t seq = next_seq_++;
    scheduled_.emplace_back(at, seq);
    if (at - sim_->Now() >= kWindow) {
      far_times_.push_back(at);
    }
    sim_->ScheduleAt(at, [this, at, seq] { Fire(at, seq); });
  }

  void Fire(SimTime at, uint64_t seq) {
    EXPECT_EQ(sim_->Now(), at);
    fired_.emplace_back(at, seq);
    if (budget_ == 0) {
      return;
    }
    --budget_;
    if (!far_times_.empty() && rng_.NextBounded(4) == 0) {
      // A recent far time now inside the window: the child lands in a wheel
      // slot while an earlier-keyed event of the same instant waits in the
      // far heap.
      SimTime t = far_times_[far_times_.size() - 1 -
                             rng_.NextBounded(std::min<size_t>(far_times_.size(), 8))];
      if (t >= sim_->Now() && t - sim_->Now() < kWindow) {
        ++far_revisits_;
        Add(t);
        return;
      }
    }
    Add(sim_->Now() + PickDelay());
  }

  Simulator* sim_;
  Rng rng_;
  size_t budget_;
  uint64_t next_seq_ = 0;
  size_t far_revisits_ = 0;
  std::vector<std::pair<SimTime, uint64_t>> scheduled_;
  std::vector<std::pair<SimTime, uint64_t>> fired_;
  std::vector<SimTime> far_times_;
};

TEST(EventQueueTest, RandomScheduleMatchesReferenceSort) {
  Simulator sim;
  RandomSchedule sched(&sim, /*seed=*/11, /*budget=*/120000);
  sched.Start(/*chains=*/200);
  sim.RunAll();
  ASSERT_GE(sched.fired().size(), 100000u);
  EXPECT_EQ(sched.fired(), sched.SortedSchedule());
  EXPECT_GT(sched.far_revisits(), 1000u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  // One stream pushes keys in increasing order: every push appends.
  EXPECT_EQ(sim.queue_sorted_inserts(), 0u);
}

TEST(EventQueueTest, RunUntilStopsAtUntilAndResumes) {
  Simulator sim;
  RandomSchedule sched(&sim, /*seed=*/12, /*budget=*/100000);
  sched.Start(/*chains=*/100);
  Rng rng(13);
  SimTime until = 0;
  int steps = 0;
  while (sim.PendingEvents() != 0) {
    // Alternate strides with stops exactly on the newest event's instant:
    // events at `until` itself must run, later ones must not.
    SimTime newest = sched.last_scheduled_time();
    until = (steps % 2 == 0 && newest > until) ? newest
                                               : until + rng.NextBounded(200 * kWindow);
    sim.RunUntil(until);
    ++steps;
    EXPECT_EQ(sim.Now(), until);
    ASSERT_EQ(sched.fired().size(), sched.scheduled_at_or_before(until)) << "until " << until;
    ASSERT_EQ(sim.PendingEvents(), sched.scheduled_count() - sched.fired().size());
  }
  EXPECT_GT(steps, 100);
  ASSERT_GE(sched.fired().size(), 100000u);
  EXPECT_EQ(sched.fired(), sched.SortedSchedule());
}

TEST(EventQueueTest, SlabDoesNotGrowInSteadyState) {
  // The ReserveEvents promise: with at most `reserve` events pending, the
  // queue never reallocates, however far ahead events are scheduled.
  constexpr size_t kReserve = 256;
  constexpr int kChains = 64;
  Simulator sim(kReserve);
  const size_t capacity = sim.EventCapacity();
  EXPECT_GE(capacity, kReserve);
  Rng rng(5);
  uint64_t fired = 0;
  struct Chain {
    Simulator* sim;
    Rng* rng;
    uint64_t* fired;
    void Tick() {
      ++*fired;
      const uint64_t pick = rng->NextBounded(64);
      SimDuration d = pick == 0   ? 10 * kMillisecond
                      : pick == 1 ? kWindow + rng->NextBounded(kWindow)
                                  : rng->NextBounded(2000);
      sim->Schedule(d, [this] { Tick(); });
    }
  };
  std::vector<Chain> chains(kChains, Chain{&sim, &rng, &fired});
  for (Chain& c : chains) {
    sim.Schedule(rng.NextBounded(1000), [&c] { c.Tick(); });
  }
  for (int step = 1; step <= 30; ++step) {
    sim.RunUntil(static_cast<SimTime>(step) * 10 * kMillisecond);
    EXPECT_EQ(sim.PendingEvents(), static_cast<size_t>(kChains));
    EXPECT_EQ(sim.EventCapacity(), capacity) << "at step " << step;
  }
  EXPECT_GT(fired, 100000u);
}

TEST(EventQueueTest, PartitionedMailTakesTheSortedInsertPath) {
  // Three LPs on a full mesh of 1 us links, plus global-stream events that
  // schedule into the LPs during serial instants. Cross-LP mail and
  // global-to-LP schedules carry keys of other streams, often below the
  // tail key of the destination slot: the queue's counted sorted-insert
  // path. Every stream must still run its events in (time, key) order,
  // where key = (scheduling stream, that stream's schedule sequence). No
  // delay here is 0: an event scheduled for the running instant from another
  // stream may carry a smaller key than one that already ran, so only with
  // positive delays is the fired order exactly the sorted schedule.
  constexpr SimDuration kProp = 1000;
  constexpr uint32_t kLps = 3;
  using Rec = std::tuple<SimTime, uint32_t, uint64_t>;  // (time, stream, seq)
  struct Run {
    std::array<std::vector<Rec>, kLps + 1> fired;      // by executing stream
    std::array<std::vector<std::pair<uint32_t, Rec>>, kLps + 1> sent;  // by sender
    uint64_t sorted_inserts = 0;
  };
  auto run = [&](size_t threads) {
    Run out;
    Simulator sim;
    std::deque<SinkNode> nodes;  // Node is immovable
    for (uint32_t i = 0; i <= kLps; ++i) {
      nodes.emplace_back("n" + std::to_string(i));
      nodes.back().set_lp(i);
    }
    LinkConfig cfg;
    cfg.propagation = kProp;
    std::vector<std::unique_ptr<Link>> links;
    uint32_t port[kLps + 1] = {};
    for (uint32_t i = 1; i <= kLps; ++i) {
      for (uint32_t j = i + 1; j <= kLps; ++j) {
        links.push_back(std::make_unique<Link>(&sim, cfg));
        links.back()->Connect(&nodes[i], port[i]++, &nodes[j], port[j]++);
      }
    }
    EXPECT_TRUE(sim.ConfigurePartitions(kLps, threads));
    // Per-stream state, touched only by that stream's events.
    struct Stream {
      uint64_t seq = 0;
      uint64_t budget = 0;
      Rng rng{0};
    };
    std::array<Stream, kLps + 1> streams;
    for (uint32_t s = 0; s <= kLps; ++s) {
      streams[s].budget = s == 0 ? 400 : 12000;
      streams[s].rng = Rng(100 + s);
    }
    // Schedules an event into stream `dest` from stream `from`.
    std::function<void(uint32_t, uint32_t, SimTime)> add;
    std::function<void(uint32_t, Rec)> fire = [&](uint32_t home, Rec rec) {
      EXPECT_EQ(sim.Now(), std::get<0>(rec));
      out.fired[home].push_back(rec);
      Stream& st = streams[home];
      if (st.budget == 0) {
        return;
      }
      --st.budget;
      const SimTime now = sim.Now();
      if (home == 0) {
        // A control-plane tick: pokes every LP at a grid instant and re-arms
        // itself.
        for (uint32_t lp = 1; lp <= kLps; ++lp) {
          add(0, lp, now + (1 + st.rng.NextBounded(8)) * 50);
        }
        add(0, 0, now + 5000 + st.rng.NextBounded(100) * 50);
        return;
      }
      add(home, home, now + (1 + st.rng.NextBounded(40)) * 50);
      if (st.rng.NextBounded(2) == 0) {
        uint32_t to = 1 + static_cast<uint32_t>(st.rng.NextBounded(kLps));
        SimDuration d = to == home ? 2 * kProp : kProp;
        add(home, to, now + d + st.rng.NextBounded(40) * 50);
      }
    };
    add = [&](uint32_t from, uint32_t dest, SimTime at) {
      Rec rec{at, from, streams[from].seq++};
      out.sent[from].emplace_back(dest, rec);
      auto ev = [&fire, dest, rec] { fire(dest, rec); };
      if (dest == 0) {
        sim.ScheduleGlobalAt(at, ev);
      } else {
        sim.ScheduleAtFor(&nodes[dest], at, ev);
      }
    };
    for (uint32_t lp = 1; lp <= kLps; ++lp) {
      for (int k = 0; k < 8; ++k) {
        add(0, lp, static_cast<SimTime>(k) * 100);
      }
    }
    add(0, 0, 3000);
    sim.RunAll();
    out.sorted_inserts = sim.queue_sorted_inserts();
    return out;
  };
  Run one = run(1);
  for (uint32_t home = 0; home <= kLps; ++home) {
    std::vector<Rec> expect;
    for (const auto& sent : one.sent) {
      for (const auto& [dest, rec] : sent) {
        if (dest == home) {
          expect.push_back(rec);
        }
      }
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(one.fired[home], expect) << "stream " << home;
  }
  EXPECT_GT(one.fired[1].size() + one.fired[2].size() + one.fired[3].size(), 30000u);
  EXPECT_GT(one.sorted_inserts, 1000u);
  // The worker count changes neither the schedule nor the slow-path count.
  Run three = run(3);
  EXPECT_EQ(three.fired, one.fired);
  EXPECT_EQ(three.sorted_inserts, one.sorted_inserts);
}

TEST(LinkTest, DeliversWithSerializationAndPropagation) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;  // 1 ns per byte
  cfg.propagation = 500;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);

  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  size_t bytes = pkt.WireSize();
  a.Send(0, pkt);
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  // Arrival = serialization (1 ns/B) + propagation.
  EXPECT_EQ(sim.Now(), bytes + 500);
  EXPECT_EQ(link.stats(0).delivered, 1u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindTransmitter) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 0;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  size_t bytes = pkt.WireSize();
  a.Send(0, pkt);
  a.Send(0, pkt);  // same instant: serializes after the first
  sim.RunAll();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(sim.Now(), 2 * bytes);  // back-to-back serialization times
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 0.008;  // very slow: 1 us per byte
  cfg.queue_bytes = 150;       // fits ~2 GET packets
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  for (int i = 0; i < 10; ++i) {
    a.Send(0, pkt);
  }
  sim.RunAll();
  EXPECT_GT(link.stats(0).dropped, 0u);
  EXPECT_EQ(link.stats(0).delivered + link.stats(0).dropped, 10u);
  EXPECT_EQ(b.received.size(), link.stats(0).delivered);
}

TEST(LinkTest, FullDuplexDirectionsIndependent) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  Link link(&sim, LinkConfig{});
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  a.Send(0, pkt);
  b.Send(0, pkt);
  sim.RunAll();
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(link.stats(0).delivered, 1u);
  EXPECT_EQ(link.stats(1).delivered, 1u);
}

TEST(NodeTest, SendOnUnwiredPortIsSafeNoop) {
  SinkNode a("a");
  Packet pkt;
  a.Send(5, pkt);  // no crash, just a warning
  EXPECT_EQ(a.received.size(), 0u);
}

TEST(ParallelSimTest, ZeroPropagationLinkForcesSerialFallback) {
  // A cross-partition link with zero propagation gives a zero lookahead: no
  // window can make progress, so ConfigurePartitions must refuse (with a
  // logged warning) and leave the simulator on the serial dispatcher rather
  // than deadlock.
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  a.set_lp(1);
  b.set_lp(2);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 0;  // zero lookahead across LPs 1 and 2
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);

  EXPECT_FALSE(sim.ConfigurePartitions(2, 2));
  EXPECT_FALSE(sim.partitioned());

  // Traffic still flows, in order, on the serial path.
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  a.Send(0, pkt);
  a.Send(0, pkt);
  sim.RunAll();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(link.stats(0).delivered, 2u);
}

TEST(ParallelSimTest, PartitionedRunMatchesSerialSchedule) {
  // The same two-node ping stream executed serially and under a 2-LP
  // partitioned schedule must deliver the same packets at the same times.
  auto run = [](size_t sim_threads) {
    Simulator sim;
    SinkNode a("a");
    SinkNode b("b");
    LinkConfig cfg;
    cfg.bandwidth_gbps = 8.0;
    cfg.propagation = 400;
    Link link(&sim, cfg);
    link.Connect(&a, 0, &b, 0);
    if (sim_threads > 0) {
      a.set_lp(1);
      b.set_lp(2);
      EXPECT_TRUE(sim.ConfigurePartitions(2, sim_threads));
    }
    Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAtFor(&a, static_cast<SimTime>(i) * 150, [&a, pkt] {
        Packet p = pkt;
        a.Send(0, p);
      });
    }
    sim.RunAll();
    return std::pair<SimTime, size_t>(sim.Now(), b.received.size());
  };
  auto serial = run(0);
  auto par1 = run(1);
  auto par4 = run(4);
  EXPECT_EQ(par1, par4);
  EXPECT_EQ(serial.second, par1.second);
  EXPECT_EQ(serial.first, par1.first);
}

TEST(ParallelSimTest, IdleLpSkipsRoundsAndBusyLpsMergeWindows) {
  // Adaptive rounds: an LP with no pending work and no inbound mail must not
  // be forced into rounds at all (no stall spins), and a busy LP whose
  // neighbors are quiet gets a horizon wider than the legacy global
  // min(T0) + lookahead window.
  //
  // Topology: a (LP1) -- 400ns --> b (LP2) -- 400ns --> c (LP3). All traffic
  // is a -> b; c idles for the whole run.
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  SinkNode c("c");
  a.set_lp(1);
  b.set_lp(2);
  c.set_lp(3);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 400;
  Link ab(&sim, cfg);
  ab.Connect(&a, 0, &b, 0);
  Link bc(&sim, cfg);
  bc.Connect(&b, 1, &c, 0);
  ASSERT_TRUE(sim.ConfigurePartitions(3, 2));

  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    // Spaced far wider than the 400ns lookahead: legacy fixed windows would
    // burn ~12 empty windows between sends; adaptive rounds must not.
    sim.ScheduleAtFor(&a, static_cast<SimTime>(i) * 5000, [&a, pkt] {
      Packet p = pkt;
      a.Send(0, p);
    });
  }
  sim.RunAll();

  EXPECT_EQ(b.received.size(), static_cast<size_t>(kPackets));
  EXPECT_TRUE(c.received.empty());
  // The idle LP never participated: a skipped round costs nothing, a forced
  // one would have counted a stall.
  EXPECT_EQ(sim.lp_window_stalls(3), 0u);
  // a's horizon is bounded by its own send->reply cycle (800ns) and by b's
  // clock, not by the 400ns link lookahead: windows merged.
  EXPECT_GT(sim.lp_windows_merged(1), 0u);
  // Adaptive rounds stay event-bound, not lookahead-bound: the run spans
  // 250us, which would be >600 fixed 400ns windows even if fully idle ones
  // were free.
  EXPECT_LT(sim.windows_run(), 4u * kPackets);
}

}  // namespace
}  // namespace netcache
