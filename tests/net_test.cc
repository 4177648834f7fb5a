// Tests for the discrete-event simulator, links and nodes.

#include <algorithm>
#include <functional>
#include <string>
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
  // Each input sends `count` packets `gap` ns apart over a 1 ns/byte link. A
  // send that finds the transmitter busy serializes after the packet ahead
  // of it, so the last arrival is the end of the deadline chain plus
  // propagation.
  struct Input {
    int count;
    SimDuration gap;
    SimDuration propagation;
  };
  for (const Input& in : {Input{2, 0, 0}, Input{8, 150, 400}}) {
    Simulator sim;
    SinkNode a("a");
    SinkNode b("b");
    LinkConfig cfg;
    cfg.bandwidth_gbps = 8.0;
    cfg.propagation = in.propagation;
    Link link(&sim, cfg);
    link.Connect(&a, 0, &b, 0);
    Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
    const SimTime bytes = pkt.WireSize();
    SimTime busy_until = 0;
    for (int i = 0; i < in.count; ++i) {
      const SimTime at = static_cast<SimTime>(i) * in.gap;
      busy_until = std::max(at, busy_until) + bytes;
      sim.ScheduleAt(at, [&a, pkt] { a.Send(0, pkt); });
    }
    sim.RunAll();
    EXPECT_EQ(b.received.size(), static_cast<size_t>(in.count)) << "gap " << in.gap;
    EXPECT_EQ(sim.Now(), busy_until + in.propagation) << "gap " << in.gap;
  }
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

}  // namespace
}  // namespace netcache
