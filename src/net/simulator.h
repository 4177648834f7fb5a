// Discrete-event simulation engine: one serial dispatcher over one event
// queue.
//
// Single-threaded and deterministic: events fire in (time, key) order, where
// the key is a per-simulator insertion sequence, so two events scheduled for
// the same instant run in the order they were scheduled. All times are
// nanoseconds of simulated time. A Simulator instance is single-threaded;
// parallel sweeps run one Simulator per trial on worker threads
// (core/sweep.h).
//
// Hot-path design (the per-event cost bounds every packet-level experiment):
//   - events hold an InlineFunction, so closures up to kInlineFunctionBytes
//     capture bytes never touch the heap (std::function allocated per event);
//   - the queue is a calendar queue (EventQueue below): a wheel of
//     one-nanosecond slots over the next 2^15 ns, found through an
//     occupancy bitmap, plus a small binary heap of 24-byte index entries
//     for events beyond that window. Events sit in a reservable slab and are
//     moved once in and once out, so a steady-state run performs zero queue
//     allocations and no per-level 96-byte moves;
//   - a PacketPool recycles the Packet buffers that in-flight closures
//     reference (see net/packet_pool.h);
//   - packet deliveries are typed events (DeliveryRec in a union with the
//     closure), which lets the dispatcher coalesce same-instant deliveries
//     to one node into a burst (VPP-style vector processing) handed to
//     Node::HandleBurst.
//
// Burst formation and determinism: a burst is formed ONLY from delivery
// events that are adjacent in (time, key) order — same timestamp, same
// destination node, with no other event between them. Newly scheduled events
// always receive a larger key than everything pending, so in the sequential
// schedule those deliveries would have run back-to-back with nothing
// observable in between; processing them as one burst (with each packet's
// side effects issued at its own in-order turn, as Node::HandleBurst's
// default per-packet loop and StorageServer::HandleBurst do) is therefore
// output-equivalent.

#ifndef NETCACHE_NET_SIMULATOR_H_
#define NETCACHE_NET_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/packet_pool.h"

namespace netcache {

class Link;

// One link direction's transmit group: every transmission ACCEPTED by that
// direction within one simulated instant. The transmitter serializes the
// group back-to-back and the far NIC raises one interrupt for the lot —
// the whole group is delivered at the LAST member's serialization end plus
// propagation (interrupt-coalescing analogue; see Link::Transmit). With
// egress batching on, a multi-packet group travels as ONE delivery record
// carrying these entries; off, it becomes adjacent per-packet records at the
// same instant — the timing model is shared, so the two modes are
// byte-identical end to end (determinism_test holds them together).
// Buffers are pooled per simulator (see Simulator::AcquireEgressBurst).
struct EgressBurst {
  SimTime open_time = 0;     // the instant whose accepted transmits joined
  SimTime last_tx_done = 0;  // latest member's serialization end (ns grid)
  std::vector<std::pair<Packet*, uint32_t>> entries;  // (payload, wire bytes)
};

class Simulator {
 public:
  // Closure type for scheduled events. Captures larger than
  // kInlineFunctionBytes still work (single heap allocation); keep hot-path
  // captures inside the budget by pooling bulky payloads (packet_pool()).
  using EventFn = InlineFunction<void()>;

  // The event queue's wheel covers the 2^kEventWheelBits ns after the last
  // dispatched instant; anything scheduled further ahead waits in a small
  // far heap (see EventQueue). 2^15 ns = 32.8 us covers link hops, switch
  // emits and the 5-20 us server service completions that make up almost
  // every schedule-ahead distance in the rack and fabric workloads; only
  // reply timers and control-plane ticks go far. Public for tests.
  static constexpr int kEventWheelBits = 15;

  // A packet delivery as plain data instead of a closure: the dispatcher
  // needs to see through delivery events to coalesce them, and a struct it
  // can inspect is also cheaper than a captured lambda. `link`/`from_end`/
  // `bytes` let the dispatcher book the link's delivery accounting that the
  // old closure performed inline.
  struct DeliveryRec {
    Node* node = nullptr;
    uint32_t port = 0;
    Packet* pkt = nullptr;  // owned by the packet pool; released after dispatch
    Link* link = nullptr;
    int from_end = 0;
    uint32_t bytes = 0;  // wire bytes; for a burst record, the group total
    // Non-null: this record carries a whole multi-packet transmit group
    // (egress batching); `pkt` is null and the payloads ride in
    // burst->entries. The dispatcher weighs the record as entries.size()
    // events so events_processed and queue-peak metrics stay identical to
    // the per-packet record format.
    EgressBurst* burst = nullptr;
  };

  // `reserve_events` pre-sizes the event queue; steady-state runs should never
  // grow it. The default comfortably covers a busy single-rack simulation.
  explicit Simulator(size_t reserve_events = kDefaultReserveEvents);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` ns from now.
  void Schedule(SimDuration delay, EventFn fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Schedules `fn` at absolute time `at`. Scheduling into the past would
  // silently misorder the causal chain, so `at < Now()` is a fatal error.
  void ScheduleAt(SimTime at, EventFn fn);

  // Schedules a packet delivery at absolute time `at` (Link::Transmit's
  // delivery leg).
  void ScheduleDeliveryAt(SimTime at, const DeliveryRec& rec);

  // Read-only compatibility constants for perfbench/, which still reports
  // the dispatcher kind: there is one serial dispatcher and no worker
  // threads.
  static constexpr bool partitioned() { return false; }
  static constexpr size_t sim_threads() { return 0; }

  // Toggles burst coalescing of same-instant deliveries (on by default).
  // Off, every delivery dispatches through HandlePacket one event at a time —
  // the reference schedule the determinism test compares bursts against.
  void set_burst_coalescing(bool on) { coalesce_ = on; }
  bool burst_coalescing() const { return coalesce_; }

  // Toggles egress burst records (on by default): whether Link::FlushGroup
  // ships a multi-packet transmit group as one burst delivery record or as
  // adjacent per-packet records. Either way the group's delivery time and
  // every observable counter are identical — the flag only changes the
  // record format (--no-egress-batch is the equivalence leg).
  void set_egress_batching(bool on) { egress_batch_ = on; }
  bool egress_batching() const { return egress_batch_; }

  // Transmit-group buffer pool: a flushed group's buffer comes back when its
  // delivery is consumed.
  EgressBurst* AcquireEgressBurst() {
    if (burst_free_.empty()) {
      burst_arena_.emplace_back();
      return &burst_arena_.back();
    }
    EgressBurst* g = burst_free_.back();
    burst_free_.pop_back();
    g->entries.clear();
    return g;
  }
  void ReleaseEgressBurst(EgressBurst* g) { burst_free_.push_back(g); }

  // Grows the event queue to hold at least `capacity` pending events
  // without reallocating mid-run.
  void ReserveEvents(size_t capacity) { queue_.Reserve(capacity); }

  // Runs events until the queue is empty or simulated time would exceed
  // `until`. Events at exactly `until` are executed.
  void RunUntil(SimTime until);

  // Runs until the event queue drains completely.
  void RunAll();

  size_t PendingEvents() const { return queue_.size(); }
  size_t EventCapacity() const { return queue_.capacity(); }

  // Total events executed since construction. Deterministic for a fixed seed,
  // so benches report it as their work measure (events/sec). Every delivery
  // in a coalesced burst still counts as one event here.
  uint64_t events_processed() const { return events_; }

  // Burst diagnostics. Deliberately NOT wired into any metrics registry:
  // coalescing must be invisible in exported JSON (the burst-vs-single
  // determinism leg diffs those files byte-for-byte).
  uint64_t bursts_dispatched() const { return bursts_; }
  uint64_t burst_packets() const { return burst_pkts_; }

  // Event-queue pressure, exported as a sim.* metric by Rack. The peak is
  // sampled when the dispatcher advances to a new timestamp — NOT per push —
  // so it is identical with and without burst coalescing (the determinism
  // legs diff metrics JSON byte-for-byte).
  uint64_t event_queue_peak() const { return peak_; }

  // Freelist for Packet payloads referenced by in-flight closures.
  PacketPool& packet_pool() { return pool_; }

 private:
  static constexpr size_t kDefaultReserveEvents = 4096;
  static constexpr SimTime kNeverTime = ~SimTime{0};

  struct Event {
    SimTime time;
    uint64_t key;  // insertion sequence: orders events of one instant
    bool is_delivery;
    // EventQueue's intrusive slot list: the slab index of the next event in
    // the same wheel slot, and — meaningful only in a slot's head — of the
    // slot's tail. Both sit in padding, so they cost no space. Moves carry
    // them: a growing slab relocates pending events.
    uint32_t link = 0;
    uint32_t tail = 0;
    union {
      EventFn fn;       // active when !is_delivery
      DeliveryRec del;  // active when is_delivery
    };

    Event(SimTime t, uint64_t k, EventFn f) : time{t}, key(k), is_delivery(false) {
      ::new (&fn) EventFn(std::move(f));
    }
    Event(SimTime t, uint64_t k, const DeliveryRec& d)
        : time{t}, key(k), is_delivery(true), del(d) {}

    Event(Event&& other) noexcept
        : time{other.time},
          key(other.key),
          is_delivery(other.is_delivery),
          link(other.link),
          tail(other.tail) {
      if (is_delivery) {
        ::new (&del) DeliveryRec(other.del);
      } else {
        ::new (&fn) EventFn(std::move(other.fn));
      }
    }
    Event& operator=(Event&& other) noexcept {
      if (this != &other) {
        DestroyPayload();
        time = other.time;
        key = other.key;
        is_delivery = other.is_delivery;
        link = other.link;
        tail = other.tail;
        if (is_delivery) {
          ::new (&del) DeliveryRec(other.del);
        } else {
          ::new (&fn) EventFn(std::move(other.fn));
        }
      }
      return *this;
    }
    ~Event() { DestroyPayload(); }

    void DestroyPayload() {
      if (!is_delivery) {
        fn.~EventFn();
      }
    }

    // Queue order: earliest time first, insertion sequence (FIFO) within one
    // instant.
    bool Before(const Event& other) const {
      if (time != other.time) {
        return time < other.time;
      }
      return key < other.key;
    }
  };

  // The pending events, popped in (time, key) order: a calendar
  // queue. Events live in a slab and are moved once in (Push) and once out
  // (Pop); the ordering structures hold only slab indices.
  //   - Wheel: kSlots one-nanosecond slots covering [base, base + kSlots),
  //     where base is the last popped time. A slot is a FIFO (intrusive list
  //     through Event::link, its tail kept in the head's Event::tail, so the
  //     wheel itself is one 4-byte head per slot) found through a two-level
  //     occupancy bitmap.
  //     Every event in a slot has the same timestamp (two times in the
  //     window that share a slot are equal), so a slot's list only has to be
  //     in key order. Keys come from a monotone counter, so a push always
  //     appends at the tail (checked fatally in WheelInsert).
  //   - Far heap: a binary heap of 24-byte {time, key, slot} entries for
  //     events at or beyond base + kSlots when pushed (reply timers,
  //     controller and poller ticks). A far event is never migrated into the
  //     wheel; it waits in the heap even after the window reaches it.
  //   - Top: the earliest event overall is the smaller, by (time, key), of
  //     the first occupied wheel slot's head (circular bitmap scan from
  //     base) and the far heap's top. It is kept current by every Push and
  //     Pop, so peeking is a load.
  // The pop sequence therefore depends only on the set of (time, key) pairs
  // pushed, exactly as a binary heap's would.
  class EventQueue {
   public:
    static constexpr size_t kSlots = size_t{1} << kEventWheelBits;

    // Slot heads are left uninitialized: they are read only where an
    // occupancy bit is set, so untouched slots cost no resident memory.
    EventQueue()
        : heads_(new uint32_t[kSlots]), bits_(new uint64_t[kWords + kSummaryWords]()) {}

    bool empty() const { return size_ == 0; }
    // Pending count in per-packet record weight: a burst record counts as
    // its whole transmit group (see RecWeight in simulator.cc).
    size_t size() const { return size_ + extra_; }
    // Earliest pending time, kNeverTime when empty.
    SimTime next_time() const { return size_ == 0 ? kNeverTime : slab_[top_].time; }
    // Earliest pending event; valid until the next Push or Pop.
    const Event& top() const { return slab_[top_]; }

    void Push(Event ev);
    Event Pop();  // requires !empty()

    void Reserve(size_t capacity);
    size_t capacity() const { return slab_.capacity(); }

   private:
    static constexpr size_t kMask = kSlots - 1;
    static constexpr size_t kWords = kSlots / 64;         // slot bitmap words
    static constexpr size_t kSummaryWords = kWords / 64;  // word bitmap words
    static constexpr uint32_t kNone = ~uint32_t{0};

    struct FarEntry {
      SimTime time;
      uint64_t key;
      uint32_t slot;  // slab index
    };
    static bool FarBefore(const FarEntry& a, const FarEntry& b) {
      return a.time != b.time ? a.time < b.time : a.key < b.key;
    }

    uint32_t Store(Event ev);
    void WheelInsert(uint32_t idx);
    void FarPush(const FarEntry& e);
    void FarPop();
    size_t FindSlot(size_t from) const;
    size_t FindWord(size_t from) const;
    void FindTop();

    std::vector<Event> slab_;
    std::vector<uint32_t> free_;  // recycled slab indices, LIFO
    std::vector<FarEntry> far_;   // binary min-heap
    std::unique_ptr<uint32_t[]> heads_;  // per slot, valid while its bit is set
    std::unique_ptr<uint64_t[]> bits_;  // kWords slot-occupancy words, then
                                        // kSummaryWords nonzero-word words
    SimTime base_ = 0;
    uint32_t top_ = kNone;   // slab index of the earliest event
    bool top_far_ = false;   // whether it sits in the far heap
    size_t size_ = 0;        // records pending
    size_t wheel_size_ = 0;  // records pending in the wheel
    uint64_t extra_ = 0;     // burst records' weight beyond one each
  };

  // Dispatches every event at or before `until`, as one profiler execute span.
  void Drain(SimTime until);
  void RunDelivery(const DeliveryRec& first);
  void SamplePeak() {
    size_t sz = queue_.size();
    if (sz > peak_) {
      peak_ = sz;
    }
  }

  bool coalesce_ = true;      // set before running
  bool egress_batch_ = true;  // set before running
  SimTime now_ = 0;
  uint64_t next_key_ = 0;
  uint64_t events_ = 0;
  uint64_t peak_ = 0;  // max queue size, sampled at timestamp advances
  uint64_t bursts_ = 0;
  uint64_t burst_pkts_ = 0;
  EventQueue queue_;
  // Scratch buffers for RunDelivery, members so steady state allocates
  // nothing per burst.
  std::vector<DeliveryRec> batch_;
  std::vector<BurstArrival> arrivals_;
  PacketPool pool_;
  // Transmit-group buffer pool (see AcquireEgressBurst). The arena owns
  // storage — pointer-stable, freed wholesale at destruction, so a group
  // still sitting in the queue at teardown leaks nothing. The freelist holds
  // recycled buffers.
  std::deque<EgressBurst> burst_arena_;
  std::vector<EgressBurst*> burst_free_;
};

}  // namespace netcache

#endif  // NETCACHE_NET_SIMULATOR_H_
