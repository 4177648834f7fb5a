#include "net/simulator.h"

#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "net/link.h"

namespace netcache {

namespace {

// A delivery record's event weight: a burst record stands for its whole
// transmit group, so it counts as entries.size() events everywhere the
// per-packet record format would have counted N (events_processed, pending
// counts, queue peaks, link delivery accounting). Keeping the weights equal
// is what makes the egress-batch legs byte-identical in exported metrics.
inline uint64_t RecWeight(const Simulator::DeliveryRec& r) {
  return r.burst != nullptr ? r.burst->entries.size() : 1;
}

}  // namespace

Simulator::Simulator(size_t reserve_events) { queue_.Reserve(reserve_events); }

void Simulator::ScheduleAt(SimTime at, EventFn fn) {
  NC_CHECK(at >= now_) << "scheduling into the past: event at t=" << at
                       << " ns but Now() is t=" << now_
                       << " ns; events must never be scheduled before the "
                          "current simulated time (causality / determinism)";
  queue_.Push(Event{at, next_key_++, std::move(fn)});
}

void Simulator::ScheduleDeliveryAt(SimTime at, const DeliveryRec& rec) {
  NC_CHECK(at >= now_) << "scheduling into the past: delivery at t=" << at
                       << " ns but Now() is t=" << now_ << " ns";
  queue_.Push(Event{at, next_key_++, rec});
}

void Simulator::RunUntil(SimTime until) {
  Drain(until);
  if (now_ < until) {
    now_ = until;
  }
}

void Simulator::RunAll() { Drain(kNeverTime); }

void Simulator::Drain(SimTime until) {
  ProfScope prof(ProfCat::kExecute);
  const uint64_t before = events_;
  while (!queue_.empty() && queue_.top().time <= until) {
    if (queue_.top().time != now_) {
      SamplePeak();
    }
    // Move the event out before running so the handler may schedule freely.
    Event ev = queue_.Pop();
    now_ = ev.time;
    ++events_;
    if (ev.is_delivery) {
      RunDelivery(ev.del);
    } else {
      ev.fn();
    }
  }
  prof.set_arg(events_ - before);
}

void Simulator::RunDelivery(const DeliveryRec& first) {
  batch_.clear();
  batch_.push_back(first);
  // The pop site counted this record as one event; a burst record stands for
  // its whole transmit group, so top up to the per-packet weight.
  events_ += RecWeight(first) - 1;
  if (coalesce_) {
    // Extend the burst only while the next event is a delivery to the same
    // node at the same instant. Anything else — a closure event, a later
    // timestamp, another destination — ends the batch, which is what makes
    // burst processing output-equivalent to the sequential schedule (see the
    // header comment).
    while (!queue_.empty()) {
      const Event& front = queue_.top();
      if (!front.is_delivery || front.time != now_ || front.del.node != first.node) {
        break;
      }
      Event next = queue_.Pop();
      events_ += RecWeight(next.del);  // each coalesced delivery still counts
      batch_.push_back(next.del);
    }
  }
  // Book the link-side delivery accounting for the whole batch up front.
  // Safe for the batch > 1 case: no other event runs between these
  // deliveries in the sequential schedule either, so nothing can observe
  // the intermediate stat states this reorders across. A burst record books
  // its whole group in one call (same totals, same instant).
  for (const DeliveryRec& r : batch_) {
    if (r.link != nullptr) {
      r.link->AccountDelivery(r.from_end, r.bytes, static_cast<uint32_t>(RecWeight(r)));
    }
  }
  // Expand records into arrivals in record order — a burst record's entries
  // sit exactly where its per-packet twin records would have — and retire
  // consumed group buffers into the freelist.
  arrivals_.clear();
  for (const DeliveryRec& r : batch_) {
    if (r.burst != nullptr) {
      for (const auto& [pkt, bytes] : r.burst->entries) {
        arrivals_.push_back(BurstArrival{pkt, r.port});
      }
      burst_free_.push_back(r.burst);
    } else {
      arrivals_.push_back(BurstArrival{r.pkt, r.port});
    }
  }
  if (arrivals_.size() == 1) {
    const BurstArrival& a = arrivals_[0];
    first.node->HandlePacket(*a.pkt, a.port);
    pool_.Release(a.pkt);
    return;
  }
  if (!coalesce_) {
    // Reference schedule (--no-burst): dispatch per packet, in order. A
    // burst record reaching here still unrolls one HandlePacket per entry —
    // exactly the schedule its per-packet twin records would have produced.
    for (const BurstArrival& a : arrivals_) {
      first.node->HandlePacket(*a.pkt, a.port);
      pool_.Release(a.pkt);
    }
    return;
  }
  ++bursts_;
  burst_pkts_ += arrivals_.size();
  first.node->HandleBurst(arrivals_.data(), arrivals_.size());
  // A handler may steal a packet (rewrite and re-schedule it) by nulling the
  // pointer; everything still here goes back to the pool.
  for (const BurstArrival& a : arrivals_) {
    if (a.pkt != nullptr) {
      pool_.Release(a.pkt);
    }
  }
}

void Simulator::EventQueue::Reserve(size_t capacity) {
  slab_.reserve(capacity);
  free_.reserve(capacity);
  far_.reserve(capacity);
}

uint32_t Simulator::EventQueue::Store(Event ev) {
  if (free_.empty()) {
    slab_.push_back(std::move(ev));
    return static_cast<uint32_t>(slab_.size() - 1);
  }
  uint32_t idx = free_.back();
  free_.pop_back();
  slab_[idx] = std::move(ev);
  return idx;
}

void Simulator::EventQueue::Push(Event ev) {
  if (ev.is_delivery && ev.del.burst != nullptr) {
    extra_ += ev.del.burst->entries.size() - 1;
  }
  const SimTime t = ev.time;
  const uint32_t idx = Store(std::move(ev));
  // Anything outside [base, base + kSlots) goes to the far heap. An event
  // below base cannot come from a causal schedule; the heap still orders it.
  const bool in_wheel = t >= base_ && t - base_ < kSlots;
  if (in_wheel) {
    WheelInsert(idx);
  } else {
    FarPush(FarEntry{t, slab_[idx].key, idx});
  }
  if (size_++ == 0 || slab_[idx].Before(slab_[top_])) {
    top_ = idx;
    top_far_ = !in_wheel;
  }
}

void Simulator::EventQueue::WheelInsert(uint32_t idx) {
  ++wheel_size_;
  const size_t s = slab_[idx].time & kMask;
  const size_t w = s >> 6;
  const uint64_t bit = uint64_t{1} << (s & 63);
  if ((bits_[w] & bit) == 0) {
    bits_[w] |= bit;
    bits_[kWords + (w >> 6)] |= uint64_t{1} << (w & 63);
    heads_[s] = idx;
    slab_[idx].tail = idx;
    return;
  }
  // Keys are issued in increasing order, so a new event always sorts after
  // everything pending in its slot.
  Event& head = slab_[heads_[s]];
  NC_CHECK(slab_[head.tail].key < slab_[idx].key)
      << "event key " << slab_[idx].key << " pushed behind key " << slab_[head.tail].key;
  slab_[head.tail].link = idx;
  head.tail = idx;
}

Simulator::Event Simulator::EventQueue::Pop() {
  const uint32_t idx = top_;
  Event& e = slab_[idx];
  if (top_far_) {
    FarPop();
  } else {
    // The top is its slot's head: a slot is kept in key order.
    --wheel_size_;
    const size_t s = e.time & kMask;
    if (e.tail == idx) {
      const size_t w = s >> 6;
      bits_[w] &= ~(uint64_t{1} << (s & 63));
      if (bits_[w] == 0) {
        bits_[kWords + (w >> 6)] &= ~(uint64_t{1} << (w & 63));
      }
    } else {
      heads_[s] = e.link;
      slab_[e.link].tail = e.tail;
    }
  }
  if (e.time > base_) {
    base_ = e.time;
  }
  Event out = std::move(e);
  free_.push_back(idx);
  if (out.is_delivery && out.del.burst != nullptr) {
    extra_ -= out.del.burst->entries.size() - 1;
  }
  if (--size_ != 0) {
    FindTop();
  }
  return out;
}

void Simulator::EventQueue::FindTop() {
  uint32_t best = kNone;
  bool far = false;
  if (wheel_size_ != 0) {
    // Every wheel event lies in [base, base + kSlots), so the first occupied
    // slot at or circularly after base's holds the earliest of them.
    best = heads_[FindSlot(base_ & kMask)];
  }
  if (!far_.empty() &&
      (best == kNone ||
       FarBefore(far_[0], FarEntry{slab_[best].time, slab_[best].key, best}))) {
    best = far_[0].slot;
    far = true;
  }
  top_ = best;
  top_far_ = far;
}

size_t Simulator::EventQueue::FindSlot(size_t from) const {
  const size_t w = from >> 6;
  const uint64_t m = bits_[w] & (~uint64_t{0} << (from & 63));
  if (m != 0) {
    return (w << 6) | static_cast<size_t>(__builtin_ctzll(m));
  }
  size_t word = FindWord(w + 1);
  if (word == kWords) {
    word = FindWord(0);  // wrap around; the caller guarantees a set bit
  }
  return (word << 6) | static_cast<size_t>(__builtin_ctzll(bits_[word]));
}

size_t Simulator::EventQueue::FindWord(size_t from) const {
  if (from >= kWords) {
    return kWords;
  }
  const uint64_t* summary = bits_.get() + kWords;
  size_t sw = from >> 6;
  uint64_t m = summary[sw] & (~uint64_t{0} << (from & 63));
  while (m == 0) {
    if (++sw == kSummaryWords) {
      return kWords;
    }
    m = summary[sw];
  }
  return (sw << 6) | static_cast<size_t>(__builtin_ctzll(m));
}

void Simulator::EventQueue::FarPush(const FarEntry& e) {
  // Hole-style sift-up: one 24-byte move per level.
  far_.push_back(e);
  size_t hole = far_.size() - 1;
  while (hole > 0 && FarBefore(e, far_[(hole - 1) / 2])) {
    far_[hole] = far_[(hole - 1) / 2];
    hole = (hole - 1) / 2;
  }
  far_[hole] = e;
}

void Simulator::EventQueue::FarPop() {
  const FarEntry last = far_.back();
  far_.pop_back();
  const size_t n = far_.size();
  if (n == 0) {
    return;
  }
  size_t hole = 0;
  size_t left = 1;
  while (left < n) {
    size_t child = (left + 1 < n && FarBefore(far_[left + 1], far_[left])) ? left + 1 : left;
    if (!FarBefore(far_[child], last)) {
      break;
    }
    far_[hole] = far_[child];
    hole = child;
    left = 2 * hole + 1;
  }
  far_[hole] = last;
}

}  // namespace netcache
