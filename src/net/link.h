// Full-duplex point-to-point link with per-direction serialization delay,
// propagation delay, and a drop-tail byte queue.
//
// Model: each direction owns a transmitter that serializes one packet at a
// time at `bandwidth_gbps`. Packets arriving while the transmitter is busy
// wait in a FIFO bounded by `queue_bytes`; overflow is dropped (drop-tail),
// which is how the paper's emulated servers shed excess load (§7.1).
//
// Transmit deadlines accumulate in integer picoseconds, not floating point:
// a busy transmitter chains each packet's deadline off the previous one, and
// repeated FP adds drift — after enough back-to-back packets a computed
// deadline could land a ULP before Now() and trip the simulator's
// no-scheduling-into-the-past check. Picosecond integers make the chain
// exact (40 Gb/s is exactly 200 ps/byte) and deadlines are ceiled to the
// simulator's ns grid, so they never precede the instant that produced them.

#ifndef NETCACHE_NET_LINK_H_
#define NETCACHE_NET_LINK_H_

#include <cstdint>

#include "common/rng.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct LinkConfig {
  double bandwidth_gbps = 40.0;           // line rate per direction
  SimDuration propagation = 300;          // ns; ~60 m of fiber
  size_t queue_bytes = 512 * 1024;        // drop-tail buffer per direction
  // Random per-packet corruption/loss probability (failure injection for
  // tests; real links lose packets too, which is why the server agent's
  // cache-update channel retries, §6).
  double loss_rate = 0.0;
  uint64_t loss_seed = 0x10553;
};

class Link {
 public:
  Link(Simulator* sim, const LinkConfig& config);

  // Attaches end 0 to (a, a_port) and end 1 to (b, b_port).
  void Connect(Node* a, uint32_t a_port, Node* b, uint32_t b_port);

  // Transmits from end `from_end` (0 or 1) toward the other end.
  void Transmit(int from_end, const Packet& pkt);

  // Books `count` completed deliveries totalling `bytes` on direction
  // `from_end`. Called by the simulator's delivery dispatcher (the accounting
  // the delivery closure used to do inline before deliveries became typed
  // events); a burst record books its whole transmit group in one call —
  // same totals at the same instant as its per-packet twin records.
  void AccountDelivery(int from_end, uint32_t bytes, uint32_t count = 1) {
    dirs_[from_end].stats.in_flight -= count;
    dirs_[from_end].stats.delivered += count;
    dirs_[from_end].stats.bytes += bytes;
  }

  // Per-direction counters: offered/dropped/lost/in_flight are bumped by
  // Transmit, delivered/bytes (and the in_flight decrement) by
  // AccountDelivery.
  struct DirectionStats {
    uint64_t offered = 0;    // every Transmit attempt
    uint64_t delivered = 0;
    uint64_t dropped = 0;   // queue overflow
    uint64_t lost = 0;      // random loss injection
    uint64_t in_flight = 0;  // accepted, not yet handed to the far node
    uint64_t bytes = 0;
  };
  // Conservation invariant, checked by the packet-conservation checker at
  // any instant between events: offered == delivered + dropped + lost +
  // in_flight.
  const DirectionStats& stats(int from_end) const { return dirs_[from_end].stats; }

  // Test-only mutable stats, used by the seeded-corruption self-test to
  // break the conservation equation and prove the checker fires.
  DirectionStats& TestOnlyStats(int from_end) { return dirs_[from_end].stats; }

  const LinkConfig& config() const { return config_; }

 private:
  struct Endpoint {
    Node* node = nullptr;
    uint32_t port = 0;
  };
  struct Direction {
    uint64_t busy_until_ps = 0;  // transmitter deadline, integer picoseconds
    size_t queued_bytes = 0;
    // The transmit group currently accepting members: every transmission
    // accepted at the group's open instant joins it; the first member's
    // queue-free closure (strictly after the open instant on the ns grid)
    // closes and flushes it.
    EgressBurst* group = nullptr;
    DirectionStats stats;
  };

  // Ships a closed transmit group: one burst delivery record when the
  // simulator allows them, else adjacent per-packet records — both at the
  // group's shared delivery instant (last member's serialization end +
  // propagation). Runs from the first member's queue-free closure.
  void FlushGroup(EgressBurst* g, int from_end);

  Simulator* sim_;
  LinkConfig config_;
  uint64_t ps_per_byte_;
  // One loss stream per direction (the seeded draw order of each direction
  // is part of the model).
  Rng loss_rng_[2];
  Endpoint ends_[2];  // wiring-time, immutable after Connect
  Direction dirs_[2];  // dirs_[i] carries traffic from end i to end 1-i
};

}  // namespace netcache

#endif  // NETCACHE_NET_LINK_H_
