// Per-simulator freelist of Packet objects.
//
// A Packet is ~190 bytes of inline state (headers + the 128-byte value
// buffer). Capturing one by value in a scheduled closure forces the event
// queue to heap-allocate per event; a pooled Packet* keeps the closure within
// InlineFunction's inline budget and recycles the buffers instead of churning
// the allocator. The pool is single-threaded: in a parallel sweep every
// trial has its own Simulator, and with it its own pool.
//
// Usage on a hot path:
//   Packet* copy = sim->packet_pool().Acquire(pkt);
//   sim->Schedule(delay, [this, copy] { ...; sim_->packet_pool().Release(copy); });
//
// Release is optional-but-recommended: un-released packets are still reclaimed
// when the pool is destroyed (the pool owns every chunk it ever allocated),
// they just can't be reused in the meantime.

#ifndef NETCACHE_NET_PACKET_POOL_H_
#define NETCACHE_NET_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "proto/packet.h"

namespace netcache {

class PacketPool {
 public:
  PacketPool() = default;

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a packet from the freelist (contents unspecified) or allocates a
  // fresh chunk when empty.
  Packet* Acquire() {
    ++acquires_;
    if (free_.empty()) {
      Grow();
    }
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }

  // Acquire + copy-assign in one step; the common call shape on the wire path.
  Packet* Acquire(const Packet& src) {
    Packet* p = Acquire();
    *p = src;
    return p;
  }

  void Release(Packet* p) { free_.push_back(p); }

  // Pre-sizes the pool so the first burst of traffic doesn't grow it.
  void Reserve(size_t packets) {
    while (chunks_.size() * kChunkPackets < packets) {
      Grow();
    }
  }

  uint64_t acquires() const { return acquires_; }
  size_t allocated() const { return chunks_.size() * kChunkPackets; }
  size_t free_count() const { return free_.size(); }

 private:
  // Packets are allocated in chunks to amortize allocator traffic and keep
  // recycled packets adjacent in memory.
  static constexpr size_t kChunkPackets = 64;

  void Grow() {
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
    Packet* base = chunks_.back().get();
    free_.reserve(free_.size() + kChunkPackets);
    for (size_t i = kChunkPackets; i > 0; --i) {
      free_.push_back(base + (i - 1));
    }
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
  uint64_t acquires_ = 0;
};

}  // namespace netcache

#endif  // NETCACHE_NET_PACKET_POOL_H_
