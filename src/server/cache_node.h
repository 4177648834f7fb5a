// Server-based caching node: the baseline NetCache argues against (§2,
// Fig 1; SwitchKV [28] is the canonical example).
//
// A CacheNode is an ordinary server-class box placed in front of the
// storage layer: clients address their queries to it; cache hits are
// answered locally, misses are forwarded to the key's owning storage server
// and the reply is relayed back. Because it is a server, its service rate
// T' is comparable to a storage node's T — which is precisely why §2 shows
// a server-based caching layer needs M ≈ N·(T/T') ≈ N nodes to keep up with
// an in-memory storage layer, while a switch (T' ≫ T) needs one.
//
// The node keeps the hottest `cache_capacity` items with LRU replacement
// and admits every miss (a classic look-aside cache; the §4.3-style
// coherence machinery is unnecessary here because the cache node sits on
// the query path for both reads and writes).

#ifndef NETCACHE_SERVER_CACHE_NODE_H_
#define NETCACHE_SERVER_CACHE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>

#include "common/time_units.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct CacheNodeConfig {
  IpAddress ip = 0;
  double service_rate_qps = 10e6;  // server-class: T' ~= T
  size_t queue_capacity = 512;
  size_t cache_capacity = 10'000;
};

struct CacheNodeStats {
  uint64_t received = 0;
  uint64_t dropped = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writes = 0;
  uint64_t relayed = 0;  // miss replies forwarded back to clients
};

class CacheNode : public Node {
 public:
  // `owner_of` maps keys to their storage server (hash partitioning).
  CacheNode(Simulator* sim, std::string name, const CacheNodeConfig& config,
            std::function<IpAddress(const Key&)> owner_of);

  void HandlePacket(const Packet& pkt, uint32_t in_port) override;

  bool Contains(const Key& key) const { return index_.count(key) != 0; }
  size_t CacheSize() const { return index_.size(); }
  const CacheNodeStats& stats() const { return stats_; }
  const CacheNodeConfig& config() const { return config_; }

 private:
  struct Entry {
    Value value;
    std::list<Key>::iterator lru_pos;
  };

  SimDuration ServiceTime() const;
  void EnqueueOrDrop(const Packet& pkt);
  void StartNextIfIdle();
  // The in-service packet is pool-owned and mutable: hits rewrite it into
  // the reply in place, misses/writes into the forwarded copy (see the
  // MakeReplyShell contract note in proto/packet.h).
  void Process(Packet& pkt);

  void CacheInsert(const Key& key, const Value& value);
  void Touch(const Key& key);

  Simulator* sim_;
  CacheNodeConfig config_;
  std::function<IpAddress(const Key&)> owner_of_;

  std::deque<Packet> queue_;
  bool busy_ = false;

  std::list<Key> lru_;  // front = most recent
  std::unordered_map<Key, Entry, KeyHasher> index_;
  // Miss queries we forwarded, keyed by sequence number, so the storage
  // server's reply can be relayed (and admitted into the cache).
  std::unordered_map<uint32_t, IpAddress> pending_;

  CacheNodeStats stats_;
};

}  // namespace netcache

#endif  // NETCACHE_SERVER_CACHE_NODE_H_
