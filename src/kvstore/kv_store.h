// In-memory key-value store used by storage servers: Key -> Value over the
// HashDyn table, with operation counters. Equivalent of the paper's simple
// TommyDS-based store (§6), which provided up to 10 MQPS per server.

#ifndef NETCACHE_KVSTORE_KV_STORE_H_
#define NETCACHE_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "kvstore/hash_table.h"
#include "proto/key.h"
#include "proto/value.h"

namespace netcache {

class KvStore {
 public:
  KvStore() = default;

  // Returns the value or kNotFound.
  Result<Value> Get(const Key& key) const;

  // Digest-aware read that assembles straight into *out instead of returning
  // a Result<Value> copy: `h1` must be the key's Hash() — a packet digest's
  // h1 qualifies (proto/key_digest.h). Books the same gets/hits counters as
  // Get, so the two are observably interchangeable; *out is untouched on a
  // miss. Returns true on hit.
  bool GetInto(const Key& key, uint64_t h1, Value* out) const {
    ++stats_.gets;
    const Value* v = table_.FindWithHash(static_cast<size_t>(h1), key);
    if (v == nullptr) {
      return false;
    }
    ++stats_.hits;
    *out = *v;
    return true;
  }

  // Warms the hash bucket `h1` selects ahead of a GetInto (the server's
  // burst-ingress prefetch stage). Counter-free.
  void Prefetch(uint64_t h1) const { table_.Prefetch(static_cast<size_t>(h1)); }

  // Same lookup without touching the gets/hits counters. For observers
  // (invariant checkers, test assertions) that must not perturb the
  // metrics a run exports.
  Result<Value> Peek(const Key& key) const;

  // Inserts or overwrites.
  void Put(const Key& key, const Value& value);

  // Returns kNotFound if absent.
  Status Delete(const Key& key);

  bool Contains(const Key& key) const { return table_.Contains(key); }
  size_t size() const { return table_.size(); }

  // Visits every item: fn(const Key&, const Value&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    table_.ForEach([&fn](const Key& k, const Value& v) { fn(k, v); });
  }

  struct Stats {
    uint64_t gets = 0;
    uint64_t hits = 0;
    uint64_t puts = 0;
    uint64_t deletes = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Registers the operation counters and item count under `prefix`
  // (e.g. "server.3.kv.gets").
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                       MetricsRegistry::Labels labels = {}) const;

 private:
  // Not synchronized: StorageServer holds its KvStore under store_mu_ (the
  // control channel runs concurrently with the data path).
  HashDyn<Key, Value, KeyHasher> table_;
  mutable Stats stats_;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_KV_STORE_H_
