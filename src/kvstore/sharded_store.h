// Per-core sharded store. The paper's server agent shards keys across cores
// with Receive Side Scaling / DPDK Flow Director (§6); here each shard is an
// independent KvStore selected by key hash, and per-shard access counts let
// tests and benches observe intra-server imbalance (§1 notes skew "can be
// further amplified when storage servers use per-core sharding").
//
// Concurrency: shards are independently lockable — one Mutex per shard, the
// HashDyn-backed KvStore inside it guarded (annotated for -Wthread-safety,
// exercised by tests/thread_safety_test.cc under TSan). Operations on
// different shards never contend, mirroring per-core independence.

#ifndef NETCACHE_KVSTORE_SHARDED_STORE_H_
#define NETCACHE_KVSTORE_SHARDED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "kvstore/kv_store.h"
#include "proto/key.h"
#include "proto/value.h"

namespace netcache {

class ShardedStore {
 public:
  explicit ShardedStore(size_t num_shards, uint64_t seed = 0x52535348);

  size_t ShardOf(const Key& key) const;

  Result<Value> Get(const Key& key);
  void Put(const Key& key, const Value& value);
  Status Delete(const Key& key);

  size_t num_shards() const { return shards_.size(); }
  size_t size() const;

  // Single-threaded inspection (tests, benches); exempt from the analysis
  // because callers hold no concurrent writers by construction.
  const KvStore& shard(size_t i) const NC_NO_THREAD_SAFETY_ANALYSIS {
    return shards_[i]->store;
  }
  uint64_t shard_accesses(size_t i) const;
  void ResetAccessCounts();

 private:
  struct Shard {
    mutable Mutex mu;
    KvStore store NC_GUARDED_BY(mu);
    uint64_t accesses NC_GUARDED_BY(mu) = 0;
  };

  // Mutex-per-shard makes the whole store safe from any thread — the
  // -Wthread-safety annotations above carry the proof.
  uint64_t seed_;
  // unique_ptr because Mutex is neither movable nor copyable.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_SHARDED_STORE_H_
