// Open-addressing hash table with robin-hood probing and backward-shift
// deletion — an alternative store substrate to HashDyn, trading pointer
// chasing for cache-friendly linear probing (the direction the in-memory-KV
// literature the paper cites has moved: MemC3's cuckoo tables, MICA's
// lossy/lossless indexes). micro_datastructures benchmarks both.
//
// Properties:
//   - power-of-two capacity, max load factor 7/8, amortized O(1) ops;
//   - robin hood: an inserting element displaces residents closer to their
//     home slot, keeping probe-length variance (and worst-case lookups) low;
//   - backward-shift deletion: no tombstones, lookups never degrade;
//   - 16-way group probing: a parallel control-byte array (1 byte per slot,
//     0 = empty, else 7 hash bits | 0x80) lets Locate scan 16 slots per SSE2
//     compare (simd::ScanGroup16). Linear probing without tombstones means a
//     key always lives in the contiguous occupied run starting at its home
//     slot, so the scan stops at the first empty byte; candidates past it are
//     masked off and tag false positives fall to the stored hash + key
//     compare. The slot layout, placement, and iteration order are untouched
//     — forcing the scalar level runs the original probe loop and both paths
//     visit matching slots in the same order.

#ifndef NETCACHE_KVSTORE_FLAT_TABLE_H_
#define NETCACHE_KVSTORE_FLAT_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"

namespace netcache {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatTable {
 public:
  FlatTable() { Rebuild(kMinCapacity); }

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  FlatTable(FlatTable&&) = default;
  FlatTable& operator=(FlatTable&&) = default;

  // Inserts or overwrites; returns true when the key was new.
  bool Upsert(const K& key, V value) {
    MaybeGrow();
    return UpsertNoGrow(Slot{true, 0, hash_(key), key, std::move(value)});
  }

  V* Find(const K& key) {
    size_t idx;
    return Locate(hash_(key), key, &idx) ? &slots_[idx].value : nullptr;
  }
  const V* Find(const K& key) const {
    size_t idx;
    return const_cast<FlatTable*>(this)->Locate(hash_(key), key, &idx)
               ? &slots_[idx].value
               : nullptr;
  }
  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Precomputed-hash lookups for callers that already hold hash_(key) — the
  // data plane carries it on the packet as KeyDigest::h1. `h` MUST equal
  // hash_(key); the slots store their hash, so a mismatched value simply
  // never matches.
  V* FindWithHash(size_t h, const K& key) {
    size_t idx;
    return Locate(h, key, &idx) ? &slots_[idx].value : nullptr;
  }
  const V* FindWithHash(size_t h, const K& key) const {
    size_t idx;
    return const_cast<FlatTable*>(this)->Locate(h, key, &idx)
               ? &slots_[idx].value
               : nullptr;
  }

  bool Erase(const K& key) {
    size_t idx;
    if (!Locate(hash_(key), key, &idx)) {
      return false;
    }
    // Backward shift: pull successors one slot closer to home until an
    // empty slot or an element already at home distance 0.
    size_t mask = slots_.size() - 1;
    size_t hole = idx;
    while (true) {
      size_t next = (hole + 1) & mask;
      if (!slots_[next].used || slots_[next].distance == 0) {
        slots_[hole] = Slot{};
        SetCtrl(hole, 0);
        break;
      }
      slots_[hole] = std::move(slots_[next]);
      --slots_[hole].distance;
      SetCtrl(hole, CtrlTag(slots_[hole].hash));
      hole = next;
    }
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void Clear() {
    slots_.assign(kMinCapacity, Slot{});
    ctrl_.assign(kMinCapacity + simd::kCtrlGroupWidth - 1, 0);
    size_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

  // Minimum load (percent of capacity) below which Locate keeps the scalar
  // walk even with SIMD available. The grouped scan touches one extra cache
  // line per probe (the control bytes); robin-hood chains at light load
  // average barely over one slot, so the scan only pays for itself once the
  // table fills up and chains lengthen. Equivalence tests pin 0 to force
  // group coverage at any fill; both paths visit matching slots in the same
  // order, so the dispatch choice is never observable in results.
  void set_group_probe_min_load(unsigned pct) { group_min_load_pct_ = pct; }

  // Longest probe sequence currently in the table (robin hood keeps this
  // small; tests assert it).
  size_t MaxProbeLength() const {
    size_t longest = 0;
    for (const Slot& s : slots_) {
      if (s.used) {
        longest = std::max(longest, static_cast<size_t>(s.distance));
      }
    }
    return longest;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    bool used = false;
    uint32_t distance = 0;  // probes from the home slot
    size_t hash = 0;
    K key{};
    V value{};
  };

  // Control-byte tag for a stored hash: 7 high bits (the slot index consumes
  // the low bits, so tag and index stay independent) with bit 7 set so a tag
  // is never 0 == empty.
  static uint8_t CtrlTag(size_t h) {
    return static_cast<uint8_t>((h >> 57) | 0x80);
  }

  // Writes one control byte; the leading kCtrlGroupWidth-1 bytes are mirrored
  // past the end of the array so a 16-byte group load never wraps.
  void SetCtrl(size_t idx, uint8_t value) {
    ctrl_[idx] = value;
    if (idx < simd::kCtrlGroupWidth - 1) {
      ctrl_[idx + slots_.size()] = value;
    }
  }

  bool UseGroupProbe() const {
    return ActiveSimdLevel() != SimdLevel::kScalar &&
           size_ * 100 >= slots_.size() * group_min_load_pct_;
  }

  bool Locate(size_t h, const K& key, size_t* out) {
    if (UseGroupProbe()) {
      return LocateGroups(h, key, out);
    }
    return LocateScalar(h, key, out);
  }

  bool LocateScalar(size_t h, const K& key, size_t* out) {
    size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    uint32_t distance = 0;
    while (true) {
      const Slot& s = slots_[idx];
      if (!s.used || s.distance < distance) {
        return false;  // would have displaced it by now
      }
      if (s.hash == h && s.key == key) {
        *out = idx;
        return true;
      }
      idx = (idx + 1) & mask;
      ++distance;
    }
  }

  // 16 slots per probe step. Without tombstones the key, if present, sits in
  // the contiguous occupied run from its home slot, so the first empty
  // control byte is a definitive miss; max load 7/8 guarantees one exists.
  // noinline: this body is dead weight in the (default) light-load regime;
  // keeping it out of callers' hot loops protects the scalar path's code
  // footprint, and the 16-wide scan amortizes the call when it does run.
  __attribute__((noinline)) bool LocateGroups(size_t h, const K& key, size_t* out) {
    size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    const uint8_t tag = CtrlTag(h);
    while (true) {
      simd::Group16 g = simd::ScanGroup16(ctrl_.data() + idx, tag);
      uint32_t match = g.match_mask;
      if (g.empty_mask != 0) {
        // Only candidates strictly before the first empty slot count.
        match &= (1u << std::countr_zero(g.empty_mask)) - 1u;
      }
      while (match != 0) {
        size_t slot = (idx + static_cast<size_t>(std::countr_zero(match))) & mask;
        const Slot& s = slots_[slot];
        if (s.hash == h && s.key == key) {
          *out = slot;
          return true;
        }
        match &= match - 1;
      }
      if (g.empty_mask != 0) {
        return false;
      }
      idx = (idx + simd::kCtrlGroupWidth) & mask;
    }
  }

  bool UpsertNoGrow(Slot incoming) {
    size_t mask = slots_.size() - 1;
    size_t idx = incoming.hash & mask;
    bool inserted_new = true;
    bool counted = false;
    while (true) {
      Slot& s = slots_[idx];
      if (!s.used) {
        s = std::move(incoming);
        SetCtrl(idx, CtrlTag(s.hash));
        if (!counted) {
          ++size_;
        }
        return inserted_new;
      }
      if (!counted && s.hash == incoming.hash && s.key == incoming.key) {
        s.value = std::move(incoming.value);
        return false;  // overwrite
      }
      if (s.distance < incoming.distance) {
        std::swap(s, incoming);  // robin hood: rich slot yields to the poor
        SetCtrl(idx, CtrlTag(s.hash));
        if (!counted) {
          ++size_;
          counted = true;
          // From here on we are re-homing a displaced resident, not the new
          // key: equality checks no longer apply.
        }
      }
      idx = (idx + 1) & mask;
      ++incoming.distance;
    }
  }

  void MaybeGrow() {
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rebuild(slots_.size() * 2);
    }
  }

  void Rebuild(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    ctrl_.assign(capacity + simd::kCtrlGroupWidth - 1, 0);
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) {
        s.distance = 0;
        UpsertNoGrow(std::move(s));
      }
    }
  }

  Hash hash_;
  std::vector<Slot> slots_;
  // One control byte per slot (0 = empty, else CtrlTag of the stored hash)
  // plus kCtrlGroupWidth-1 mirrored leading bytes so group loads never wrap.
  std::vector<uint8_t> ctrl_;
  size_t size_ = 0;
  // Default ~5/8: at the 7/8 growth ceiling chains are long enough for the
  // 16-way scan to win; right after a doubling (7/16 load) the scalar walk
  // is faster. See set_group_probe_min_load.
  unsigned group_min_load_pct_ = 62;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_FLAT_TABLE_H_
