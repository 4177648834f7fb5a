// Saturating per-key counter array — the "per-key counters for cached items"
// of Fig 7. One 16-bit slot per cache index; a cache hit increments the slot.
// The controller reads and clears them each statistics epoch.

#ifndef NETCACHE_SKETCH_COUNTER_ARRAY_H_
#define NETCACHE_SKETCH_COUNTER_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netcache {

class CounterArray {
 public:
  explicit CounterArray(size_t size);

  // Increments slot `index` (saturating) and returns the new value.
  uint32_t Increment(size_t index);

  uint32_t Get(size_t index) const;
  void Clear(size_t index);
  void Reset();

  size_t size() const { return slots_.size(); }
  size_t MemoryBits() const { return slots_.size() * 16; }

 private:
  std::vector<uint16_t> slots_;
};

}  // namespace netcache

#endif  // NETCACHE_SKETCH_COUNTER_ARRAY_H_
