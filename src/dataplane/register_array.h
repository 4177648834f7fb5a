// Register arrays: the stateful on-chip memory of a programmable switch
// ASIC (§4.4.1). Each array lives in one pipeline stage and supports
// read / write / simple arithmetic on a slot per packet, at line rate.
//
// RegisterArray<T> models one such array with bounds checking and access
// counting (used by tests and the resource-accounting report). T is the
// per-slot type; the prototype's value arrays use 16-byte slots
// (std::array<uint8_t, 16>), counters use uint16_t, status bits use uint8_t.

#ifndef NETCACHE_DATAPLANE_REGISTER_ARRAY_H_
#define NETCACHE_DATAPLANE_REGISTER_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace netcache {

template <typename T>
class RegisterArray {
 public:
  explicit RegisterArray(size_t size, T initial = T{}) : slots_(size, initial) {}

  const T& Read(size_t index) const {
    NC_CHECK(index < slots_.size());
    ++reads_;
    return slots_[index];
  }

  void Write(size_t index, const T& value) {
    NC_CHECK(index < slots_.size());
    ++writes_;
    slots_[index] = value;
  }

  // Read-modify-write in one stage pass, as ASIC register ALUs allow.
  template <typename Fn>
  T Apply(size_t index, Fn&& fn) {
    NC_CHECK(index < slots_.size());
    ++writes_;
    slots_[index] = fn(slots_[index]);
    return slots_[index];
  }

  void Fill(const T& value) {
    for (auto& s : slots_) {
      s = value;
    }
  }

  size_t size() const { return slots_.size(); }
  size_t MemoryBits() const { return slots_.size() * sizeof(T) * 8; }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  void ResetAccessCounts() {
    reads_ = 0;
    writes_ = 0;
  }

 private:
  std::vector<T> slots_;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace netcache

#endif  // NETCACHE_DATAPLANE_REGISTER_ARRAY_H_
