// Runtime-dispatched SIMD layer: the FNV/Mix64 digest lanes of the storage
// server's burst stage and the 16-way control-byte group scan the
// cache-lookup FlatTable probes with. Raw intrinsics are confined to
// src/common/simd* (enforced by the `simd-intrinsics` lint rule); callers
// only ever see these dispatched entry points.
//
// Dispatch model: one detection at first use picks the widest supported
// level (AVX2 today; scalar otherwise). Every kernel has a portable scalar
// fallback that is BIT-IDENTICAL to the vector path — same arithmetic mod
// 2^64, same saturation, same probe order for every observable side effect —
// so forcing scalar is purely a performance choice:
//   - `NETCACHE_SIMD=OFF` in the environment, or
//   - `--no-simd` on netcache_sim / any bench binary, or
//   - building with `-DNETCACHE_SIMD=OFF`
// all pin the scalar level. tests/determinism_test.cmake diffs a `--no-simd`
// run against a native one byte-for-byte, and the digest/table equivalence
// suites compare both paths structure-by-structure.

#ifndef NETCACHE_COMMON_SIMD_H_
#define NETCACHE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace netcache {

enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

namespace internal {
// The active level. Constant-initialized to kScalar and raised by a dynamic
// initializer in simd.cc (cpu detection + NETCACHE_SIMD env var + build
// option); a static constructor in another TU that runs kernels before that
// initializer simply gets the scalar path, which is always safe. Exposed so
// ActiveSimdLevel() inlines to a plain load — the table probe dispatch sits
// on the per-lookup hot path and cannot afford a cross-TU call with a
// static-init guard.
extern SimdLevel g_simd_level;
}  // namespace internal

// The level selected at startup, possibly lowered later by
// ForceScalarSimd/ScopedScalarSimd.
inline SimdLevel ActiveSimdLevel() { return internal::g_simd_level; }

// Lowers the active level to scalar for the rest of the process — the
// `--no-simd` flag hook. (Raising above the detected level is impossible.)
void ForceScalarSimd();

// "avx2" | "scalar"; recorded in bench JSON and netcache_sim metrics config
// so scripts/bench_regress.py can refuse cross-SIMD-level comparisons.
const char* SimdLevelName(SimdLevel level);
inline const char* ActiveSimdLevelName() { return SimdLevelName(ActiveSimdLevel()); }

// Temporarily pins the scalar path (equivalence tests, scalar-vs-SIMD bench
// trials). Not thread-safe: flip only while no other thread runs kernels —
// benches and tests do this between single-threaded trials.
class ScopedScalarSimd {
 public:
  ScopedScalarSimd();
  ~ScopedScalarSimd();
  ScopedScalarSimd(const ScopedScalarSimd&) = delete;
  ScopedScalarSimd& operator=(const ScopedScalarSimd&) = delete;

 private:
  SimdLevel prev_;
};

namespace simd {

// ---- batch kernels (runtime-dispatched, scalar fallback bit-identical) ----

// Digests `n` 16-byte keys gathered through a pointer array (keys[i]
// points at one key): one FNV-1a accumulation per key, then
//   h1[i] = Mix64(fnv_i)
//   h2[i] = Mix64(fnv_i ^ 0x9e3779b97f4a7c15) | 1
// exactly KeyDigest::Of's arithmetic (proto/key_digest.h), 4 keys per AVX2
// pass. The server's burst stage hands the kernel each packet's in-place key
// bytes, so the vector loads themselves do the gather. Declared on raw u64
// arrays so the kernel layer stays below proto/.
void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2);

// ---- 16-way control-byte group scan (inline; SSE2 is x86-64 baseline) ----

// Width of one FlatTable control-byte group; the table mirrors
// kCtrlGroupWidth-1 leading control bytes past its end so a group load never
// needs a wrap branch.
inline constexpr size_t kCtrlGroupWidth = 16;

struct Group16 {
  uint32_t match_mask = 0;  // bit i set: ctrl[i] == tag
  uint32_t empty_mask = 0;  // bit i set: ctrl[i] == 0 (empty slot)
};

// Compares 16 control bytes against `tag` and against empty in two vector
// ops. `tag` is nonzero by construction (bit 7 set), so the masks never
// overlap.
inline Group16 ScanGroup16(const uint8_t* ctrl, uint8_t tag) {
  Group16 g;
#if defined(__SSE2__)
  __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  g.match_mask = static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)))));
  g.empty_mask = static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_setzero_si128())));
#else
  for (size_t i = 0; i < kCtrlGroupWidth; ++i) {
    if (ctrl[i] == tag) {
      g.match_mask |= 1u << i;
    }
    if (ctrl[i] == 0) {
      g.empty_mask |= 1u << i;
    }
  }
#endif
  return g;
}

}  // namespace simd
}  // namespace netcache

#endif  // NETCACHE_COMMON_SIMD_H_
