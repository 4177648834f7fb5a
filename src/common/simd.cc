// Dispatch plumbing + portable scalar kernels for common/simd.h.
//
// This translation unit is compiled with the project's baseline flags — no
// -mavx2 — so the scalar fallbacks can never pick up AVX2 instructions from
// compiler auto-vectorization and a forced-scalar run is safe on any x86-64
// (or non-x86) host. The AVX2 kernel bodies live in simd_avx2.cc, which is
// compiled with -mavx2 only when the toolchain supports it (CMake option
// NETCACHE_SIMD, default ON) and is only ever entered after the runtime cpu
// check passes.

#include "common/simd.h"

#include <cstdlib>
#include <cstring>

#include "common/hash.h"

namespace netcache {

#if NETCACHE_HAVE_AVX2
namespace simd_avx2 {
// Implemented in simd_avx2.cc.
void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2);
}  // namespace simd_avx2
#endif

namespace {

SimdLevel Detect() {
#if NETCACHE_HAVE_AVX2
  // NETCACHE_SIMD=OFF (or 0 / off / scalar) pins the portable path without a
  // rebuild — the escape hatch the equivalence legs and bug triage use.
  const char* env = std::getenv("NETCACHE_SIMD");
  if (env != nullptr && (std::strcmp(env, "OFF") == 0 || std::strcmp(env, "off") == 0 ||
                         std::strcmp(env, "0") == 0 || std::strcmp(env, "scalar") == 0)) {
    return SimdLevel::kScalar;
  }
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

}  // namespace

namespace internal {
SimdLevel g_simd_level = Detect();
}  // namespace internal

void ForceScalarSimd() { internal::g_simd_level = SimdLevel::kScalar; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

ScopedScalarSimd::ScopedScalarSimd() : prev_(internal::g_simd_level) {
  internal::g_simd_level = SimdLevel::kScalar;
}
ScopedScalarSimd::~ScopedScalarSimd() { internal::g_simd_level = prev_; }

namespace simd {
namespace {

// The scalar reference kernels. These ARE the semantics: the AVX2 bodies in
// simd_avx2.cc emulate exactly this arithmetic mod 2^64 and the equivalence
// suites (sketch_test's digest lanes, flat_table_test) hold the two to
// bit-identity.

constexpr uint64_t kDigestSalt = 0x9e3779b97f4a7c15ull;

void DigestGather16Scalar(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t fnv = HashBytesUnmixed(keys[i], 16);
    h1[i] = Mix64(fnv);
    h2[i] = Mix64(fnv ^ kDigestSalt) | 1;
  }
}

}  // namespace

void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2) {
#if NETCACHE_HAVE_AVX2
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    simd_avx2::DigestGather16(keys, n, h1, h2);
    return;
  }
#endif
  DigestGather16Scalar(keys, n, h1, h2);
}

}  // namespace simd
}  // namespace netcache
