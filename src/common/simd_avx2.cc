// AVX2 kernel bodies for common/simd.h.
//
// Compiled with -mavx2 (see src/common/CMakeLists.txt); nothing here runs
// unless the dispatcher in simd.cc saw `avx2` in cpuid first, so the rest of
// the binary stays baseline x86-64. Every kernel reproduces its scalar
// reference (simd.cc) bit-for-bit:
//
//   - 64-bit lane multiplies are emulated (AVX2 has no _mm256_mullo_epi64):
//     the generic path is three 32x32->64 partial products; the FNV prime
//     0x100000001b3 = 2^40 + 0x1b3 needs only two because the high factor is
//     a plain shift. All adds/shifts are exact mod 2^64, so lane arithmetic
//     equals scalar u64 arithmetic.
//   - Byte order: keys load as two little-endian u64 words per key and each
//     FNV round extracts byte j with a lane shift — the same byte sequence
//     the scalar loop consumes.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace netcache {
namespace simd_avx2 {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrimeLow = 0x1b3;  // prime = 2^40 + 0x1b3
constexpr uint64_t kMixK1 = 0xff51afd7ed558ccdull;
constexpr uint64_t kMixK2 = 0xc4ceb9fe1a85ec53ull;
constexpr uint64_t kDigestSalt = 0x9e3779b97f4a7c15ull;

// Generic 64-bit lane multiply by a broadcast constant: lo*lo plus the two
// cross products shifted up 32. Exact mod 2^64.
inline __m256i Mullo64(__m256i a, __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                   _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// x * 0x100000001b3 = (x << 40) + x * 0x1b3, two partial products because
// 0x1b3 fits 32 bits.
inline __m256i MulFnvPrime(__m256i x) {
  const __m256i low = _mm256_set1_epi64x(static_cast<long long>(kFnvPrimeLow));
  __m256i prod = _mm256_add_epi64(
      _mm256_mul_epu32(x, low),
      _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), low), 32));
  return _mm256_add_epi64(_mm256_slli_epi64(x, 40), prod);
}

// MurmurHash3 fmix64, four lanes at a time (same constants as common/hash.h).
inline __m256i Mix64Lanes(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMixK1)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMixK2)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

// Four 16-byte keys, loaded through kp[0..3], as (lo, hi) u64 lane sets.
// unpacklo/hi interleave within 128-bit halves, so lanes come out in key
// order {0, 2, 1, 3}; every FNV/mix step is lanewise, so the permutation is
// harmless until the store, where kUnpermute (dst0<-src0, dst1<-src2,
// dst2<-src1, dst3<-src3) restores key order. The vector loads gather
// straight out of the packets' key bytes.
constexpr int kUnpermute = 0xd8;

inline void LoadKeys4(const uint8_t* const* kp, __m256i* lo, __m256i* hi) {
  __m256i a = _mm256_set_m128i(_mm_loadu_si128(reinterpret_cast<const __m128i*>(kp[1])),
                               _mm_loadu_si128(reinterpret_cast<const __m128i*>(kp[0])));
  __m256i b = _mm256_set_m128i(_mm_loadu_si128(reinterpret_cast<const __m128i*>(kp[3])),
                               _mm_loadu_si128(reinterpret_cast<const __m128i*>(kp[2])));
  *lo = _mm256_unpacklo_epi64(a, b);
  *hi = _mm256_unpackhi_epi64(a, b);
}

// Scalar tail identical to simd.cc's reference (kept local so this TU needs
// no baseline-compiled helpers).
inline void DigestOneScalar(const uint8_t* key, uint64_t* h1, uint64_t* h2) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < 16; ++i) {
    h ^= key[i];
    h *= (1ull << 40) + kFnvPrimeLow;
  }
  auto mix = [](uint64_t x) {
    x ^= x >> 33;
    x *= kMixK1;
    x ^= x >> 33;
    x *= kMixK2;
    x ^= x >> 33;
    return x;
  };
  *h1 = mix(h);
  *h2 = mix(h ^ kDigestSalt) | 1;
}

}  // namespace

// FNV's xor-multiply recurrence is a serial dependency chain (~8-cycle
// latency per byte through the emulated 64-bit multiply), so one 4-lane
// vector sits idle most of the time. Four interleaved chains — 16 keys per
// pass — keep the multiply ports saturated; the independent chains, not the
// lane width, are what buy the throughput.
void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2) {
  const __m256i byte_mask = _mm256_set1_epi64x(0xff);
  const __m256i basis = _mm256_set1_epi64x(static_cast<long long>(kFnvBasis));
  const __m256i salt = _mm256_set1_epi64x(static_cast<long long>(kDigestSalt));
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i lo[4], hi[4], h[4];
    for (int c = 0; c < 4; ++c) {
      LoadKeys4(keys + i + 4 * c, &lo[c], &hi[c]);
      h[c] = basis;
    }
    for (int j = 0; j < 8; ++j) {
      for (int c = 0; c < 4; ++c) {
        __m256i byte = _mm256_and_si256(_mm256_srli_epi64(lo[c], 8 * j), byte_mask);
        h[c] = MulFnvPrime(_mm256_xor_si256(h[c], byte));
      }
    }
    for (int j = 0; j < 8; ++j) {
      for (int c = 0; c < 4; ++c) {
        __m256i byte = _mm256_and_si256(_mm256_srli_epi64(hi[c], 8 * j), byte_mask);
        h[c] = MulFnvPrime(_mm256_xor_si256(h[c], byte));
      }
    }
    for (int c = 0; c < 4; ++c) {
      __m256i v1 = _mm256_permute4x64_epi64(Mix64Lanes(h[c]), kUnpermute);
      __m256i v2 = _mm256_permute4x64_epi64(
          _mm256_or_si256(Mix64Lanes(_mm256_xor_si256(h[c], salt)), one), kUnpermute);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h1 + i + 4 * c), v1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h2 + i + 4 * c), v2);
    }
  }
  for (; i + 4 <= n; i += 4) {
    __m256i lo, hi;
    LoadKeys4(keys + i, &lo, &hi);
    __m256i h = basis;
    for (int j = 0; j < 8; ++j) {
      __m256i byte = _mm256_and_si256(_mm256_srli_epi64(lo, 8 * j), byte_mask);
      h = MulFnvPrime(_mm256_xor_si256(h, byte));
    }
    for (int j = 0; j < 8; ++j) {
      __m256i byte = _mm256_and_si256(_mm256_srli_epi64(hi, 8 * j), byte_mask);
      h = MulFnvPrime(_mm256_xor_si256(h, byte));
    }
    __m256i v1 = _mm256_permute4x64_epi64(Mix64Lanes(h), kUnpermute);
    __m256i v2 = _mm256_permute4x64_epi64(
        _mm256_or_si256(Mix64Lanes(_mm256_xor_si256(h, salt)), one), kUnpermute);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h1 + i), v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h2 + i), v2);
  }
  for (; i < n; ++i) {
    DigestOneScalar(keys[i], h1 + i, h2 + i);
  }
}

}  // namespace simd_avx2
}  // namespace netcache
