// Runtime-dispatched byte-span scan kernels for the delta codec
// (DESIGN.md §12).
//
// The XOR + run-length encoder (criu/delta.hpp) spends nearly all of its
// time answering two questions about a pair of 4 KiB buffers: "where is the
// next differing byte?" (skipping the equal spans that dominate a typical
// dirty page) and "where is the next equal byte?" (bounding a changed run).
// This module provides those two primitives at three implementation tiers
// behind one dispatch seam:
//
//  * kScalar — byte-at-a-time reference loops;
//  * kSwar64 — 8 bytes per compare via uint64 XOR + countr_zero /
//    zero-byte-detection bit tricks (little-endian only; big-endian targets
//    silently run the scalar loops);
//  * kVector — 32 bytes per compare via AVX2 cmpeq/movemask intrinsics,
//    compiled with a per-function target attribute and guarded by a
//    runtime CPU check, so the binary stays runnable on any x86-64 (and
//    non-x86 builds fall back to kSwar64).
//
// Every tier returns bit-identical results for every input — the encoder
// built on top is property-tested against the scalar reference
// (tests/simd_kernel_test.cpp). Tier selection: the NLC_SIMD env
// (scalar | swar64 | simd | auto); unit tests and benches may hand a
// concrete tier to the kernels directly.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define NLC_SIMD_X86 1
#else
#define NLC_SIMD_X86 0
#endif

namespace nlc::util {

enum class SimdTier : std::uint8_t { kAuto, kScalar, kSwar64, kVector };

const char* simd_tier_name(SimdTier t);

/// True when the vector tier (AVX2) can run on this CPU.
bool cpu_supports_vector();

/// True when AVX-512F and AVX-512DQ code can run on this CPU. Only the KV
/// value generator (apps/kv.hpp) has such a variant; NLC_SIMD does not
/// select it.
bool cpu_supports_avx512dq();

/// Fastest tier this build + CPU supports (kVector or kSwar64).
SimdTier best_simd_tier();

/// NLC_SIMD env: "scalar", "swar64"/"swar", "simd"/"avx2"/"vector", or
/// "auto"/unset (= best_simd_tier()); any other value exits 2. Unsupported
/// requests clamp down to the best runnable tier. Never returns kAuto.
/// Re-reads the environment on every call so tests can flip tiers within
/// one process.
SimdTier env_simd_tier();

/// kAuto -> env_simd_tier(); concrete tiers clamp to what the CPU runs.
SimdTier resolve_simd_tier(SimdTier t);

/// Prefetch `p` for reading into all cache levels. No-op where the builtin
/// is unavailable.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

namespace simd_detail {

inline std::size_t find_diff_scalar(const std::byte* a, const std::byte* b,
                                    std::size_t i, std::size_t n) {
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

inline std::size_t find_same_scalar(const std::byte* a, const std::byte* b,
                                    std::size_t i, std::size_t n) {
  while (i < n && a[i] != b[i]) ++i;
  return i;
}

inline std::size_t find_diff_swar(const std::byte* a, const std::byte* b,
                                  std::size_t i, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    while (i + 8 <= n) {
      std::uint64_t x = 0;
      std::uint64_t y = 0;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, b + i, 8);
      if (x != y) {
        return i + (static_cast<std::size_t>(std::countr_zero(x ^ y)) >> 3);
      }
      i += 8;
    }
  }
  return find_diff_scalar(a, b, i, n);
}

inline std::size_t find_same_swar(const std::byte* a, const std::byte* b,
                                  std::size_t i, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kLow = 0x0101010101010101ull;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    while (i + 8 <= n) {
      std::uint64_t x = 0;
      std::uint64_t y = 0;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, b + i, 8);
      const std::uint64_t v = x ^ y;
      // Zero-byte detection: bits below the first zero byte are exact, so
      // countr_zero lands on the first equal byte.
      const std::uint64_t zero = (v - kLow) & ~v & kHigh;
      if (zero != 0) {
        return i + (static_cast<std::size_t>(std::countr_zero(zero)) >> 3);
      }
      i += 8;
    }
  }
  return find_same_scalar(a, b, i, n);
}

#if NLC_SIMD_X86

__attribute__((target("avx2"))) inline std::size_t find_diff_avx2(
    const std::byte* a, const std::byte* b, std::size_t i, std::size_t n) {
  while (i + 32 <= n) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFFFFFu) {
      return i + static_cast<std::size_t>(std::countr_zero(~eq));
    }
    i += 32;
  }
  return find_diff_swar(a, b, i, n);
}

__attribute__((target("avx2"))) inline std::size_t find_same_avx2(
    const std::byte* a, const std::byte* b, std::size_t i, std::size_t n) {
  while (i + 32 <= n) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(eq));
    }
    i += 32;
  }
  return find_same_swar(a, b, i, n);
}

#endif  // NLC_SIMD_X86

}  // namespace simd_detail

/// First index in [i, n) where a and b differ; n if none.
inline std::size_t find_diff(const std::byte* a, const std::byte* b,
                             std::size_t i, std::size_t n, SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return simd_detail::find_diff_scalar(a, b, i, n);
#if NLC_SIMD_X86
    case SimdTier::kVector:
      return simd_detail::find_diff_avx2(a, b, i, n);
#endif
    default:
      return simd_detail::find_diff_swar(a, b, i, n);
  }
}

/// First index in [i, n) where a and b agree; n if none.
inline std::size_t find_same(const std::byte* a, const std::byte* b,
                             std::size_t i, std::size_t n, SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return simd_detail::find_same_scalar(a, b, i, n);
#if NLC_SIMD_X86
    case SimdTier::kVector:
      return simd_detail::find_same_avx2(a, b, i, n);
#endif
    default:
      return simd_detail::find_same_swar(a, b, i, n);
  }
}

}  // namespace nlc::util
