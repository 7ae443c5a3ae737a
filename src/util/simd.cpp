#include "util/simd.hpp"

#include <cstdlib>
#include <string_view>

#include "util/cli.hpp"

namespace nlc::util {

const char* simd_tier_name(SimdTier t) {
  switch (t) {
    case SimdTier::kAuto: return "auto";
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSwar64: return "swar64";
    case SimdTier::kVector: return "simd";
  }
  return "?";
}

bool cpu_supports_vector() {
#if NLC_SIMD_X86
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

bool cpu_supports_avx512dq() {
#if NLC_SIMD_X86
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512dq") != 0;
  return ok;
#else
  return false;
#endif
}

SimdTier best_simd_tier() {
  return cpu_supports_vector() ? SimdTier::kVector : SimdTier::kSwar64;
}

SimdTier env_simd_tier() {
  const char* v = std::getenv("NLC_SIMD");
  if (v == nullptr || v[0] == '\0') return best_simd_tier();
  const std::string_view s(v);
  if (s == "auto") return best_simd_tier();
  if (s == "scalar") return SimdTier::kScalar;
  if (s == "swar64" || s == "swar") return SimdTier::kSwar64;
  if (s == "simd" || s == "avx2" || s == "vector") {
    return cpu_supports_vector() ? SimdTier::kVector : SimdTier::kSwar64;
  }
  cli::env_fail("NLC_SIMD", v,
                "one of scalar, swar64, swar, simd, avx2, vector, auto");
}

SimdTier resolve_simd_tier(SimdTier t) {
  if (t == SimdTier::kAuto) return env_simd_tier();
  if (t == SimdTier::kVector && !cpu_supports_vector()) {
    return SimdTier::kSwar64;
  }
  return t;
}

}  // namespace nlc::util
