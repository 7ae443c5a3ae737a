// Key-value request codec shared by the KV apps (Redis/SSDB models) and
// the validation clients.
//
// A request payload is a sequence of operations; values are generated
// deterministically from a seed, so the server checks a stored value
// against its seed in place and the client checks a GET's echoed seed
// against the one it last SET, without either storing the bytes. One key
// maps to one page in the app's KV region, so SET/GET traffic exercises
// the real content-page checkpoint path.
//
// Word k of a value is splitmix64(seed + k). The loop over a value's
// whole words is compiled three times, as the baseline and under the
// AVX2 and AVX-512DQ target attributes, and kv_isa() picks the widest one
// the CPU runs, once per process (DESIGN.md §5 item 3). Every variant
// writes the same bytes and returns the same verdict; NLC_SIMD does not
// select them. In a -pg profile the vector variants are rows of their
// own, kv_detail::fill_words_avx512dq and diff_words_avx512dq (or the
// _avx2 pair); the baseline is inlined into its caller.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nlc::apps {

enum class KvOpType : std::uint8_t { kSet = 1, kGet = 2 };

struct KvOp {
  KvOpType op = KvOpType::kSet;
  std::uint32_t key = 0;
  std::uint64_t seed = 0;   // value generator seed (kSet)
  std::uint16_t len = 0;    // value length (kSet), or result length (reply)
  bool found = false;       // reply: key existed
  /// Reply to a found kGet: the stored seed when the stored value bytes are
  /// the ones that seed generates, its complement when they are not.
  std::uint64_t reply_seed = 0;
};

inline constexpr std::size_t kKvOpWireSize = 24;

/// Bytes in every value the validation clients SET and the harness
/// pre-uploads.
inline constexpr std::uint16_t kKvValueLen = 900;

/// Deterministic value byte at position i for a (seed, len) value.
inline std::byte kv_value_byte(std::uint64_t seed, std::uint32_t i) {
  return static_cast<std::byte>(splitmix64(seed + i / 8) >> ((i % 8) * 8));
}

/// The instruction sets the value word loop is compiled for.
enum class KvIsa : std::uint8_t { kBaseline, kAvx2, kAvx512dq };

inline const char* kv_isa_name(KvIsa isa) {
  switch (isa) {
    case KvIsa::kBaseline: return "baseline";
    case KvIsa::kAvx2: return "avx2";
    case KvIsa::kAvx512dq: return "avx512dq";
  }
  return "?";
}

/// True when this build and CPU run `isa`'s word loop.
inline bool kv_isa_supported(KvIsa isa) {
  switch (isa) {
    case KvIsa::kBaseline: return true;
    case KvIsa::kAvx2: return util::cpu_supports_vector();
    case KvIsa::kAvx512dq: return util::cpu_supports_avx512dq();
  }
  return false;
}

/// The widest variant this CPU runs, picked on the first call.
inline KvIsa kv_isa() {
  static const KvIsa isa =
      kv_isa_supported(KvIsa::kAvx512dq) ? KvIsa::kAvx512dq
      : kv_isa_supported(KvIsa::kAvx2)   ? KvIsa::kAvx2
                                         : KvIsa::kBaseline;
  return isa;
}

namespace kv_detail {

/// Stores the first `words` value words of `seed`, least significant
/// byte first.
[[gnu::always_inline]] inline void fill_loop(std::uint64_t seed,
                                             std::byte* out,
                                             std::size_t words) {
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t word = splitmix64(seed + k);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + 8 * k, &word, 8);
  }
}

/// OR of stored ^ expected over the first `words` value words of `seed`.
[[gnu::always_inline]] inline std::uint64_t diff_loop(std::uint64_t seed,
                                                      const std::byte* in,
                                                      std::size_t words) {
  std::uint64_t diff = 0;
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t stored;
    std::memcpy(&stored, in + 8 * k, 8);
    if constexpr (std::endian::native == std::endian::big) {
      stored = __builtin_bswap64(stored);
    }
    diff |= stored ^ splitmix64(seed + k);
  }
  return diff;
}

/// Words per pass of the widest vector loop (one zmm of 64-bit lanes).
/// The word loop runs first over a multiple of it, then over the 0..7
/// words left: with no epilogue to add, GCC vectorizes the first run at
/// -O2 too, whose cost model refuses a loop that needs one.
inline constexpr std::size_t kVectorWords = 8;

[[gnu::always_inline]] inline void fill_words(std::uint64_t seed,
                                              std::byte* out,
                                              std::size_t words) {
  const std::size_t body = words / kVectorWords * kVectorWords;
  fill_loop(seed, out, body);
  fill_loop(seed + body, out + 8 * body, words - body);
}

[[gnu::always_inline]] inline std::uint64_t diff_words(std::uint64_t seed,
                                                       const std::byte* in,
                                                       std::size_t words) {
  const std::size_t body = words / kVectorWords * kVectorWords;
  return diff_loop(seed, in, body) |
         diff_loop(seed + body, in + 8 * body, words - body);
}

#if NLC_SIMD_X86
// The same loops under wider target attributes. GCC vectorizes them with
// vpmullq on zmm registers under AVX-512DQ, and with three vpmuludq per
// 64-bit product under AVX2, which has no 64-bit multiply.
__attribute__((target("avx2"))) inline void fill_words_avx2(
    std::uint64_t seed, std::byte* out, std::size_t words) {
  fill_words(seed, out, words);
}

__attribute__((target("avx2"))) inline std::uint64_t diff_words_avx2(
    std::uint64_t seed, const std::byte* in, std::size_t words) {
  return diff_words(seed, in, words);
}

__attribute__((target("avx512f,avx512dq"))) inline void fill_words_avx512dq(
    std::uint64_t seed, std::byte* out, std::size_t words) {
  fill_words(seed, out, words);
}

__attribute__((target("avx512f,avx512dq"))) inline std::uint64_t
diff_words_avx512dq(std::uint64_t seed, const std::byte* in,
                    std::size_t words) {
  return diff_words(seed, in, words);
}
#endif  // NLC_SIMD_X86

}  // namespace kv_detail

/// Writes the first `len` value bytes of `seed` to `out`: one splitmix64
/// word per 8 bytes, least significant byte first, so out[i] equals
/// kv_value_byte(seed, i). `isa` must be one kv_isa_supported() accepts.
inline void kv_fill_value(std::uint64_t seed, std::byte* out,
                          std::size_t len, KvIsa isa = kv_isa()) {
  const std::size_t words = len / 8;
  switch (isa) {
#if NLC_SIMD_X86
    case KvIsa::kAvx512dq:
      kv_detail::fill_words_avx512dq(seed, out, words);
      break;
    case KvIsa::kAvx2:
      kv_detail::fill_words_avx2(seed, out, words);
      break;
#endif
    default:
      kv_detail::fill_words(seed, out, words);
  }
  const std::size_t i = words * 8;
  const std::uint64_t tail = splitmix64(seed + words);
  for (std::size_t b = 0; i + b < len; ++b) {
    out[i + b] = static_cast<std::byte>(tail >> (b * 8));
  }
}

inline std::vector<std::byte> kv_value_bytes(std::uint64_t seed,
                                             std::uint16_t len) {
  std::vector<std::byte> out(len);
  kv_fill_value(seed, out.data(), out.size());
  return out;
}

/// True when bytes[0, len) equal what kv_fill_value(seed, out, len)
/// writes. Its reading twin: the same word loop compares each stored word
/// in place, then the tail. `isa` as for kv_fill_value.
inline bool kv_value_matches(std::uint64_t seed, const std::byte* bytes,
                             std::size_t len, KvIsa isa = kv_isa()) {
  const std::size_t words = len / 8;
  std::uint64_t diff = 0;
  switch (isa) {
#if NLC_SIMD_X86
    case KvIsa::kAvx512dq:
      diff = kv_detail::diff_words_avx512dq(seed, bytes, words);
      break;
    case KvIsa::kAvx2:
      diff = kv_detail::diff_words_avx2(seed, bytes, words);
      break;
#endif
    default:
      diff = kv_detail::diff_words(seed, bytes, words);
  }
  const std::size_t i = words * 8;
  const std::uint64_t tail = splitmix64(seed + words);
  for (std::size_t b = 0; i + b < len; ++b) {
    diff |= static_cast<std::uint64_t>(bytes[i + b]) ^
            ((tail >> (b * 8)) & 0xFF);
  }
  return diff == 0;
}

/// FNV-1a over a byte range; the replay log fingerprints each request
/// payload it consumes with it (DESIGN.md §14).
inline std::uint64_t kv_content_hash(const std::byte* data,
                                     std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::shared_ptr<std::vector<std::byte>> kv_encode(
    const std::vector<KvOp>& ops) {
  auto buf = std::make_shared<std::vector<std::byte>>(ops.size() *
                                                      kKvOpWireSize);
  std::byte* p = buf->data();
  for (const KvOp& op : ops) {
    std::uint8_t t = static_cast<std::uint8_t>(op.op);
    std::uint8_t f = op.found ? 1 : 0;
    std::memcpy(p, &t, 1);
    std::memcpy(p + 1, &f, 1);
    std::memcpy(p + 2, &op.len, 2);
    std::memcpy(p + 4, &op.key, 4);
    std::memcpy(p + 8, &op.seed, 8);
    std::memcpy(p + 16, &op.reply_seed, 8);
    p += kKvOpWireSize;
  }
  return buf;
}

/// Ops in a payload; a size that is not a whole number of ops fails the
/// "corrupt KV payload" check.
inline std::size_t kv_op_count(const std::vector<std::byte>& buf) {
  NLC_CHECK_MSG(buf.size() % kKvOpWireSize == 0, "corrupt KV payload");
  return buf.size() / kKvOpWireSize;
}

/// Reads op `i` (< kv_op_count(buf)) in place. An op byte other than
/// kSet's or kGet's, or a found byte other than 0 or 1, fails the same
/// check.
inline KvOp kv_read_op(const std::vector<std::byte>& buf, std::size_t i) {
  const std::byte* p = buf.data() + i * kKvOpWireSize;
  std::uint8_t t = 0, f = 0;
  std::memcpy(&t, p, 1);
  std::memcpy(&f, p + 1, 1);
  NLC_CHECK_MSG((t == static_cast<std::uint8_t>(KvOpType::kSet) ||
                 t == static_cast<std::uint8_t>(KvOpType::kGet)) &&
                    f <= 1,
                "corrupt KV payload");
  KvOp op;
  op.op = static_cast<KvOpType>(t);
  op.found = f == 1;
  std::memcpy(&op.len, p + 2, 2);
  std::memcpy(&op.key, p + 4, 4);
  std::memcpy(&op.seed, p + 8, 8);
  std::memcpy(&op.reply_seed, p + 16, 8);
  return op;
}

inline std::vector<KvOp> kv_decode(const std::vector<std::byte>& buf) {
  std::vector<KvOp> ops(kv_op_count(buf));
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = kv_read_op(buf, i);
  return ops;
}

}  // namespace nlc::apps
