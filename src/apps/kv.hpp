// Key-value request codec shared by the KV apps (Redis/SSDB models) and
// the validation clients.
//
// A request payload is a sequence of operations; values are generated
// deterministically from a seed, so the server checks a stored value
// against its seed in place and the client checks a GET's echoed seed
// against the one it last SET, without either storing the bytes. One key
// maps to one page in the app's KV region, so SET/GET traffic exercises
// the real content-page checkpoint path.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

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

/// Deterministic value byte at position i for a (seed, len) value.
inline std::byte kv_value_byte(std::uint64_t seed, std::uint32_t i) {
  return static_cast<std::byte>(splitmix64(seed + i / 8) >> ((i % 8) * 8));
}

/// Writes the first `len` value bytes of `seed` to `out`: one splitmix64
/// word per 8 bytes, least significant byte first, so out[i] equals
/// kv_value_byte(seed, i).
inline void kv_fill_value(std::uint64_t seed, std::byte* out,
                          std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word = splitmix64(seed + i / 8);
    // One 8-byte store per word, least significant byte first.
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + i, &word, 8);
  }
  const std::uint64_t tail = splitmix64(seed + i / 8);
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
/// writes. Its reading twin: one splitmix64 word per 8 bytes compared in
/// place, then the tail.
inline bool kv_value_matches(std::uint64_t seed, const std::byte* bytes,
                             std::size_t len) {
  std::uint64_t diff = 0;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    // One 8-byte load per word, least significant byte first.
    std::uint64_t stored;
    std::memcpy(&stored, bytes + i, 8);
    if constexpr (std::endian::native == std::endian::big) {
      stored = __builtin_bswap64(stored);
    }
    diff |= stored ^ splitmix64(seed + i / 8);
  }
  const std::uint64_t tail = splitmix64(seed + i / 8);
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

inline std::vector<KvOp> kv_decode(const std::vector<std::byte>& buf) {
  NLC_CHECK_MSG(buf.size() % kKvOpWireSize == 0, "corrupt KV payload");
  std::vector<KvOp> ops(buf.size() / kKvOpWireSize);
  const std::byte* p = buf.data();
  for (KvOp& op : ops) {
    std::uint8_t t = 0, f = 0;
    std::memcpy(&t, p, 1);
    std::memcpy(&f, p + 1, 1);
    std::memcpy(&op.len, p + 2, 2);
    std::memcpy(&op.key, p + 4, 4);
    std::memcpy(&op.seed, p + 8, 8);
    std::memcpy(&op.reply_seed, p + 16, 8);
    op.op = static_cast<KvOpType>(t);
    op.found = f != 0;
    p += kKvOpWireSize;
  }
  return ops;
}

}  // namespace nlc::apps
