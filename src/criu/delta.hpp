// Dirty-page delta compression for the epoch state transfer.
//
// NiLiCon ships every dirty page at full 4 KiB cost; Remus-lineage systems
// classically shrink the transfer by diffing each dirty page against the
// version the backup already holds and shipping only the changed byte
// ranges. This module implements that stage for the reproduction:
//
//  * delta_encode()/delta_apply(): a real XOR + run-length codec over two
//    4 KiB payloads. Runs of identical bytes are skipped; each changed run
//    ships as (offset, len, bytes). The codec round-trips bit-exactly
//    (property-tested) — apply(prev, encode(prev, cur)) == cur.
//  * DeltaCodec: the per-container epoch stage. It keeps a shared handle to
//    the last-shipped payload of every page (refcount bump, zero copy —
//    copy-on-write in the address space keeps those bytes frozen), sizes
//    each content page of an epoch image against it with delta_wire_size()
//    (delta_encode()'s size, with no runs built), and stamps that modeled
//    compressed size into PageRecord::wire_size. The backup folds
//    full payloads as before; only the *wire* accounting and the
//    decompress cost model change, which is exactly what EpochStateMsg::
//    wire_bytes / send_side_cost / backup commit consume.
//
// Pages with no previous shipped version (first touch, epoch 0) and pages
// whose encoded size would exceed the raw page ship uncompressed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "criu/image.hpp"
#include "kernel/address_space.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace nlc::criu {

/// Per-page wire framing overhead of a delta-encoded page (page number,
/// version, run count).
inline constexpr std::uint32_t kDeltaPageHeader = 12;
/// Per-run framing (offset u16 + length u16).
inline constexpr std::uint32_t kDeltaRunHeader = 4;

struct PageDelta {
  struct Run {
    std::uint32_t offset = 0;
    std::vector<std::byte> bytes;  // the new bytes of the changed range
  };
  std::vector<Run> runs;
  /// True when there is no usable reference (or compression lost): the raw
  /// page ships instead and `runs` is empty.
  bool raw = false;
  /// Modeled bytes on the wire, framing included; kPageSize when raw.
  std::uint32_t wire_size = 0;
};

/// Encodes `cur` against reference `prev` (null => raw). Adjacent changed
/// bytes closer than the run-header cost are merged into one run, which is
/// what a real encoder would do to minimize framing. This is the reference
/// kernel: byte-at-a-time, the oracle the size kernel is property-tested
/// against and the shadow encoder of check::DeltaReplayChecker.
inline PageDelta delta_encode(const kern::PageBytes* prev,
                              const kern::PageBytes& cur) {
  NLC_CHECK(cur.size() == nlc::kPageSize);
  PageDelta d;
  if (prev == nullptr) {
    d.raw = true;
    d.wire_size = static_cast<std::uint32_t>(nlc::kPageSize);
    return d;
  }
  NLC_CHECK(prev->size() == nlc::kPageSize);
  std::uint32_t i = 0;
  const auto n = static_cast<std::uint32_t>(nlc::kPageSize);
  std::uint32_t size = kDeltaPageHeader;
  while (i < n) {
    if (cur[i] == (*prev)[i]) {
      ++i;
      continue;
    }
    // Start of a changed run; extend while bytes differ or the gap of
    // equal bytes is shorter than the framing a new run would cost.
    std::uint32_t start = i;
    std::uint32_t last_diff = i;
    ++i;
    while (i < n) {
      if (cur[i] != (*prev)[i]) {
        last_diff = i++;
      } else if (i - last_diff <= kDeltaRunHeader) {
        ++i;  // cheaper to include the equal gap than to open a new run
      } else {
        break;
      }
    }
    PageDelta::Run run;
    run.offset = start;
    run.bytes.assign(cur.begin() + start, cur.begin() + last_diff + 1);
    size += kDeltaRunHeader + static_cast<std::uint32_t>(run.bytes.size());
    d.runs.push_back(std::move(run));
  }
  if (size >= n) {
    // Compression lost: the raw page ships instead.
    d.raw = true;
    d.runs.clear();
    d.wire_size = n;
  } else {
    d.wire_size = size;
  }
  return d;
}

/// Span-scanning size kernel used by DeltaCodec (DESIGN.md §10/§12): the
/// wire size delta_encode(prev, cur) stamps, kPageSize when the page
/// ships raw, computed without building the runs. Equal spans — the
/// overwhelming majority of bytes of a typical dirty page — and changed
/// spans are both resolved by the dispatched scan primitives
/// (util/simd.hpp): 8 bytes per compare at kSwar64, 32 at kVector,
/// byte-at-a-time at kScalar. Run boundaries follow exactly the reference
/// kernel's absorb rule, so the size is bit-identical to delta_encode()'s
/// for every input and every tier (tests/simd_kernel_test); the sum
/// stops at the raw size.
inline std::uint32_t delta_wire_size(
    const kern::PageBytes* prev, const kern::PageBytes& cur,
    util::SimdTier tier = util::SimdTier::kSwar64) {
  constexpr auto kRaw = static_cast<std::uint32_t>(nlc::kPageSize);
  NLC_CHECK(cur.size() == nlc::kPageSize);
  if (prev == nullptr) return kRaw;
  NLC_CHECK(prev->size() == nlc::kPageSize);
  const std::byte* a = cur.data();
  const std::byte* b = prev->data();
  const std::size_t n = nlc::kPageSize;
  std::size_t size = kDeltaPageHeader;
  std::size_t i = util::find_diff(a, b, 0, n, tier);
  while (i < n) {
    const std::size_t start = i;
    std::size_t last_diff = i;
    // Invariant at the top of the loop: a[i] != b[i]. Extend over the
    // changed span, then absorb an equal gap iff it is no wider than the
    // framing a new run would cost (the same decision the reference kernel
    // makes one byte at a time: it keeps absorbing equal bytes while
    // i - last_diff <= kDeltaRunHeader, so a next diff at
    // last_diff + kDeltaRunHeader + 1 still extends the run).
    for (;;) {
      const std::size_t same = util::find_same(a, b, i + 1, n, tier);
      last_diff = same - 1;
      if (same >= n) {
        i = n;
        break;
      }
      const std::size_t j = util::find_diff(a, b, same, n, tier);
      if (j >= n || j - last_diff > kDeltaRunHeader + 1) {
        i = j;
        break;
      }
      i = j;  // diff within the absorbable gap: the run continues
    }
    size += kDeltaRunHeader + (last_diff + 1 - start);
    if (size >= n) return kRaw;  // the rest can only add framing
  }
  return static_cast<std::uint32_t>(size);
}

/// Reconstructs the current page from the reference and a delta. For raw
/// deltas the caller ships the full payload, so `raw_payload` is applied.
inline kern::PageBytes delta_apply(const kern::PageBytes* prev,
                                   const PageDelta& d,
                                   const kern::PageBytes* raw_payload) {
  if (d.raw) {
    NLC_CHECK_MSG(raw_payload != nullptr, "raw delta without payload");
    return *raw_payload;
  }
  NLC_CHECK_MSG(prev != nullptr, "delta apply without reference page");
  // Bulk copies via memcpy: the reference copy and every run land as wide
  // vector moves (and the output buffer comes from the slab arena via
  // PageBytes' allocator).
  kern::PageBytes out(prev->size());
  std::memcpy(out.data(), prev->data(), prev->size());
  for (const PageDelta::Run& r : d.runs) {
    NLC_CHECK(r.offset + r.bytes.size() <= out.size());
    if (!r.bytes.empty()) {
      std::memcpy(out.data() + r.offset, r.bytes.data(), r.bytes.size());
    }
  }
  return out;
}

/// What one epoch's compression stage did (feeds ReplicationMetrics).
struct EpochDeltaStats {
  std::uint64_t content_pages = 0;  // pages run through the encoder
  std::uint64_t delta_pages = 0;    // shipped as deltas
  /// Of delta_pages: resolved by handle identity with no byte scan.
  std::uint64_t identity_pages = 0;
  std::uint64_t raw_pages = 0;      // no reference / compression lost
  std::uint64_t raw_bytes = 0;      // page bytes before compression
  std::uint64_t wire_bytes = 0;     // page bytes after compression

  double ratio() const {
    return raw_bytes == 0 ? 1.0
                          : static_cast<double>(wire_bytes) /
                                static_cast<double>(raw_bytes);
  }
};

/// Primary-side per-container compression stage. Keeps the last shipped
/// payload of every content page as a shared handle, and sizes each page
/// with the span-scanning kernel at the codec's SIMD tier (NLC_SIMD,
/// DESIGN.md §12).
class DeltaCodec {
 public:
  explicit DeltaCodec(util::SimdTier tier = util::SimdTier::kAuto)
      : tier_(util::resolve_simd_tier(tier)) {}

  util::SimdTier simd_tier() const { return tier_; }

  /// Encodes every content page of `img` against the previously shipped
  /// version, stamping PageRecord::wire_size, and advances the reference
  /// set. Accounting pages (no bytes to diff) keep full wire cost.
  EpochDeltaStats encode_epoch(CheckpointImage& img) {
    EpochDeltaStats st;
    std::vector<PageRecord>& pages = img.pages;
    for (std::size_t k = 0; k < pages.size(); ++k) {
      // Pull the next record and the head of its payload while encoding
      // this one; the 4 KiB scan gives the lines time to arrive.
      if (k + 1 < pages.size()) {
        const PageRecord& next = pages[k + 1];
        util::prefetch_read(&next);
        if (next.content != nullptr) {
          util::prefetch_read(next.content->data());
        }
      }
      encode_one(pages[k], st);
    }
    return st;
  }

 private:
  void encode_one(PageRecord& rec, EpochDeltaStats& st) {
    if (!rec.has_content()) return;
    ++st.content_pages;
    st.raw_bytes += nlc::kPageSize;
    // One hash probe serves both the reference lookup and the
    // advance-reference store (the encode and stamp paths used to hit the
    // map separately per page).
    auto [it, inserted] = prev_.try_emplace(rec.page);
    if (!inserted && it->second == rec.content) {
      // Identity fast path: the record still carries the exact handle we
      // shipped last epoch. The address space clones-on-write whenever a
      // payload is shared — and our reference handle keeps it shared — so
      // handle identity proves the bytes are unchanged. Scanning both
      // 4 KiB pages would emit zero runs: the same header-only delta.
      rec.wire_size = kDeltaPageHeader;
      st.wire_bytes += kDeltaPageHeader;
      ++st.delta_pages;
      ++st.identity_pages;
      return;
    }
    const kern::PageBytes* ref = inserted ? nullptr : it->second.get();
    rec.wire_size = delta_wire_size(ref, *rec.content, tier_);
    st.wire_bytes += rec.wire_size;
    if (rec.wire_size == nlc::kPageSize) {
      ++st.raw_pages;
    } else {
      ++st.delta_pages;
    }
    it->second = rec.content;  // refcount bump, no byte copy
  }

  std::unordered_map<kern::PageNum, kern::PagePayload> prev_;
  util::SimdTier tier_;
};

}  // namespace nlc::criu
