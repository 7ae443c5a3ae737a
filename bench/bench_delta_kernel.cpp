// Wall-clock microbenchmark of the dispatched delta scan kernels
// (DESIGN.md §12).
//
// Measures ns/page per SimdTier over a mixed-run corpus that mirrors what
// the epoch pipeline actually feeds the codec: unchanged pages,
// fully-rewritten pages, sparse KV-style 900-byte updates, runs whose
// boundaries land exactly on word/vector edges, and short tails. The
// scalar row times the byte-at-a-time reference encoder (delta_encode);
// the others time the size kernel the codec runs (delta_wire_size). Every
// size is checked equal to the reference's wire size, and the reference
// delta's round trip checked, before the clock runs on a separate
// unverified pass, so the gate cannot pass on a kernel that is fast but
// wrong.
//
// It also times the KV value generator's word-loop variants (apps/kv.hpp)
// in ns per fill and per check of one 900-byte value, each variant's bytes
// and verdicts checked against the baseline first. Those rows have no gate.
//
// Writes BENCH_delta_kernel.json. The smoke/default run gates the best
// fast tier at >= 3x the scalar reference on this corpus (skipped when the
// build cannot run any vector tier and SWAR alone misses it on exotic
// hardware is not expected — SWAR must hit the gate too).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/kv.hpp"
#include "bench/common.hpp"
#include "criu/delta.hpp"
#include "kernel/address_space.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

struct Case {
  const char* name;
  kern::PageBytes prev;
  kern::PageBytes cur;
};

kern::PageBytes random_page(Rng& rng) {
  kern::PageBytes p(kPageSize);
  for (auto& b : p) b = static_cast<std::byte>(rng.next() & 0xff);
  return p;
}

/// The mixed-run corpus. Weights roughly follow the epoch pipeline: most
/// dirty pages are touched-but-unchanged or sparsely updated; full
/// rewrites and adversarial boundary patterns are the tail.
std::vector<Case> build_corpus() {
  Rng rng(0xBE7C'0001);
  std::vector<Case> corpus;

  // 1) Touched but unchanged (the dominant real-world case).
  for (int i = 0; i < 8; ++i) {
    kern::PageBytes p = random_page(rng);
    corpus.push_back({"all-same", p, p});
  }

  // 2) Fully rewritten (raw fallback path).
  for (int i = 0; i < 2; ++i) {
    kern::PageBytes p = random_page(rng);
    kern::PageBytes q = random_page(rng);
    corpus.push_back({"all-diff", std::move(p), std::move(q)});
  }

  // 3) Sparse KV-style update: one 900-byte run mid-page.
  for (int i = 0; i < 6; ++i) {
    kern::PageBytes p = random_page(rng);
    kern::PageBytes q = p;
    for (std::size_t j = 512; j < 512 + 900; ++j) {
      q[j] = static_cast<std::byte>(rng.next() & 0xff);
    }
    corpus.push_back({"kv-900B-run", std::move(p), std::move(q)});
  }

  // 4) Scattered small mutations (the fuzz shape).
  for (int i = 0; i < 4; ++i) {
    kern::PageBytes p = random_page(rng);
    kern::PageBytes q = p;
    for (int m = 0; m < 24; ++m) {
      auto pos = static_cast<std::size_t>(rng.uniform(0, kPageSize - 64));
      auto len = static_cast<std::size_t>(rng.uniform(1, 48));
      for (std::size_t j = pos; j < pos + len; ++j) {
        q[j] = static_cast<std::byte>(rng.next() & 0xff);
      }
    }
    corpus.push_back({"scattered", std::move(p), std::move(q)});
  }

  // 5) Run boundaries pinned to word/vector edges + sub-16B tails.
  for (std::size_t edge : {8ul, 31ul, 32ul, 33ul, 64ul, kPageSize - 33,
                           kPageSize - 15, kPageSize - 1}) {
    kern::PageBytes p = random_page(rng);
    kern::PageBytes q = p;
    const std::size_t len = std::min<std::size_t>(32, kPageSize - edge);
    for (std::size_t j = edge; j < edge + len; ++j) {
      q[j] = static_cast<std::byte>(static_cast<int>(q[j]) ^ 0xFF);
    }
    corpus.push_back({"edge-run", std::move(p), std::move(q)});
  }

  return corpus;
}

/// Verifies the size kernel at `tier` against the reference on every
/// corpus entry; aborts the bench on any mismatch.
void verify_tier(const std::vector<Case>& corpus, util::SimdTier tier) {
  for (const Case& c : corpus) {
    criu::PageDelta ref = criu::delta_encode(&c.prev, c.cur);
    NLC_CHECK_MSG(criu::delta_wire_size(&c.prev, c.cur, tier) ==
                      ref.wire_size,
                  "size kernel diverges from reference");
    kern::PageBytes back = criu::delta_apply(&c.prev, ref, &c.cur);
    NLC_CHECK_MSG(back == c.cur, "delta round-trip failed");
  }
}

/// Best-of ns/page for one tier over `reps` full corpus sweeps: the
/// reference encoder when `reference`, else the size kernel. The
/// accumulated wire size is returned through `sink` so the compiler cannot
/// drop the work.
double measure_tier(const std::vector<Case>& corpus, util::SimdTier tier,
                    int reps, bool reference, std::uint64_t* sink) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t acc = 0;
    const std::uint64_t t0 = util::wall_now_ns();
    for (const Case& c : corpus) {
      acc += reference ? criu::delta_encode(&c.prev, c.cur).wire_size
                       : criu::delta_wire_size(&c.prev, c.cur, tier);
    }
    const std::uint64_t t1 = util::wall_now_ns();
    *sink += acc;
    best = std::min(best, static_cast<double>(t1 - t0) /
                              static_cast<double>(corpus.size()));
  }
  return best;
}

/// Bytes in each value of the perfbench and nlc_run KV workloads.
constexpr std::size_t kKvValueLen = apps::kKvValueLen;

struct KvRow {
  apps::KvIsa isa;
  double fill_ns;
  double check_ns;
};

/// Aborts the bench unless `isa` writes the baseline's bytes and accepts
/// exactly its own values.
void verify_kv_isa(apps::KvIsa isa) {
  constexpr std::size_t kMaxLen = kPageSize - 16;
  std::vector<std::byte> ref(kMaxLen);
  std::vector<std::byte> got(kMaxLen);
  for (std::uint64_t seed : {0ull, 0x5EEDull, ~0ull - 3}) {
    for (std::size_t len : {0ul, 1ul, 7ul, 8ul, 63ul, 64ul, 65ul,
                            kKvValueLen, kMaxLen}) {
      apps::kv_fill_value(seed, ref.data(), len, apps::KvIsa::kBaseline);
      apps::kv_fill_value(seed, got.data(), len, isa);
      NLC_CHECK_MSG(std::memcmp(ref.data(), got.data(), len) == 0,
                    "KV value variant diverges from the baseline");
      NLC_CHECK_MSG(apps::kv_value_matches(seed, got.data(), len, isa) &&
                        apps::kv_value_matches(seed + 1, got.data(), len,
                                               isa) == (len == 0),
                    "KV check variant diverges from the baseline");
    }
  }
}

/// Makes `p` escape and the memory it reaches current here, so the
/// compiler can neither drop nor move the timed work that wrote it. The
/// baseline is inlined into the timing loops, unlike the vector variants.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Best-of ns per fill and per check of one kKvValueLen-byte value. Every
/// check is of a value that matches, as on a healthy run; the loop has no
/// early exit, so a mismatch would cost the same.
KvRow measure_kv_isa(apps::KvIsa isa, int reps, std::uint64_t* sink) {
  constexpr int kValues = 4000;
  constexpr std::size_t kRing = 16;
  std::array<std::vector<std::byte>, kRing> ring;
  for (std::size_t j = 0; j < kRing; ++j) {
    ring[j].resize(kKvValueLen);
    apps::kv_fill_value(j, ring[j].data(), kKvValueLen, isa);
    escape(ring[j].data());
  }
  std::vector<std::byte> out(kKvValueLen);
  KvRow row{isa, 1e18, 1e18};
  for (int r = 0; r < reps; ++r) {
    std::uint64_t acc = 0;
    const std::uint64_t t0 = util::wall_now_ns();
    for (int v = 0; v < kValues; ++v) {
      apps::kv_fill_value(static_cast<std::uint64_t>(v), out.data(),
                          kKvValueLen, isa);
      escape(out.data());
    }
    const std::uint64_t t1 = util::wall_now_ns();
    for (int v = 0; v < kValues; ++v) {
      const std::size_t j = static_cast<std::size_t>(v) % kRing;
      acc += apps::kv_value_matches(j, ring[j].data(), kKvValueLen, isa);
      escape(&acc);
    }
    const std::uint64_t t2 = util::wall_now_ns();
    NLC_CHECK_MSG(acc == static_cast<std::uint64_t>(kValues),
                  "KV check rejected its own value");
    *sink += acc;
    row.fill_ns = std::min(row.fill_ns, static_cast<double>(t1 - t0) / kValues);
    row.check_ns =
        std::min(row.check_ns, static_cast<double>(t2 - t1) / kValues);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;

  const auto [smoke, full] = parse_size_flags(argc, argv);
  const int reps = smoke ? 30 : (full ? 300 : 100);

  header("Delta scan kernels: ns/page per SimdTier",
         "DESIGN.md §12 (extension beyond the paper)");

  std::vector<Case> corpus = build_corpus();
  std::printf("corpus: %zu pages (mixed runs), reps: %d (best-of)\n\n",
              corpus.size(), reps);

  std::vector<util::SimdTier> tiers{util::SimdTier::kScalar,
                                    util::SimdTier::kSwar64};
  if (util::cpu_supports_vector()) tiers.push_back(util::SimdTier::kVector);

  std::uint64_t sink = 0;
  double scalar_ns = 0;
  double best_fast_ns = 1e18;
  std::FILE* f = std::fopen("BENCH_delta_kernel.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"corpus_pages\": %zu,\n  \"tiers\": [\n",
                 corpus.size());
  }
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const util::SimdTier tier = tiers[t];
    const bool reference = tier == util::SimdTier::kScalar;
    if (!reference) verify_tier(corpus, tier);
    const double ns = measure_tier(corpus, tier, reps, reference, &sink);
    if (reference) {
      scalar_ns = ns;
    } else {
      best_fast_ns = std::min(best_fast_ns, ns);
    }
    const double sp = reference ? 1.0 : scalar_ns / ns;
    std::printf("%-10s | %10.1f ns/page | %6.2fx vs scalar\n",
                util::simd_tier_name(tier), ns, sp);
    if (f != nullptr) {
      std::fprintf(f,
                   "%s    {\"tier\": \"%s\", \"ns_per_page\": %.1f, "
                   "\"speedup_vs_scalar\": %.2f}",
                   t == 0 ? "" : ",\n", util::simd_tier_name(tier), ns, sp);
    }
  }
  const double speedup = scalar_ns / best_fast_ns;
  std::printf("%-10s | %6.2fx (checksum %llu)\n", "best fast", speedup,
              static_cast<unsigned long long>(sink & 0xFFFF));

  std::printf("\nKV value generator, %zu-byte value (kv_isa() = %s)\n",
              kKvValueLen, apps::kv_isa_name(apps::kv_isa()));
  std::vector<KvRow> kv_rows;
  for (apps::KvIsa isa : {apps::KvIsa::kBaseline, apps::KvIsa::kAvx2,
                          apps::KvIsa::kAvx512dq}) {
    if (!apps::kv_isa_supported(isa)) {
      std::printf("%-10s | not run: this build or CPU cannot run it\n",
                  apps::kv_isa_name(isa));
      continue;
    }
    verify_kv_isa(isa);
    kv_rows.push_back(measure_kv_isa(isa, reps, &sink));
    std::printf("%-10s | %8.1f ns/fill | %8.1f ns/check\n",
                apps::kv_isa_name(isa), kv_rows.back().fill_ns,
                kv_rows.back().check_ns);
  }

  if (f != nullptr) {
    std::fprintf(f,
                 "\n  ],\n  \"best_fast_speedup\": %.2f,\n"
                 "  \"vector_supported\": %s,\n"
                 "  \"kv_value_bytes\": %zu,\n  \"kv_isas\": [\n",
                 speedup, util::cpu_supports_vector() ? "true" : "false",
                 kKvValueLen);
    for (std::size_t i = 0; i < kv_rows.size(); ++i) {
      std::fprintf(f,
                   "%s    {\"isa\": \"%s\", \"ns_per_fill\": %.1f, "
                   "\"ns_per_check\": %.1f}",
                   i == 0 ? "" : ",\n", apps::kv_isa_name(kv_rows[i].isa),
                   kv_rows[i].fill_ns, kv_rows[i].check_ns);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_delta_kernel.json\n");
  }

  // Acceptance gate (ISSUE 6): the fast tier must beat the byte-at-a-time
  // reference by >= 3x on the mixed corpus. Bit-identity was asserted above
  // before the timed passes.
  NLC_CHECK_MSG(speedup >= 3.0, "fast delta kernel below 3x gate");
  return 0;
}
