// Tier-equivalence suite for the dispatched scan kernels and the slab
// arena (DESIGN.md §12).
//
// Contract under test: every SimdTier produces bit-identical results —
// for the find_diff/find_same primitives over arbitrary spans (including
// sub-word tails), for the delta_wire_size size kernel against the
// byte-at-a-time reference over adversarial run patterns, and for the full
// harvest -> encode -> serialize -> fold pipeline at every tier, whose
// every stamped wire size is checked against the reference kernel. The
// size kernel at its default tier, the codec's identity short-circuit and
// the reference codec's round trip are property-tested too. Plus sanity
// for the payload/node arena: blocks flow across threads and the stats
// counters move.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "blockdev/disk.hpp"
#include "check/invariants.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "criu/serialize.hpp"
#include "harness/experiment.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nlc {
namespace {

/// Every tier this build + CPU can run (kVector only where AVX2 exists;
/// the dispatcher would clamp it anyway, which would just repeat kSwar64).
std::vector<util::SimdTier> runnable_tiers() {
  std::vector<util::SimdTier> tiers{util::SimdTier::kScalar,
                                    util::SimdTier::kSwar64};
  if (util::cpu_supports_vector()) tiers.push_back(util::SimdTier::kVector);
  return tiers;
}

// ------------------------------------------------------ scan primitives ----

TEST(SimdKernelTest, FindPrimitivesMatchScalarOnArbitrarySpans) {
  Rng rng(0x51D0'0001);
  for (int iter = 0; iter < 300; ++iter) {
    // Lengths deliberately cover 0, sub-word (< 8), sub-vector (< 32) and
    // just-past-vector tails.
    const auto n = static_cast<std::size_t>(rng.uniform(0, 170));
    std::vector<std::byte> a(n);
    std::vector<std::byte> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::byte>(rng.next() & 0xff);
      // Mostly-equal buffers so both primitives exercise their skip loops.
      b[i] = (rng.next() % 4 == 0)
                 ? static_cast<std::byte>(rng.next() & 0xff)
                 : a[i];
    }
    for (std::size_t start = 0; start <= n; start += 1 + (n / 7)) {
      const std::size_t rd =
          util::find_diff(a.data(), b.data(), start, n, util::SimdTier::kScalar);
      const std::size_t rs =
          util::find_same(a.data(), b.data(), start, n, util::SimdTier::kScalar);
      for (util::SimdTier t : runnable_tiers()) {
        EXPECT_EQ(util::find_diff(a.data(), b.data(), start, n, t), rd)
            << "find_diff tier " << util::simd_tier_name(t) << " n=" << n
            << " start=" << start;
        EXPECT_EQ(util::find_same(a.data(), b.data(), start, n, t), rs)
            << "find_same tier " << util::simd_tier_name(t) << " n=" << n
            << " start=" << start;
      }
    }
  }
}

TEST(SimdKernelTest, FindPrimitivesExactAroundVectorEdges) {
  // A single differing (resp. equal) byte swept across every position of a
  // region spanning word and vector boundaries: the returned index must be
  // exact, not just "somewhere in the differing word/lane".
  constexpr std::size_t kN = 96;  // 3 AVX2 lanes
  for (std::size_t pos = 0; pos < kN; ++pos) {
    std::vector<std::byte> a(kN, std::byte{0x11});
    std::vector<std::byte> b(kN, std::byte{0x11});
    b[pos] = std::byte{0x22};
    std::vector<std::byte> c(kN, std::byte{0x33});  // all-diff vs a...
    c[pos] = std::byte{0x11};                       // ...except one byte
    for (util::SimdTier t : runnable_tiers()) {
      EXPECT_EQ(util::find_diff(a.data(), b.data(), 0, kN, t), pos)
          << util::simd_tier_name(t);
      EXPECT_EQ(util::find_same(a.data(), c.data(), 0, kN, t), pos)
          << util::simd_tier_name(t);
    }
  }
}

// ------------------------------------------------------- encoder kernels ----

kern::PageBytes random_page(Rng& rng) {
  kern::PageBytes p(kPageSize);
  for (auto& b : p) b = static_cast<std::byte>(rng.next() & 0xff);
  return p;
}

/// Asserts delta_wire_size(tier) == delta_encode's wire size for every
/// runnable tier, that it is kPageSize exactly when the reference ships
/// the page raw, and that the reference delta round-trips. Returns the
/// reference size.
std::uint32_t expect_tiers_match_reference(const kern::PageBytes& prev,
                                           const kern::PageBytes& cur) {
  const criu::PageDelta ref = criu::delta_encode(&prev, cur);
  for (util::SimdTier t : runnable_tiers()) {
    const std::uint32_t size = criu::delta_wire_size(&prev, cur, t);
    EXPECT_EQ(size, ref.wire_size) << util::simd_tier_name(t);
    EXPECT_EQ(size == kPageSize, ref.raw) << util::simd_tier_name(t);
  }
  EXPECT_EQ(criu::delta_apply(&prev, ref, &cur), cur);
  return ref.wire_size;
}

TEST(SimdKernelTest, EncoderTiersMatchOnAdversarialPatterns) {
  Rng rng(0x51D0'0002);
  kern::PageBytes prev = random_page(rng);

  // All-same and all-diff.
  expect_tiers_match_reference(prev, prev);
  kern::PageBytes inv = prev;
  for (auto& b : inv) b = static_cast<std::byte>(~static_cast<int>(b));
  expect_tiers_match_reference(prev, inv);

  // Single-byte runs with boundaries swept across word and vector edges
  // (the lanes where a masked compare could mis-report the exact index).
  for (std::size_t pos :
       {0ul, 7ul, 8ul, 15ul, 16ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul,
        kPageSize - 33, kPageSize - 32, kPageSize - 31, kPageSize - 1}) {
    kern::PageBytes cur = prev;
    cur[pos] = static_cast<std::byte>(static_cast<int>(cur[pos]) ^ 0x1);
    expect_tiers_match_reference(prev, cur);
  }

  // Runs that start/end exactly on vector edges, and runs crossing them.
  for (auto [start, len] : std::initializer_list<std::pair<std::size_t,
                                                           std::size_t>>{
           {0, 32}, {32, 32}, {30, 4}, {31, 2}, {32, 1}, {60, 40},
           {kPageSize - 64, 64}, {kPageSize - 5, 5}}) {
    kern::PageBytes cur = prev;
    for (std::size_t j = start; j < start + len; ++j) {
      cur[j] = static_cast<std::byte>(static_cast<int>(cur[j]) ^ 0xFF);
    }
    expect_tiers_match_reference(prev, cur);
  }

  // Equal gaps of every width around the absorb threshold, placed so the
  // gap itself straddles a vector edge.
  for (std::size_t gap = 1; gap <= criu::kDeltaRunHeader + 3; ++gap) {
    for (std::size_t base : {28ul, 30ul, 62ul, 1000ul, kPageSize - 48}) {
      kern::PageBytes cur = prev;
      cur[base] = static_cast<std::byte>(static_cast<int>(cur[base]) ^ 0xFF);
      cur[base + gap + 1] = static_cast<std::byte>(
          static_cast<int>(cur[base + gap + 1]) ^ 0xFF);
      expect_tiers_match_reference(prev, cur);
    }
  }

  // Alternating 1-byte stripes: worst case for the absorb logic (every
  // gap is absorbable, the whole page collapses into one run -> raw).
  kern::PageBytes stripes = prev;
  for (std::size_t j = 0; j < kPageSize; j += 2) {
    stripes[j] = static_cast<std::byte>(static_cast<int>(stripes[j]) ^ 0x55);
  }
  expect_tiers_match_reference(prev, stripes);
}

TEST(SimdKernelTest, SizeKernelExactAtTheRawThreshold) {
  // One changed run of `len` bytes costs kDeltaPageHeader +
  // kDeltaRunHeader + len: 4079 bytes is one byte under the raw page,
  // 4080 reaches it and ships raw.
  Rng rng(0x51D0'0004);
  const kern::PageBytes prev = random_page(rng);
  auto flip = [&](std::size_t from, std::size_t len) {
    kern::PageBytes cur = prev;
    for (std::size_t j = from; j < from + len; ++j) {
      cur[j] = static_cast<std::byte>(static_cast<int>(cur[j]) ^ 0xFF);
    }
    return cur;
  };
  const std::size_t framing = criu::kDeltaPageHeader + criu::kDeltaRunHeader;
  EXPECT_EQ(expect_tiers_match_reference(prev,
                                         flip(8, kPageSize - framing - 1)),
            kPageSize - 1);
  EXPECT_EQ(expect_tiers_match_reference(prev, flip(8, kPageSize - framing)),
            kPageSize);
  // The first run alone passes the raw size; the run after it is never
  // reached by the size kernel's early exit, and changes nothing.
  kern::PageBytes early = flip(0, kPageSize - 11);
  early[kPageSize - 2] =
      static_cast<std::byte>(static_cast<int>(early[kPageSize - 2]) ^ 0x1);
  EXPECT_EQ(expect_tiers_match_reference(prev, early), kPageSize);
}

TEST(SimdKernelTest, EncoderTiersMatchOnRandomMutationFuzz) {
  Rng rng(0x51D0'0003);
  for (int iter = 0; iter < 150; ++iter) {
    kern::PageBytes prev = random_page(rng);
    kern::PageBytes cur = prev;
    const int nmut = static_cast<int>(rng.uniform(0, 50));
    for (int m = 0; m < nmut; ++m) {
      auto pos = static_cast<std::size_t>(rng.uniform(0, kPageSize - 1));
      auto len = static_cast<std::size_t>(rng.uniform(1, 90));
      for (std::size_t j = pos; j < std::min(pos + len, kPageSize); ++j) {
        cur[j] = static_cast<std::byte>(rng.next() & 0xff);
      }
    }
    expect_tiers_match_reference(prev, cur);
  }
}

// ------------------------------------- size kernel at its default tier ----

void expect_same_delta(const kern::PageBytes& prev,
                       const kern::PageBytes& cur) {
  criu::PageDelta ref = criu::delta_encode(&prev, cur);
  const std::uint32_t size = criu::delta_wire_size(&prev, cur);
  EXPECT_EQ(size, ref.wire_size);
  EXPECT_EQ(size == kPageSize, ref.raw);
  // And the codec round-trips: apply(prev, encode(prev, cur)) == cur.
  kern::PageBytes back = criu::delta_apply(&prev, ref, &cur);
  EXPECT_EQ(back, cur);
}

TEST(DeltaKernelTest, FastMatchesReferenceOnRandomMutations) {
  Rng rng(0xD157'0001);
  for (int iter = 0; iter < 200; ++iter) {
    kern::PageBytes prev = random_page(rng);
    kern::PageBytes cur = prev;
    int nmut = static_cast<int>(rng.uniform(0, 40));
    for (int m = 0; m < nmut; ++m) {
      auto pos = static_cast<std::size_t>(rng.uniform(0, kPageSize - 1));
      auto len = static_cast<std::size_t>(rng.uniform(1, 64));
      for (std::size_t j = pos; j < std::min(pos + len, kPageSize); ++j) {
        cur[j] = static_cast<std::byte>(rng.next() & 0xff);
      }
    }
    expect_same_delta(prev, cur);
  }
}

TEST(DeltaKernelTest, FastMatchesReferenceOnEdgeCases) {
  Rng rng(0xD157'0002);
  kern::PageBytes prev = random_page(rng);
  // Identical pages: zero runs either way.
  expect_same_delta(prev, prev);
  // Fully different: raw fallback.
  kern::PageBytes inv = prev;
  for (auto& b : inv) b = static_cast<std::byte>(~static_cast<int>(b));
  expect_same_delta(prev, inv);
  // Single-byte diffs at word boundaries and page edges.
  for (std::size_t pos : {0ul, 1ul, 7ul, 8ul, 9ul, 63ul, 64ul, 2048ul,
                          kPageSize - 9, kPageSize - 8, kPageSize - 1}) {
    kern::PageBytes cur = prev;
    cur[pos] = static_cast<std::byte>(static_cast<int>(cur[pos]) ^ 0x1);
    expect_same_delta(prev, cur);
  }
  // Diff pairs separated by every gap width around the run-merge threshold
  // (kDeltaRunHeader): exercises the absorb-vs-new-run decision exactly.
  for (std::size_t gap = 1; gap <= criu::kDeltaRunHeader + 3; ++gap) {
    for (std::size_t base : {100ul, 1000ul, kPageSize - 32}) {
      kern::PageBytes cur = prev;
      cur[base] = static_cast<std::byte>(static_cast<int>(cur[base]) ^ 0xFF);
      cur[base + gap + 1] =
          static_cast<std::byte>(static_cast<int>(cur[base + gap + 1]) ^ 0xFF);
      expect_same_delta(prev, cur);
    }
  }
}

TEST(DeltaKernelTest, NoReferenceIsRawInBothKernels) {
  Rng rng(0xD157'0003);
  kern::PageBytes cur = random_page(rng);
  criu::PageDelta ref = criu::delta_encode(nullptr, cur);
  EXPECT_TRUE(ref.raw);
  EXPECT_EQ(criu::delta_wire_size(nullptr, cur), kPageSize);
  EXPECT_EQ(ref.wire_size, kPageSize);
}

// The codec short-circuits a page whose record still carries the exact
// reference handle (identity implies byte equality under COW freezing).
// The stamped wire size must be what the reference kernel computes by
// scanning the identical bytes.
TEST(DeltaKernelTest, IdentityShortCircuitMatchesReferenceCodec) {
  Rng rng(0xD157'0004);
  auto payload = util::arena_make_shared<kern::PageBytes>(random_page(rng));
  const criu::PageDelta ref = criu::delta_encode(payload.get(), *payload);
  ASSERT_FALSE(ref.raw);
  ASSERT_EQ(ref.wire_size, criu::kDeltaPageHeader);

  auto make_image = [&](std::uint64_t epoch) {
    criu::CheckpointImage img;
    img.epoch = epoch;
    criu::PageRecord rec;
    rec.page = 7;
    rec.content = payload;
    img.pages.push_back(rec);
    return img;
  };

  criu::DeltaCodec codec;
  criu::CheckpointImage e0 = make_image(0);
  criu::EpochDeltaStats first = codec.encode_epoch(e0);
  EXPECT_EQ(first.raw_pages, 1u);
  EXPECT_EQ(first.identity_pages, 0u);

  // The second epoch ships the same handle: the identity path.
  criu::CheckpointImage e1 = make_image(1);
  criu::EpochDeltaStats st = codec.encode_epoch(e1);
  EXPECT_EQ(st.identity_pages, 1u);
  EXPECT_EQ(st.delta_pages, 1u);
  EXPECT_EQ(st.raw_pages, 0u);
  EXPECT_EQ(st.wire_bytes, ref.wire_size);
  EXPECT_EQ(e1.pages[0].wire_size, ref.wire_size);
}

// --------------------------------------------- pipeline tier determinism ----

/// A frozen container with seeded content — identical for every tier.
struct PipelineRig {
  sim::Simulation sim;
  blk::Disk disk;
  kern::Kernel kernel;
  net::Network net;
  net::TcpStack tcp;
  kern::ContainerId cid;
  kern::Process* proc;
  kern::Vma vma;
  criu::CheckpointEngine engine;

  explicit PipelineRig(std::uint64_t npages)
      : kernel(sim, nullptr, "simd", disk), net(sim),
        tcp(sim, nullptr, net, net.add_host("h", nullptr)),
        cid(kernel.create_container("simd").id()),
        proc(&kernel.create_process(cid, "app")),
        vma(proc->mm().map(npages, kern::VmaKind::kAnon)),
        engine(kernel, tcp) {
    Rng rng(0x5EED'51D0);
    std::vector<std::byte> cell(kPageSize);
    for (std::uint64_t p = 0; p < npages; ++p) {
      for (auto& b : cell) b = static_cast<std::byte>(rng.next() & 0xff);
      proc->mm().write(vma.start + p, 0, cell);
    }
    proc->mm().clear_soft_dirty();
    proc->mm().touch_range(vma.start, npages);
    kernel.freeze_container(cid);
  }

  void mutate(std::uint64_t epoch) {
    Rng rng(0xF00D ^ epoch);
    std::vector<std::byte> val(300);
    for (auto& b : val) b = static_cast<std::byte>(rng.next() & 0xff);
    for (std::uint64_t p = 0; p < vma.npages; p += 3) {
      auto off = static_cast<std::uint64_t>(rng.uniform(0, kPageSize - 300));
      proc->mm().write(vma.start + p, off, val);
    }
    proc->mm().touch_range(vma.start, vma.npages);
  }
};

struct PipelineTrace {
  std::vector<std::byte> wire;
  std::vector<std::uint64_t> stats;
  std::uint64_t visits = 0;
  std::vector<std::uint64_t> restore;
  std::vector<std::byte> restore_bytes;
};

PipelineTrace run_pipeline(util::SimdTier tier, int epochs) {
  constexpr std::uint64_t kPages = 500;
  PipelineRig rig(kPages);
  criu::DeltaCodec codec(tier);
  criu::RadixPageStore store;
  // Re-encodes every page with the reference kernel and checks the
  // stamped wire size and the round trip.
  check::DeltaReplayChecker oracle;
  PipelineTrace tr;

  for (int e = 0; e < epochs; ++e) {
    if (e > 0) rig.mutate(static_cast<std::uint64_t>(e));
    criu::HarvestOptions ho;
    ho.incremental = true;
    criu::HarvestResult hr = rig.engine.harvest(
        rig.cid, static_cast<std::uint64_t>(e), nullptr, ho);
    criu::EpochDeltaStats ds = codec.encode_epoch(hr.image);
    oracle.replay(hr.image, /*delta_enabled=*/true);
    tr.stats.insert(tr.stats.end(),
                    {ds.content_pages, ds.delta_pages, ds.identity_pages,
                     ds.raw_pages, ds.raw_bytes, ds.wire_bytes});
    std::vector<std::byte> bytes = serialize_image(hr.image);
    tr.wire.insert(tr.wire.end(), bytes.begin(), bytes.end());
    store.begin_checkpoint(static_cast<std::uint64_t>(e));
    tr.visits += store.store_batch(hr.image.pages);
  }

  for (const criu::PageRecord* r : store.all_pages()) {
    tr.restore.insert(tr.restore.end(),
                      {r->page, r->version,
                       static_cast<std::uint64_t>(r->wire_size)});
    if (r->has_content()) {
      tr.restore_bytes.insert(tr.restore_bytes.end(), r->content->begin(),
                              r->content->end());
    }
  }
  return tr;
}

TEST(SimdPipelineTest, ObservablesIdenticalAcrossTiers) {
  // The scalar tier is the baseline; run_pipeline checks every tier
  // against the reference kernel as well.
  PipelineTrace ref = run_pipeline(util::SimdTier::kScalar, 4);
  for (util::SimdTier tier : runnable_tiers()) {
    if (tier == util::SimdTier::kScalar) continue;
    PipelineTrace tr = run_pipeline(tier, 4);
    const char* tn = util::simd_tier_name(tier);
    EXPECT_EQ(tr.wire, ref.wire) << tn;
    EXPECT_EQ(tr.stats, ref.stats) << tn;
    EXPECT_EQ(tr.visits, ref.visits) << tn;
    EXPECT_EQ(tr.restore, ref.restore) << tn;
    EXPECT_EQ(tr.restore_bytes, ref.restore_bytes) << tn;
  }
}

TEST(SimdPipelineTest, FullSimMetricsIdenticalAcrossTiers) {
  // End-to-end: a whole NiLiCon run (epochs, output commit, delta wire
  // accounting) must not depend on the scan-kernel tier. The primary's
  // codec takes its tier from NLC_SIMD, which is read anew at each
  // codec's construction, so each run sets it and the test restores it.
  const char* saved = std::getenv("NLC_SIMD");
  const std::optional<std::string> before =
      saved == nullptr ? std::nullopt : std::optional<std::string>(saved);
  auto run = [](util::SimdTier tier) {
    ::setenv("NLC_SIMD", util::simd_tier_name(tier), 1);
    harness::RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.spec.kv_pages = 256;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.warmup = nlc::milliseconds(200);
    cfg.measure = nlc::seconds(2);
    cfg.nilicon.delta_compress_pages = true;
    return harness::run_experiment(cfg);
  };
  harness::RunResult a = run(util::SimdTier::kScalar);
  EXPECT_EQ(a.metrics.simd_tier_used, util::SimdTier::kScalar);
  for (util::SimdTier tier : runnable_tiers()) {
    if (tier == util::SimdTier::kScalar) continue;
    harness::RunResult b = run(tier);
    const char* tn = util::simd_tier_name(tier);
    EXPECT_EQ(b.metrics.simd_tier_used, tier) << tn;
    EXPECT_EQ(a.sim_events, b.sim_events) << tn;
    EXPECT_EQ(a.requests_completed, b.requests_completed) << tn;
    EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed) << tn;
    EXPECT_EQ(a.metrics.bytes_shipped, b.metrics.bytes_shipped) << tn;
    EXPECT_DOUBLE_EQ(a.metrics.stop_time_ms.mean(),
                     b.metrics.stop_time_ms.mean());
    EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps) << tn;
  }
  if (before.has_value()) {
    ::setenv("NLC_SIMD", before->c_str(), 1);
  } else {
    ::unsetenv("NLC_SIMD");
  }
}

// ------------------------------------------------------------- the arena ----

TEST(ArenaTest, ServesPayloadsAndCountsThem) {
  const util::ArenaStats before = util::arena_stats();
  std::vector<kern::PagePayload> payloads;
  constexpr int kN = 64;
  payloads.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    payloads.push_back(util::arena_make_shared<kern::PageBytes>(
        kPageSize, static_cast<std::byte>(i)));
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ((*payloads[static_cast<std::size_t>(i)])[0],
              static_cast<std::byte>(i));
  }
  const util::ArenaStats after = util::arena_stats();
  // Each payload needs two arena blocks (control block + 4 KiB buffer) and
  // both size classes are arena-served, so none of these allocations may
  // have routed to the operator-new fallback. (arena_allocs only counts
  // central refills, so with warm thread caches it can legitimately stay
  // flat — the fallback counter is the deterministic observable.)
  EXPECT_EQ(after.fallback_allocs, before.fallback_allocs);
  EXPECT_GT(after.slab_bytes, 0u);
  EXPECT_GT(after.slabs, 0u);
  EXPECT_GT(after.arena_allocs, 0u);
}

TEST(ArenaTest, OversizedRequestsFallBackToHeap) {
  const util::ArenaStats before = util::arena_stats();
  using Big = std::vector<std::byte, util::ArenaAllocator<std::byte>>;
  Big big(util::kArenaMaxBlock * 2);  // beyond the largest size class
  big[big.size() - 1] = std::byte{0x5A};
  const util::ArenaStats after = util::arena_stats();
  EXPECT_GE(after.fallback_allocs, before.fallback_allocs + 1);
}

TEST(ArenaTest, BlocksFlowAcrossThreads) {
  // Allocate on a worker thread, free on this one (and vice versa), many
  // times: the freed blocks join the freeing thread's cache and get reused.
  // Run under tsan/asan this doubles as the arena's race/leak check.
  for (int round = 0; round < 4; ++round) {
    std::vector<kern::PagePayload> from_worker =
        // NLC_LINT_OK(concurrency-owner): cross-thread arena free, on purpose
        std::async(std::launch::async, [] {
          std::vector<kern::PagePayload> out;
          for (int i = 0; i < 128; ++i) {
            out.push_back(util::arena_make_shared<kern::PageBytes>(
                kPageSize, static_cast<std::byte>(i)));
          }
          return out;
        }).get();
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ((*from_worker[static_cast<std::size_t>(i)])[kPageSize - 1],
                static_cast<std::byte>(i));
    }
    std::vector<kern::PagePayload> local;
    for (int i = 0; i < 128; ++i) {
      local.push_back(
          util::arena_make_shared<kern::PageBytes>(kPageSize, std::byte{7}));
    }
    // NLC_LINT_OK(concurrency-owner): cross-thread arena free, on purpose
    std::async(std::launch::async, [&from_worker, &local] {
      from_worker.clear();  // free worker-allocated blocks here
      local.clear();        // free main-allocated blocks here
    }).get();
  }
  SUCCEED();
}

}  // namespace
}  // namespace nlc
