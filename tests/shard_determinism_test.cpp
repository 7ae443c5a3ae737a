// Determinism contract of the sharded intra-epoch page pipeline
// (DESIGN.md §10): for ANY NLC_SHARDS value, the engine must produce
// byte-identical wire bytes, delta stats, visit counts and restore images,
// and every stamped wire size must match the byte-at-a-time reference
// kernel. Also unit-tests the shared util::WorkerPool (the fan-out
// primitive), pins the rule that a stage fans out only from
// criu::kFanOutMinPages pages up, and property-tests the word-scanning
// delta kernel against the reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <stdexcept>
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
#include "util/worker_pool.hpp"

namespace nlc {
namespace {

// ----------------------------------------------------------- WorkerPool ----

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  util::WorkerPool pool(3);
  constexpr std::size_t kN = 1000;
  // NLC_LINT_OK(concurrency-owner): exercises WorkerPool cross-thread
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPoolTest, ZeroHelpersRunsInline) {
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.helpers(), 0);
  std::vector<int> hits(64, 0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, LowestIndexExceptionWins) {
  util::WorkerPool pool(3);
  try {
    pool.run(32, [](std::size_t i) {
      if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(WorkerPoolTest, NestedRunExecutesInline) {
  // "Outermost fan-out wins": a run() issued from inside a running task of
  // the same pool must not deadlock or oversubscribe — it executes inline.
  util::WorkerPool pool(2);
  // NLC_LINT_OK(concurrency-owner): exercises nested-pool concurrency
  std::atomic<int> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkerPoolTest, ConcurrentCallersBothComplete) {
  // Two external threads racing for the same pool: one wins the dispatch,
  // the other falls back to its own inline loop. Both must finish with
  // exact coverage.
  util::WorkerPool pool(2);
  auto batch = [&pool]() {
    // NLC_LINT_OK(concurrency-owner): exercises concurrent pool use
    std::vector<std::atomic<int>> hits(256);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    int total = 0;
    for (auto& h : hits) total += h.load();
    return total;
  };
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f1 = std::async(std::launch::async, batch);
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f2 = std::async(std::launch::async, batch);
  EXPECT_EQ(f1.get(), 256);
  EXPECT_EQ(f2.get(), 256);
}

// --------------------------------------------------------- delta kernels ----

kern::PageBytes random_page(Rng& rng) {
  kern::PageBytes p(kPageSize);
  for (auto& b : p) b = static_cast<std::byte>(rng.next() & 0xff);
  return p;
}

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
// reference handle (identity implies byte equality under COW freezing), at
// every shard count. The stamped wire size must be what the reference
// kernel computes by scanning the identical bytes.
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

  for (int nshards : {1, 2}) {
    criu::DeltaCodec codec(nshards);
    criu::CheckpointImage e0 = make_image(0);
    criu::EpochDeltaStats first = codec.encode_epoch(e0);
    EXPECT_EQ(first.raw_pages, 1u) << nshards << " shards";
    EXPECT_EQ(first.identity_pages, 0u) << nshards << " shards";

    // The second epoch ships the same handle: the identity path.
    criu::CheckpointImage e1 = make_image(1);
    criu::EpochDeltaStats st = codec.encode_epoch(e1);
    EXPECT_EQ(st.identity_pages, 1u) << nshards << " shards";
    EXPECT_EQ(st.delta_pages, 1u) << nshards << " shards";
    EXPECT_EQ(st.raw_pages, 0u) << nshards << " shards";
    EXPECT_EQ(st.wire_bytes, ref.wire_size) << nshards << " shards";
    EXPECT_EQ(e1.pages[0].wire_size, ref.wire_size) << nshards << " shards";
  }
}

// ---------------------------------------------- end-to-end shard contract ----

/// A container with `npages` of content, every page dirty, frozen — the
/// same input for every shard configuration. `touched_pages` maps a second
/// VMA whose pages are touched every epoch but never written: they lift an
/// epoch past criu::kFanOutMinPages at the memory cost of page records,
/// not of page bytes.
struct PipelineRig {
  sim::Simulation sim;
  blk::Disk disk;
  kern::Kernel kernel;
  net::Network net;
  net::TcpStack tcp;
  kern::ContainerId cid;
  kern::Process* proc;
  kern::Vma vma;
  kern::Vma touched;
  criu::CheckpointEngine engine;

  explicit PipelineRig(std::uint64_t npages, std::uint64_t touched_pages = 0)
      : kernel(sim, nullptr, "shard", disk), net(sim),
        tcp(sim, nullptr, net, net.add_host("h", nullptr)),
        cid(kernel.create_container("shard").id()),
        proc(&kernel.create_process(cid, "app")),
        vma(proc->mm().map(npages, kern::VmaKind::kAnon)),
        engine(kernel, tcp) {
    if (touched_pages > 0) {
      touched = proc->mm().map(touched_pages, kern::VmaKind::kAnon);
    }
    Rng rng(0x5EED);
    std::vector<std::byte> cell(kPageSize);
    for (std::uint64_t p = 0; p < npages; ++p) {
      for (auto& b : cell) b = static_cast<std::byte>(rng.next() & 0xff);
      proc->mm().write(vma.start + p, 0, cell);
    }
    proc->mm().clear_soft_dirty();
    touch_all();
    kernel.freeze_container(cid);
  }

  void touch_all() {
    proc->mm().touch_range(vma.start, vma.npages);
    proc->mm().touch_range(touched.start, touched.npages);
  }

  /// Deterministic per-epoch mutation: overwrite a seeded-random slice of
  /// a seeded-random subset of pages (identical for every rig instance).
  void mutate(std::uint64_t epoch) {
    Rng rng(0xABCD ^ epoch);
    std::vector<std::byte> val(256);
    for (auto& b : val) b = static_cast<std::byte>(rng.next() & 0xff);
    for (std::uint64_t p = 0; p < vma.npages; p += 3) {
      auto off = static_cast<std::uint64_t>(rng.uniform(0, kPageSize - 256));
      proc->mm().write(vma.start + p, off, val);
    }
    touch_all();
  }
};

/// Everything the contract says must not depend on the shard count. Each
/// epoch is also replayed through check::DeltaReplayChecker, which
/// re-encodes every page with the reference kernel and checks the stamped
/// wire size and the round trip.
struct PipelineTrace {
  std::vector<std::byte> wire;            // concatenated serialized epochs
  std::vector<std::uint64_t> stats;       // per-epoch EpochDeltaStats fields
  std::uint64_t visits = 0;               // page-store visit total
  std::vector<std::uint64_t> restore;     // flattened all_pages() records
  std::vector<std::byte> restore_bytes;   // their payload bytes
};

PipelineTrace run_pipeline(int nshards, int epochs) {
  // 700 pages carry the bytes; the touched-only VMA makes every epoch
  // large enough that, with more than one shard, each stage runs on the
  // pool's helpers and not inline.
  constexpr std::uint64_t kPages = 700;
  PipelineRig rig(kPages, criu::kFanOutMinPages);
  std::unique_ptr<util::WorkerPool> pool;
  if (nshards > 1) pool = std::make_unique<util::WorkerPool>(nshards - 1);
  criu::DeltaCodec codec(nshards);
  criu::RadixPageStore store(nshards);
  check::DeltaReplayChecker oracle;
  PipelineTrace tr;

  for (int e = 0; e < epochs; ++e) {
    if (e > 0) rig.mutate(static_cast<std::uint64_t>(e));
    criu::HarvestOptions ho;
    ho.incremental = true;
    ho.shards = nshards;
    ho.pool = pool.get();
    criu::HarvestResult hr =
        rig.engine.harvest(rig.cid, static_cast<std::uint64_t>(e), nullptr,
                           ho);
    criu::EpochDeltaStats ds = codec.encode_epoch(hr.image, pool.get());
    oracle.replay(hr.image, /*delta_enabled=*/true);
    tr.stats.insert(tr.stats.end(),
                    {ds.content_pages, ds.delta_pages, ds.identity_pages,
                     ds.raw_pages, ds.raw_bytes, ds.wire_bytes});
    std::vector<std::byte> bytes = serialize_image(hr.image);
    tr.wire.insert(tr.wire.end(), bytes.begin(), bytes.end());
    store.begin_checkpoint(static_cast<std::uint64_t>(e));
    tr.visits += store.store_batch(hr.image.pages, pool.get());
  }
  if (pool != nullptr) {
    // Fill, encode and fold each fan out once per epoch.
    EXPECT_EQ(pool->fan_outs(), 3u * static_cast<std::uint64_t>(epochs))
        << nshards << " shards";
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

TEST(ShardDeterminismTest, WireBytesStatsAndRestoreIdenticalAcrossShards) {
  PipelineTrace one = run_pipeline(1, 4);
  for (int nshards : {2, 3, 8}) {
    PipelineTrace sharded = run_pipeline(nshards, 4);
    EXPECT_EQ(sharded.wire, one.wire) << nshards << " shards";
    EXPECT_EQ(sharded.stats, one.stats) << nshards << " shards";
    EXPECT_EQ(sharded.visits, one.visits) << nshards << " shards";
    EXPECT_EQ(sharded.restore, one.restore) << nshards << " shards";
    EXPECT_EQ(sharded.restore_bytes, one.restore_bytes)
        << nshards << " shards";
  }
}

// The fan-out rule (criu::fan_out_pool): harvest fill, delta encode and
// radix fold each hand a batch to the pool only from kFanOutMinPages pages
// up. One page below the gate, all three run inline.
TEST(FanOutGateTest, EachStageFansOutFromTheGate) {
  util::WorkerPool pool(3);
  for (std::size_t pages :
       {criu::kFanOutMinPages - 1, criu::kFanOutMinPages}) {
    const std::uint64_t per_stage = pages >= criu::kFanOutMinPages ? 1 : 0;
    PipelineRig rig(1, pages - 1);  // one content page + touched-only pages
    criu::DeltaCodec codec(4);
    criu::RadixPageStore store(4);
    criu::HarvestOptions ho;
    ho.incremental = true;
    ho.shards = 4;
    ho.pool = &pool;

    std::uint64_t before = pool.fan_outs();
    criu::HarvestResult hr = rig.engine.harvest(rig.cid, 1, nullptr, ho);
    ASSERT_EQ(hr.image.pages.size(), pages);
    EXPECT_EQ(pool.fan_outs() - before, per_stage) << "fill, " << pages;

    before = pool.fan_outs();
    codec.encode_epoch(hr.image, &pool);
    EXPECT_EQ(pool.fan_outs() - before, per_stage) << "encode, " << pages;

    before = pool.fan_outs();
    store.store_batch(hr.image.pages, &pool);
    EXPECT_EQ(pool.fan_outs() - before, per_stage) << "fold, " << pages;
  }
}

TEST(ShardDeterminismTest, ShardedSerializedImageDeserializes) {
  constexpr std::uint64_t kPages = 300;
  PipelineRig rig(kPages);
  util::WorkerPool pool(3);
  criu::HarvestOptions ho;
  ho.incremental = true;
  ho.shards = 4;
  ho.pool = &pool;
  criu::HarvestResult hr = rig.engine.harvest(rig.cid, 1, nullptr, ho);
  std::vector<std::byte> bytes = serialize_image(hr.image);
  criu::CheckpointImage back = criu::deserialize_image(bytes);
  ASSERT_EQ(back.pages.size(), hr.image.pages.size());
  for (std::size_t i = 0; i < back.pages.size(); ++i) {
    EXPECT_EQ(back.pages[i].page, hr.image.pages[i].page);
    ASSERT_TRUE(back.pages[i].has_content());
    EXPECT_EQ(*back.pages[i].content, *hr.image.pages[i].content);
  }
}

TEST(ShardDeterminismTest, FullSimMetricsIdenticalAcrossShardCounts) {
  auto run = [](int shards) {
    harness::RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.spec.kv_pages = 256;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.warmup = nlc::milliseconds(200);
    cfg.measure = nlc::seconds(2);
    cfg.nilicon.delta_compress_pages = true;
    cfg.nilicon.page_shards = shards;
    return harness::run_experiment(cfg);
  };
  harness::RunResult a = run(1);
  harness::RunResult b = run(8);
  EXPECT_EQ(b.metrics.page_shards_used, 8);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed);
  EXPECT_EQ(a.metrics.bytes_shipped, b.metrics.bytes_shipped);
  EXPECT_DOUBLE_EQ(a.metrics.stop_time_ms.mean(),
                   b.metrics.stop_time_ms.mean());
  EXPECT_DOUBLE_EQ(a.metrics.state_bytes.mean(), b.metrics.state_bytes.mean());
  ASSERT_EQ(a.metrics.compression_ratio.count(),
            b.metrics.compression_ratio.count());
  if (!a.metrics.compression_ratio.empty()) {
    EXPECT_DOUBLE_EQ(a.metrics.compression_ratio.mean(),
                     b.metrics.compression_ratio.mean());
  }
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
}

}  // namespace
}  // namespace nlc
