// Wall-clock microbenchmark of the zero-copy checkpoint page pipeline
// (extension; see DESIGN.md §7).
//
// Measures real ns/page (wall clock, not simulated time) for one epoch of
// harvest -> ship -> commit over N content pages: payload handles flow
// from the address space through the image into the radix store, so
// commit is a refcount bump per page. That the store holds the very
// buffer the address space held, and that a later write clones it, is
// checked deterministically by PageStoreTypedTest.ContentPreserved and
// RestoreTest.PostThawWritesDoNotAliasShippedImage.
//
// A second, partially-overwritten epoch then runs through the delta codec
// to report encode ns/page and the achieved compression ratio.
//
// A third section times the page pipeline (DESIGN.md §10) — harvest fill
// -> delta encode -> radix fold, on the calling thread — at 1K and 16,384
// pages per epoch (plus 100K under --full). Each row checks that the
// codec resolves every unchanged page by handle identity, that every
// stamped wire size is the byte-at-a-time reference kernel's
// (check::DeltaReplayChecker, outside the timed region) and adds up to
// the epoch's wire bytes, and that the visit and content-page totals are
// the ones the row's records determine.
//
// After the rows, the largest row's store is walked
// (all_pages(), what failover restore does) and copied (clone(), what
// re-silvering a surviving replica does), with ns/page for each; the
// walk must be ascending and complete and the copy must walk the same
// records.
//
// Results are printed and written to BENCH_page_pipeline.json in the
// working directory. The smoke run (the nlc_bench_smoke ctest targets)
// gates only deterministic properties, never a wall-clock ratio.
//
// Modes: default ~20K pages; --smoke 2K (CI); --full / NLC_BENCH_FULL=1
// the acceptance-scale 100K.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "blockdev/disk.hpp"
#include "check/invariants.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/simd.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

double ns_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns);
}

/// One self-contained world: a frozen container with `npages` of real
/// content, every page dirty, ready to harvest.
struct World {
  sim::Simulation sim;
  blk::Disk disk;
  kern::Kernel kernel;
  net::Network net;
  net::TcpStack tcp;
  kern::ContainerId cid;
  kern::Process* proc;
  kern::Vma vma;
  criu::CheckpointEngine engine;

  explicit World(std::uint64_t npages)
      : kernel(sim, nullptr, "bench", disk), net(sim),
        tcp(sim, nullptr, net, net.add_host("h", nullptr)),
        cid(kernel.create_container("bench").id()),
        proc(&kernel.create_process(cid, "app")),
        vma(proc->mm().map(npages, kern::VmaKind::kAnon)),
        engine(kernel, tcp) {
    std::vector<std::byte> cell(nlc::kPageSize);
    for (std::uint64_t p = 0; p < npages; ++p) {
      std::memset(cell.data(), static_cast<int>(p & 0xff), cell.size());
      proc->mm().write(vma.start + p, 0, cell);
    }
    proc->mm().clear_soft_dirty();
    proc->mm().touch_range(vma.start, npages);  // all dirty, content intact
    kernel.freeze_container(cid);
  }

  criu::HarvestResult harvest(std::uint64_t epoch) {
    criu::HarvestOptions ho;
    ho.incremental = true;
    auto hr = engine.harvest(cid, epoch, nullptr, ho);
    // harvest clears soft-dirty; re-dirty for the next repetition.
    proc->mm().touch_range(vma.start, vma.npages);
    return hr;
  }
};

/// harvest -> ship (stage the message) -> commit into a fresh radix store.
double run_pipeline_ns_per_page(World& w, std::uint64_t epoch) {
  criu::RadixPageStore store;
  const std::uint64_t t0 = util::wall_now_ns();

  criu::HarvestResult hr = w.harvest(epoch);
  store.begin_checkpoint(epoch);
  for (const criu::PageRecord& rec : hr.image.pages) store.store(rec);

  const std::uint64_t t1 = util::wall_now_ns();
  NLC_CHECK(store.page_count() == hr.image.pages.size());
  return ns_between(t0, t1) /
         static_cast<double>(hr.image.pages.size() > 0
                                 ? hr.image.pages.size()
                                 : 1);
}

/// One pipeline row: best-of ns/page over `reps` epochs of harvest ->
/// encode -> fold, plus the totals its gates check (wire bytes, visits,
/// content and identity pages summed over the measured epochs).
struct RowResult {
  double ns_per_page = 1e18;
  std::uint64_t wire_bytes = 0;
  std::uint64_t visits = 0;
  std::uint64_t content_pages = 0;
  std::uint64_t identity_pages = 0;
};

/// Runs one row; its final store is handed to `keep` if given. Every
/// epoch is replayed through the reference kernel after it is timed.
RowResult run_row(std::uint64_t npages, int reps,
                  std::unique_ptr<criu::RadixPageStore>* keep = nullptr) {
  World w(npages);
  criu::DeltaCodec codec;
  check::DeltaReplayChecker oracle;
  auto owned = std::make_unique<criu::RadixPageStore>();
  criu::RadixPageStore& store = *owned;
  std::uint64_t epoch = 1;

  // Reference epoch: every page ships raw, the codec and store warm up.
  {
    criu::HarvestResult hr = w.harvest(epoch++);
    codec.encode_epoch(hr.image);
    oracle.replay(hr.image, /*delta_enabled=*/true);
    store.begin_checkpoint(hr.image.epoch);
    store.store_batch(hr.image.pages);
  }

  RowResult res;
  std::vector<std::byte> val(900);
  for (int r = 0; r < reps; ++r) {
    // Every page is dirty (touch_range) but only every 5th changed: the
    // encoder mostly skips equal bytes — the page-pipeline common case —
    // with a real 900-byte run to emit on the changed pages. Alternating
    // the fill keeps every rep's delta work identical.
    std::memset(val.data(), r % 2 == 0 ? 0x5a : 0xa5, val.size());
    for (std::uint64_t p = 0; p < npages; p += 5) {
      w.proc->mm().write(w.vma.start + p, 512, val);
    }
    const std::uint64_t t0 = util::wall_now_ns();
    criu::HarvestResult hr = w.harvest(epoch);
    criu::EpochDeltaStats ds = codec.encode_epoch(hr.image);
    store.begin_checkpoint(epoch);
    std::uint64_t visits = store.store_batch(hr.image.pages);
    const std::uint64_t t1 = util::wall_now_ns();
    ++epoch;
    // The wire-byte gate: each stamped size is the reference kernel's,
    // and the stamps add up to the epoch's wire bytes.
    oracle.replay(hr.image, /*delta_enabled=*/true);
    std::uint64_t stamped = 0;
    for (const criu::PageRecord& rec : hr.image.pages) {
      stamped += rec.wire_size;
    }
    NLC_CHECK_MSG(stamped == ds.wire_bytes,
                  "stamped wire sizes disagree with the epoch's wire bytes");
    res.ns_per_page = std::min(
        res.ns_per_page, ns_between(t0, t1) / static_cast<double>(npages));
    res.wire_bytes += ds.wire_bytes;
    res.visits += visits;
    res.content_pages += ds.content_pages;
    res.identity_pages += ds.identity_pages;
  }
  NLC_CHECK(store.page_count() == npages);
  if (keep != nullptr) *keep = std::move(owned);
  return res;
}

/// Restore's walk and the re-silver's copy over a folded store: best-of
/// ns/page for each, after checking that the walk is ascending and
/// complete and that the copy walks the same records.
struct WalkCopyResult {
  double walk_ns_per_page = 1e18;
  double copy_ns_per_page = 1e18;
};

WalkCopyResult run_walk_and_copy(const criu::RadixPageStore& store,
                                 int reps) {
  const std::vector<const criu::PageRecord*> walk = store.all_pages();
  NLC_CHECK_MSG(walk.size() == store.page_count(),
                "all_pages() length differs from page_count()");
  for (std::size_t i = 1; i < walk.size(); ++i) {
    NLC_CHECK_MSG(walk[i - 1]->page < walk[i]->page,
                  "all_pages() is not ascending");
  }
  {
    const std::unique_ptr<criu::PageStore> copy = store.clone();
    const std::vector<const criu::PageRecord*> again = copy->all_pages();
    NLC_CHECK_MSG(again.size() == walk.size(), "copy lost or gained pages");
    for (std::size_t i = 0; i < walk.size(); ++i) {
      NLC_CHECK_MSG(again[i]->page == walk[i]->page &&
                        again[i]->version == walk[i]->version &&
                        again[i]->wire_size == walk[i]->wire_size &&
                        again[i]->content == walk[i]->content,
                    "copy diverged from its source");
    }
  }
  const double pages =
      static_cast<double>(walk.empty() ? 1 : walk.size());
  WalkCopyResult res;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = util::wall_now_ns();
    const std::vector<const criu::PageRecord*> timed = store.all_pages();
    const std::uint64_t t1 = util::wall_now_ns();
    NLC_CHECK(timed.size() == walk.size());
    res.walk_ns_per_page =
        std::min(res.walk_ns_per_page, ns_between(t0, t1) / pages);
    const std::uint64_t t2 = util::wall_now_ns();
    const std::unique_ptr<criu::PageStore> copy = store.clone();
    const std::uint64_t t3 = util::wall_now_ns();
    NLC_CHECK(copy->page_count() == store.page_count());
    res.copy_ns_per_page =
        std::min(res.copy_ns_per_page, ns_between(t2, t3) / pages);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;

  const auto [smoke, full] = parse_size_flags(argc, argv);
  const std::uint64_t npages = smoke ? 2'000 : (full ? 100'000 : 20'000);
  const int reps = smoke ? 2 : 3;

  header("Zero-copy page pipeline: wall-clock ns/page",
         "extension beyond the paper");
  std::printf("pages/epoch: %llu, reps: %d (best-of)\n\n",
              static_cast<unsigned long long>(npages), reps);

  World w(npages);
  std::uint64_t epoch = 1;

  // Warm-up epoch: populate allocator caches and the dirty machinery.
  (void)run_pipeline_ns_per_page(w, epoch++);

  double zero_ns = 1e18;
  for (int r = 0; r < reps; ++r) {
    zero_ns = std::min(zero_ns, run_pipeline_ns_per_page(w, epoch++));
  }
  std::printf("%-38s | %10.1f ns/page\n\n", "zero-copy handle pipeline",
              zero_ns);

  // ---- Delta codec: encode cost + ratio on a partially-changed epoch ------
  // Overwrite ~900 bytes of every 5th page (a KV-style update pattern),
  // then encode against the previously shipped versions.
  criu::DeltaCodec codec;
  {
    criu::HarvestResult base = w.harvest(epoch++);
    codec.encode_epoch(base.image);  // first epoch: all raw, sets references
  }
  std::vector<std::byte> val(900, std::byte{0x5a});
  w.proc->mm().clear_soft_dirty();
  for (std::uint64_t p = 0; p < npages; p += 5) {
    w.proc->mm().write(w.vma.start + p, 512, val);
  }
  criu::HarvestResult delta_hr = w.harvest(epoch++);
  const std::uint64_t d0 = util::wall_now_ns();
  criu::EpochDeltaStats ds = codec.encode_epoch(delta_hr.image);
  const std::uint64_t d1 = util::wall_now_ns();
  double delta_ns =
      ns_between(d0, d1) /
      static_cast<double>(ds.content_pages > 0 ? ds.content_pages : 1);
  std::printf("%-38s | %10.1f ns/page\n", "delta encode", delta_ns);
  std::printf("%-38s | %10.3f (wire/raw, %llu pages)\n", "compression ratio",
              ds.ratio(), static_cast<unsigned long long>(ds.content_pages));

  // ---- Page pipeline rows (DESIGN.md §10) ---------------------------------
  header("Page pipeline: harvest -> encode -> fold",
         "extension — one loop per stage, on the calling thread");
  std::printf("scan-kernel tier: %s\n\n",
              util::simd_tier_name(util::env_simd_tier()));
  std::vector<std::uint64_t> page_counts;
  if (smoke) {
    page_counts = {1'000};
  } else if (full) {
    page_counts = {1'000, 16'384, 100'000};
  } else {
    page_counts = {1'000, 16'384};
  }
  std::string rows_json;
  // The store of the last row, the largest.
  std::unique_ptr<criu::RadixPageStore> largest;
  for (std::uint64_t pages : page_counts) {
    const auto epochs = static_cast<std::uint64_t>(reps);
    // run_row rewrites every 5th page; the other four of every five keep
    // the handle the codec shipped last epoch.
    const std::uint64_t unchanged = (pages - (pages + 4) / 5) * epochs;
    RowResult r = run_row(pages, reps, &largest);
    NLC_CHECK_MSG(r.identity_pages == unchanged,
                  "codec missed the identity path on unchanged pages");
    // Every page of the row is a content page, and the store charges
    // each record its kLevels visits.
    NLC_CHECK_MSG(r.content_pages == pages * epochs,
                  "the codec saw a different number of content pages");
    NLC_CHECK_MSG(r.visits == criu::RadixPageStore::kLevels * pages * epochs,
                  "the fold's visit total differs from kLevels per record");
    std::printf("%8llu pages | %10.1f ns/page\n",
                static_cast<unsigned long long>(pages), r.ns_per_page);
    char row[256];
    std::snprintf(row, sizeof row,
                  "%s{\"pages\": %llu, \"ns_per_page\": %.1f, "
                  "\"wire_bytes\": %llu, \"visits\": %llu, "
                  "\"identity_pages\": %llu}",
                  rows_json.empty() ? "    " : ",\n    ",
                  static_cast<unsigned long long>(pages), r.ns_per_page,
                  static_cast<unsigned long long>(r.wire_bytes),
                  static_cast<unsigned long long>(r.visits),
                  static_cast<unsigned long long>(r.identity_pages));
    rows_json += row;
  }

  // ---- Restore walk and re-silver copy of the largest store ---------------
  const WalkCopyResult wc = run_walk_and_copy(*largest, reps);
  std::printf("\n%-38s | %10.1f ns/page (%llu pages)\n",
              "store walk (all_pages)", wc.walk_ns_per_page,
              static_cast<unsigned long long>(largest->page_count()));
  std::printf("%-38s | %10.1f ns/page\n", "store copy (re-silver)",
              wc.copy_ns_per_page);

  std::FILE* f = std::fopen("BENCH_page_pipeline.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"pages_per_epoch\": %llu,\n"
                 "  \"ns_per_page_zero_copy\": %.1f,\n"
                 "  \"delta_encode_ns_per_page\": %.1f,\n"
                 "  \"compression_ratio\": %.4f,\n"
                 "  \"pipeline_rows\": [\n%s\n  ],\n"
                 "  \"store_walk_ns_per_page\": %.1f,\n"
                 "  \"store_copy_ns_per_page\": %.1f\n"
                 "}\n",
                 static_cast<unsigned long long>(npages), zero_ns, delta_ns,
                 ds.ratio(), rows_json.c_str(), wc.walk_ns_per_page,
                 wc.copy_ns_per_page);
    std::fclose(f);
    std::printf("\nwrote BENCH_page_pipeline.json\n");
  }

  // The smoke ctest target's other gate: the delta stage must compress.
  NLC_CHECK_MSG(ds.ratio() < 1.0, "delta stage failed to compress");
  return 0;
}
