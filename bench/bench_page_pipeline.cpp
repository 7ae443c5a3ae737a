// Wall-clock microbenchmark of the zero-copy checkpoint page pipeline
// (extension; see DESIGN.md §7).
//
// Measures real ns/page (wall clock, not simulated time) for one epoch of
// harvest -> ship -> commit over N content pages, twice:
//  * zero-copy: the engine as built — payload handles flow from the address
//    space through the image into the radix store; commit is a refcount
//    bump per page.
//  * deep-copy baseline: emulates the pre-zero-copy pipeline by cloning
//    every payload at the harvest-staging step and again at store-commit
//    (the two 4 KiB copies per page the handle pipeline removed).
//
// A second, partially-overwritten epoch then runs through the delta codec
// to report encode ns/page and the achieved compression ratio.
//
// A third section sweeps the sharded intra-epoch pipeline (DESIGN.md §10):
// harvest fill -> delta encode -> radix fold, at 1/2/4/8 shards over
// several page counts. The serial configuration runs the reference
// byte-at-a-time engine; sharded configurations run the word-scanning
// kernels plus the worker-pool fan-out, and the sweep checks that wire
// bytes, visit counts and stats stay byte-identical across shard counts.
//
// Results are printed and written to BENCH_page_pipeline.json and
// BENCH_page_shard.json in the working directory (consumed by the
// nlc_bench_smoke ctest targets).
//
// Modes: default ~20K pages; --smoke 2K (CI); --full / NLC_BENCH_FULL=1
// the acceptance-scale 100K.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "blockdev/disk.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"
#include "util/time.hpp"
#include "util/worker_pool.hpp"

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

  criu::HarvestResult harvest(std::uint64_t epoch, int shards = 1,
                              util::WorkerPool* pool = nullptr) {
    criu::HarvestOptions ho;
    ho.incremental = true;
    ho.shards = shards;
    ho.pool = pool;
    auto hr = engine.harvest(cid, epoch, nullptr, ho);
    // harvest clears soft-dirty; re-dirty for the next repetition.
    proc->mm().touch_range(vma.start, vma.npages);
    return hr;
  }
};

/// harvest -> ship (stage the message) -> commit into a fresh radix store.
/// `deep_copy` clones every payload at the staging and commit steps.
double run_pipeline_ns_per_page(World& w, std::uint64_t epoch,
                                bool deep_copy) {
  criu::RadixPageStore store;
  const std::uint64_t t0 = util::wall_now_ns();

  criu::HarvestResult hr = w.harvest(epoch);
  if (deep_copy) {
    // Staging copy: the legacy pipeline memcpy'd parasite pages into the
    // staging buffer records.
    for (criu::PageRecord& rec : hr.image.pages) {
      if (rec.has_content()) {
        rec.content = util::arena_make_shared<kern::PageBytes>(*rec.content);
      }
    }
  }

  store.begin_checkpoint(epoch);
  std::uint64_t visits = 0;
  for (const criu::PageRecord& rec : hr.image.pages) {
    if (deep_copy && rec.has_content()) {
      // Commit copy: the legacy store duplicated the bytes again.
      criu::PageRecord copy = rec;
      copy.content = util::arena_make_shared<kern::PageBytes>(*rec.content);
      visits += store.store(copy);
    } else {
      visits += store.store(rec);
    }
  }

  const std::uint64_t t1 = util::wall_now_ns();
  NLC_CHECK(store.page_count() == hr.image.pages.size());
  return ns_between(t0, t1) /
         static_cast<double>(hr.image.pages.size() > 0
                                 ? hr.image.pages.size()
                                 : 1);
}

/// One sharded-pipeline configuration: best-of ns/page over `reps` epochs
/// of harvest -> encode -> fold, plus the determinism fingerprint (wire
/// bytes / visits / content pages summed over the measured epochs).
struct ShardResult {
  double ns_per_page = 1e18;
  std::uint64_t wire_bytes = 0;
  std::uint64_t visits = 0;
  std::uint64_t content_pages = 0;
};

ShardResult run_shard_config(std::uint64_t npages, int nshards, int reps) {
  World w(npages);
  std::unique_ptr<util::WorkerPool> pool;
  if (nshards > 1) pool = std::make_unique<util::WorkerPool>(nshards - 1);
  criu::DeltaCodec codec(nshards);
  criu::RadixPageStore store(nshards);
  std::uint64_t epoch = 1;

  // Reference epoch: every page ships raw, the codec and store warm up.
  {
    criu::HarvestResult hr = w.harvest(epoch++, nshards, pool.get());
    codec.encode_epoch(hr.image, pool.get());
    store.begin_checkpoint(hr.image.epoch);
    store.store_batch(hr.image.pages, pool.get());
  }

  ShardResult res;
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
    criu::HarvestResult hr = w.harvest(epoch, nshards, pool.get());
    criu::EpochDeltaStats ds = codec.encode_epoch(hr.image, pool.get());
    store.begin_checkpoint(epoch);
    std::uint64_t visits = store.store_batch(hr.image.pages, pool.get());
    const std::uint64_t t1 = util::wall_now_ns();
    ++epoch;
    res.ns_per_page = std::min(
        res.ns_per_page, ns_between(t0, t1) / static_cast<double>(npages));
    res.wire_bytes += ds.wire_bytes;
    res.visits += visits;
    res.content_pages += ds.content_pages;
  }
  NLC_CHECK(store.page_count() == npages);
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
  (void)run_pipeline_ns_per_page(w, epoch++, /*deep_copy=*/false);

  double zero_ns = 1e18;
  double deep_ns = 1e18;
  for (int r = 0; r < reps; ++r) {
    deep_ns = std::min(deep_ns,
                       run_pipeline_ns_per_page(w, epoch++, true));
    zero_ns = std::min(zero_ns,
                       run_pipeline_ns_per_page(w, epoch++, false));
  }
  double speedup = deep_ns / zero_ns;
  std::printf("%-38s | %10.1f ns/page\n", "deep-copy baseline (2 copies/page)",
              deep_ns);
  std::printf("%-38s | %10.1f ns/page\n", "zero-copy handle pipeline",
              zero_ns);
  std::printf("%-38s | %10.2fx\n\n", "speedup", speedup);

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

  std::FILE* f = std::fopen("BENCH_page_pipeline.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"pages_per_epoch\": %llu,\n"
                 "  \"ns_per_page_deep_copy\": %.1f,\n"
                 "  \"ns_per_page_zero_copy\": %.1f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"delta_encode_ns_per_page\": %.1f,\n"
                 "  \"compression_ratio\": %.4f\n"
                 "}\n",
                 static_cast<unsigned long long>(npages), deep_ns, zero_ns,
                 speedup, delta_ns, ds.ratio());
    std::fclose(f);
    std::printf("\nwrote BENCH_page_pipeline.json\n");
  }

  // ---- Sharded intra-epoch pipeline sweep (DESIGN.md §10) -----------------
  header("Sharded page pipeline: harvest -> encode -> fold",
         "serial reference engine vs sharded engine");
  std::printf("scan-kernel tier (sharded engine): %s\n\n",
              util::simd_tier_name(util::env_simd_tier()));
  std::vector<std::uint64_t> page_counts;
  if (smoke) {
    page_counts = {1'000};
  } else if (full) {
    page_counts = {1'000, 10'000, 100'000};
  } else {
    page_counts = {1'000, 10'000};
  }
  const int shard_counts[] = {1, 2, 4, 8};
  double sweep_speedup = 0;  // 8-shard speedup at the largest page count
  std::FILE* sf = std::fopen("BENCH_page_shard.json", "w");
  if (sf != nullptr) {
    std::fprintf(sf, "{\n  \"mode\": \"%s\",\n  \"configs\": [\n",
                 smoke ? "smoke" : (full ? "full" : "default"));
  }
  bool first_cfg = true;
  for (std::uint64_t pages : page_counts) {
    ShardResult serial;
    for (int nshards : shard_counts) {
      ShardResult r = run_shard_config(pages, nshards, reps);
      if (nshards == 1) {
        serial = r;
      } else {
        // The determinism contract: shipped bytes, stats and visit counts
        // must not depend on the shard count.
        NLC_CHECK_MSG(r.wire_bytes == serial.wire_bytes,
                      "sharded wire bytes diverge from serial");
        NLC_CHECK_MSG(r.visits == serial.visits,
                      "sharded visit counts diverge from serial");
        NLC_CHECK_MSG(r.content_pages == serial.content_pages,
                      "sharded page counts diverge from serial");
      }
      double sp = serial.ns_per_page / r.ns_per_page;
      if (nshards == 8 && pages == page_counts.back()) sweep_speedup = sp;
      std::printf("%8llu pages | %d shards | %10.1f ns/page | %6.2fx\n",
                  static_cast<unsigned long long>(pages), nshards,
                  r.ns_per_page, sp);
      if (sf != nullptr) {
        std::fprintf(sf,
                     "%s{\"pages\": %llu, \"shards\": %d, "
                     "\"ns_per_page\": %.1f, \"speedup\": %.2f, "
                     "\"wire_bytes\": %llu, \"visits\": %llu}",
                     first_cfg ? "    " : ",\n    ",
                     static_cast<unsigned long long>(pages), nshards,
                     r.ns_per_page, sp,
                     static_cast<unsigned long long>(r.wire_bytes),
                     static_cast<unsigned long long>(r.visits));
        first_cfg = false;
      }
    }
  }
  if (sf != nullptr) {
    std::fprintf(sf,
                 "\n  ],\n  \"speedup_8_shards_largest\": %.2f\n}\n",
                 sweep_speedup);
    std::fclose(sf);
    std::printf("\nwrote BENCH_page_shard.json\n");
  }

  // Sanity for the smoke ctest target: the handle pipeline must beat the
  // copying one, and the delta stage must actually compress.
  NLC_CHECK_MSG(zero_ns < deep_ns, "zero-copy slower than deep copy");
  NLC_CHECK_MSG(ds.ratio() < 1.0, "delta stage failed to compress");
  // The sharded engine must clearly beat the serial reference engine even
  // at smoke scale; the acceptance (--full, 100K pages) target is >= 6x
  // (arena payloads + SIMD scan kernels + prefetched walks, DESIGN.md §12).
  NLC_CHECK_MSG(sweep_speedup >= (full ? 6.0 : 1.2),
                "sharded pipeline speedup below gate");
  return 0;
}
