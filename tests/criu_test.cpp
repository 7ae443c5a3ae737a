#include <gtest/gtest.h>

#include <cstring>

#include "blockdev/disk.hpp"
#include "criu/checkpoint.hpp"
#include "criu/costs.hpp"
#include "criu/image.hpp"
#include "criu/pagestore.hpp"
#include "criu/restore.hpp"
#include "net/network.hpp"
#include "util/arena.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"

namespace nlc::criu {
namespace {

using namespace nlc::literals;
using sim::task;

constexpr net::IpAddr kClientIp = 0x0A000001;
constexpr net::IpAddr kServiceIp = 0x0A0000FE;

// ------------------------------------------------------------ PageStore ----

PageRecord rec(kern::PageNum p, std::uint64_t v = 1) {
  PageRecord r;
  r.page = p;
  r.version = v;
  return r;
}

template <typename Store>
class PageStoreTypedTest : public ::testing::Test {
 protected:
  Store store_;
};

using StoreTypes = ::testing::Types<ListPageStore, RadixPageStore>;
TYPED_TEST_SUITE(PageStoreTypedTest, StoreTypes);

TYPED_TEST(PageStoreTypedTest, StoreAndLookup) {
  this->store_.begin_checkpoint(1);
  this->store_.store(rec(100, 7));
  const PageRecord* r = this->store_.lookup(100);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->version, 7u);
  EXPECT_EQ(this->store_.lookup(101), nullptr);
  EXPECT_EQ(this->store_.page_count(), 1u);
}

TYPED_TEST(PageStoreTypedTest, LaterCheckpointOverwrites) {
  this->store_.begin_checkpoint(1);
  this->store_.store(rec(100, 1));
  this->store_.begin_checkpoint(2);
  this->store_.store(rec(100, 2));
  EXPECT_EQ(this->store_.lookup(100)->version, 2u);
  EXPECT_EQ(this->store_.page_count(), 1u);
}

TYPED_TEST(PageStoreTypedTest, AllPagesReturnsLatestVersions) {
  this->store_.begin_checkpoint(1);
  this->store_.store(rec(1, 1));
  this->store_.store(rec(2, 1));
  this->store_.begin_checkpoint(2);
  this->store_.store(rec(2, 2));
  auto all = this->store_.all_pages();
  EXPECT_EQ(all.size(), 2u);
  for (const PageRecord* r : all) {
    if (r->page == 2) {
      EXPECT_EQ(r->version, 2u);
    }
  }
}

// Restore and the store-equivalence audits walk all_pages(); its order must
// be a function of the committed pages alone — globally ascending by page
// number for both stores — never of hash-bucket layout or insertion order.
// Regression: ListPageStore used to leak per-directory hash order here.
TYPED_TEST(PageStoreTypedTest, AllPagesIsAscendingByPageNumber) {
  // Scattered, insertion-order-hostile page numbers across 4 checkpoints.
  for (std::uint64_t ck = 0; ck < 4; ++ck) {
    this->store_.begin_checkpoint(ck + 1);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const kern::PageNum p = (ck * 64 + i) * 2654435761ull % 100003ull;
      this->store_.store(rec(p, ck + 1));
    }
  }
  auto all = this->store_.all_pages();
  ASSERT_EQ(all.size(), this->store_.page_count());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->page, all[i]->page) << "at index " << i;
  }
}

// The two Table I ablation stores must expose identical page walks for the
// same committed state, so restore and the equivalence mirror cannot tell
// them apart.
TEST(PageStoreTest, ListAndRadixAgreeOnAllPagesOrder) {
  ListPageStore list;
  RadixPageStore radix;
  for (std::uint64_t ck = 0; ck < 3; ++ck) {
    list.begin_checkpoint(ck + 1);
    radix.begin_checkpoint(ck + 1);
    for (std::uint64_t i = 0; i < 100; ++i) {
      PageRecord r = rec((ck * 100 + i) * 7919ull % 4096ull, ck + 1);
      list.store(r);
      radix.store(r);
    }
  }
  auto lp = list.all_pages();
  auto rp = radix.all_pages();
  ASSERT_EQ(lp.size(), rp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    EXPECT_EQ(lp[i]->page, rp[i]->page) << "at index " << i;
    EXPECT_EQ(lp[i]->version, rp[i]->version) << "at index " << i;
  }
}

TYPED_TEST(PageStoreTypedTest, ContentPreserved) {
  this->store_.begin_checkpoint(1);
  PageRecord r = rec(5);
  r.content = util::arena_make_shared<kern::PageBytes>(kPageSize, std::byte{0x7F});
  this->store_.store(r);
  const PageRecord* back = this->store_.lookup(5);
  ASSERT_TRUE(back->has_content());
  EXPECT_EQ((*back->content)[0], std::byte{0x7F});
  // Zero-copy: the store holds a handle to the same buffer, not a copy.
  EXPECT_EQ(back->content.get(), r.content.get());
}

TYPED_TEST(PageStoreTypedTest, SparsePageNumbers) {
  this->store_.begin_checkpoint(1);
  // Page numbers spanning several radix levels.
  for (kern::PageNum p : {0ull, 511ull, 512ull, (1ull << 18) + 3,
                          (1ull << 27) + 9, (1ull << 33) + 1}) {
    this->store_.store(rec(p, p + 1));
  }
  EXPECT_EQ(this->store_.page_count(), 6u);
  EXPECT_EQ(this->store_.lookup((1ull << 27) + 9)->version, (1ull << 27) + 10);
}

TEST(ListPageStoreTest, CostGrowsWithCheckpointCount) {
  ListPageStore store;
  std::uint64_t visits_at_1 = 0, visits_at_100 = 0;
  store.begin_checkpoint(0);
  visits_at_1 = store.store(rec(42));
  for (int e = 1; e <= 99; ++e) {
    store.begin_checkpoint(e);
    store.store(rec(1000 + e));
  }
  store.begin_checkpoint(100);
  visits_at_100 = store.store(rec(42));
  EXPECT_EQ(visits_at_1, 1u);
  EXPECT_EQ(visits_at_100, 101u);  // walks all prior directories (§V-A)
}

TEST(ListPageStoreTest, HotPageCostIsConstantAfterEarlyExit) {
  // A page stored every checkpoint lives in exactly one (the previous)
  // directory, so the backward walk stops after one hop: 1 visit to find
  // and drop the old copy + 1 to insert = 2, independent of history.
  // Cold pages (CostGrowsWithCheckpointCount) still pay the full walk, so
  // the §V-A O(#checkpoints) behaviour the radix store fixes is intact.
  ListPageStore store;
  store.begin_checkpoint(0);
  EXPECT_EQ(store.store(rec(42)), 1u);
  for (int e = 1; e <= 50; ++e) {
    store.begin_checkpoint(e);
    store.store(rec(1000 + e));   // unrelated churn
    EXPECT_EQ(store.store(rec(42, e)), 2u);
  }
  EXPECT_EQ(store.page_count(), 51u);
  EXPECT_EQ(store.lookup(42)->version, 50u);
}

TEST(RadixPageStoreTest, CostIsConstant) {
  RadixPageStore store;
  store.begin_checkpoint(0);
  EXPECT_EQ(store.store(rec(42)), RadixPageStore::kLevels);
  for (int e = 1; e <= 99; ++e) {
    store.begin_checkpoint(e);
    store.store(rec(1000 + e));
  }
  store.begin_checkpoint(100);
  EXPECT_EQ(store.store(rec(42)), RadixPageStore::kLevels);
}

TEST(ListPageStoreTest, OldCopyRemovedOnRestore) {
  ListPageStore store;
  store.begin_checkpoint(0);
  PageRecord r = rec(7, 1);
  store.store(r);
  store.begin_checkpoint(1);
  store.store(rec(7, 2));
  // Exactly one copy across all directories.
  EXPECT_EQ(store.page_count(), 1u);
  EXPECT_EQ(store.all_pages().size(), 1u);
}

// ------------------------------------------------- Checkpoint & Restore ----

struct CriuRig {
  sim::Simulation s;
  sim::DomainPtr primary_dom = std::make_shared<sim::Domain>("primary");
  sim::DomainPtr backup_dom = std::make_shared<sim::Domain>("backup");
  sim::DomainPtr client_dom = std::make_shared<sim::Domain>("client");
  blk::Disk primary_disk, backup_disk;
  net::Network net{s};
  net::HostId client_host = net.add_host("client", client_dom.get());
  net::HostId primary_host = net.add_host("primary", primary_dom.get());
  net::HostId backup_host = net.add_host("backup", backup_dom.get());
  net::TcpStack client_tcp{s, client_dom, net, client_host};
  net::TcpStack primary_tcp{s, primary_dom, net, primary_host};
  net::TcpStack backup_tcp{s, backup_dom, net, backup_host};
  kern::Kernel primary{s, primary_dom, "primary", primary_disk};
  kern::Kernel backup{s, backup_dom, "backup", backup_disk};
  CheckpointEngine ckpt{primary, primary_tcp};
  RestoreEngine rest{backup, backup_tcp};

  CriuRig() {
    net.add_link(client_host, primary_host, net::kGigabit, 100_us);
    net.add_link(client_host, backup_host, net::kGigabit, 100_us);
    net.add_link(primary_host, backup_host, net::kTenGigabit, 20_us);
    client_tcp.add_address(kClientIp);
    primary_tcp.add_address(kServiceIp);
  }
  ~CriuRig() { s.shutdown(); }

  kern::Container& make_container() {
    kern::Container& c = primary.create_container("web");
    c.set_service_ip(kServiceIp);
    return c;
  }
};

TEST(CheckpointTest, RequiresFrozenContainer) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  EXPECT_THROW(r.ckpt.harvest(c.id(), 0, nullptr, {}), InvariantError);
}

TEST(CheckpointTest, FullImageContainsEverything) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  auto anon = p.mm().map(100, kern::VmaKind::kAnon);
  auto lib = r.primary.mmap_file(p.pid(), 50, "/lib/libc.so");
  // Resident pages only: a full dump skips holes (never-touched pages),
  // exactly like CRIU. Touch part of each mapping.
  p.mm().touch_range(anon.start, 80);
  p.mm().touch_range(lib.start, 50);
  r.primary.freeze_container(c.id());

  HarvestOptions opts;
  opts.incremental = false;
  auto res = r.ckpt.harvest(c.id(), 0, nullptr, opts);
  EXPECT_TRUE(res.image.full);
  EXPECT_EQ(res.image.processes.size(), 1u);
  EXPECT_EQ(res.image.pages.size(), 130u);  // resident, not mapped (150)
  EXPECT_EQ(res.image.infrequent->namespaces.size(), 7u);
  EXPECT_EQ(res.image.infrequent->mmap_files.size(), 1u);
  EXPECT_GT(res.image.byte_size(), 130u * kPageSize);
  EXPECT_GT(res.cost.total(), 0);
}

TEST(CheckpointTest, IncrementalCapturesOnlyDirtyPages) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  auto vma = p.mm().map(100, kern::VmaKind::kAnon);
  p.mm().clear_soft_dirty();
  p.mm().touch_range(vma.start, 10);

  r.primary.freeze_container(c.id());
  auto res = r.ckpt.harvest(c.id(), 1, nullptr, {});
  EXPECT_EQ(res.image.pages.size(), 10u);
  // Harvest cleared soft-dirty: a second harvest sees nothing.
  auto res2 = r.ckpt.harvest(c.id(), 2, nullptr, {});
  EXPECT_EQ(res2.image.pages.size(), 0u);
}

TEST(CheckpointTest, CachedInfrequentStateSkipsExpensiveHarvest) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  r.primary.freeze_container(c.id());

  InfrequentSnapshot cached = r.ckpt.harvest_infrequent(c.id());
  auto with_cache = r.ckpt.harvest(c.id(), 1, cached, {});
  auto without = r.ckpt.harvest(c.id(), 2, nullptr, {});
  EXPECT_LT(with_cache.cost.infrequent, 100_us);
  EXPECT_GT(without.cost.infrequent, 100_ms);  // ~160ms (§V-B)
}

TEST(CheckpointTest, CachedHarvestSharesTheCacheSnapshot) {
  // A version-current cache is replayed by pointer: the image holds the
  // cache's own snapshot, not a copy of it, and ships the same bytes as a
  // fresh harvest of the same state.
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  r.primary.freeze_container(c.id());

  const InfrequentSnapshot cached = r.ckpt.harvest_infrequent(c.id());
  const long owners = cached.use_count();
  auto hit = r.ckpt.harvest(c.id(), 1, cached, {});
  EXPECT_EQ(hit.image.infrequent.get(), cached.get());
  EXPECT_EQ(cached.use_count(), owners + 1);
  auto fresh = r.ckpt.harvest(c.id(), 2, nullptr, {});
  EXPECT_NE(fresh.image.infrequent.get(), cached.get());
  EXPECT_EQ(fresh.image.infrequent->mmap_files, cached->mmap_files);
  EXPECT_EQ(fresh.image.infrequent->byte_size(), cached->byte_size());
}

TEST(CheckpointTest, StaleCacheIsNotUsed) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  InfrequentSnapshot cached = r.ckpt.harvest_infrequent(c.id());
  const std::size_t cached_mounts = cached->mounts.size();
  // Mutation invalidates: mount something new.
  r.primary.do_mount(c.id(), {"tmpfs", "/x", "tmpfs", 0});
  r.primary.freeze_container(c.id());
  auto res = r.ckpt.harvest(c.id(), 1, cached, {});
  EXPECT_GT(res.cost.infrequent, 100_ms);  // fell back to full harvest
  // A fresh snapshot with the new mount; the stale one is left as it was.
  EXPECT_NE(res.image.infrequent.get(), cached.get());
  ASSERT_EQ(res.image.infrequent->mounts.size(), cached_mounts + 1);
  EXPECT_EQ(res.image.infrequent->mounts.back().target, "/x");
  EXPECT_EQ(cached->mounts.size(), cached_mounts);
}

TEST(CheckpointTest, VmaCostSmapsVsNetlink) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  for (int i = 0; i < 70; ++i) p.mm().map(2, kern::VmaKind::kAnon);
  r.primary.freeze_container(c.id());

  HarvestOptions smaps;
  smaps.vma_via_netlink = false;
  HarvestOptions netlink;
  auto slow = r.ckpt.harvest(c.id(), 1, nullptr, smaps);
  auto fast = r.ckpt.harvest(c.id(), 2, nullptr, netlink);
  EXPECT_GT(slow.cost.vmas, 3_ms);   // 70 VMAs x ~50us
  EXPECT_LT(fast.cost.vmas, 500_us);
}

TEST(CheckpointTest, PipeVsSharedMemoryPageCost) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  auto vma = p.mm().map(400, kern::VmaKind::kAnon);
  p.mm().clear_soft_dirty();

  HarvestOptions pipe_opts;
  pipe_opts.pages_via_shared_memory = false;
  p.mm().touch_range(vma.start, 300);
  r.primary.freeze_container(c.id());
  auto pipe_res = r.ckpt.harvest(c.id(), 1, nullptr, pipe_opts);
  r.primary.thaw_container(c.id());

  p.mm().touch_range(vma.start, 300);
  r.primary.freeze_container(c.id());
  auto shm_res = r.ckpt.harvest(c.id(), 2, nullptr, {});
  EXPECT_GT(pipe_res.cost.page_copy, shm_res.cost.page_copy);
  // 300 pages x 6us pipe overhead = 1.8ms difference (Table I last row).
  EXPECT_NEAR(to_millis(pipe_res.cost.page_copy - shm_res.cost.page_copy),
              1.8, 0.2);
}

TEST(CheckpointTest, SocketStateCaptured) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  r.primary_tcp.listen({kServiceIp, 80});

  net::SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](CriuRig& rr, net::SocketId& ss) -> task<> {
    ss = co_await rr.primary_tcp.accept({kServiceIp, 80});
  }(r, server_sock));
  r.s.spawn(r.client_dom.get(), [](CriuRig& rr) -> task<> {
    auto cs = co_await rr.client_tcp.connect(kClientIp, {kServiceIp, 80});
    rr.client_tcp.send(cs, 64, 9);
  }(r));
  r.s.run();
  p.install_fd(kern::FdEntry{.kind = kern::FdKind::kSocket,
                             .socket = server_sock});

  r.primary.freeze_container(c.id());
  auto res = r.ckpt.harvest(c.id(), 1, nullptr, {});
  ASSERT_EQ(res.image.sockets.size(), 1u);
  EXPECT_EQ(res.image.sockets[0].repair.read_queue.size(), 1u);
  ASSERT_EQ(res.image.listeners.size(), 1u);
  EXPECT_EQ(res.image.listeners[0].local.port, 80);
  EXPECT_GT(res.cost.sockets, 1_ms);
}

TEST(CheckpointTest, FsCacheDeltaHarvested) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  auto ino = r.primary.fs().create("/data");
  std::vector<std::byte> data(100, std::byte{1});
  r.primary.fs().write(ino, 0, data, 1);

  r.primary.freeze_container(c.id());
  auto res = r.ckpt.harvest(c.id(), 1, nullptr, {});
  EXPECT_EQ(res.image.fs_cache.pages.size(), 1u);
  EXPECT_GE(res.image.fs_cache.inodes.size(), 1u);
  // DNC cleared by the harvest.
  auto res2 = r.ckpt.harvest(c.id(), 2, nullptr, {});
  EXPECT_TRUE(res2.image.fs_cache.pages.empty());
}

TEST(CheckpointTest, NasFlushAblationCostsMore) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  auto ino = r.primary.fs().create("/data");
  for (int i = 0; i < 100; ++i) {
    std::vector<std::byte> data(kPageSize, std::byte{1});
    r.primary.fs().write(ino, static_cast<std::uint64_t>(i) * kPageSize,
                         data, 1);
  }
  r.primary.freeze_container(c.id());
  HarvestOptions nas;
  nas.fs_cache_via_dnc = false;
  auto nas_res = r.ckpt.harvest(c.id(), 1, nullptr, nas);
  EXPECT_GT(nas_res.cost.fs_cache, 40_ms);  // "hundreds of ms" territory
}

// Full checkpoint -> restore round trip with memory content, fds, sockets.
TEST(RestoreTest, FullRoundTripPreservesState) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  r.primary.create_thread(p.pid());
  auto vma = p.mm().map(50, kern::VmaKind::kAnon);
  p.mm().touch_range(vma.start, 50);  // make every page resident
  const char msg[] = "precious bytes";
  std::vector<std::byte> data(sizeof msg - 1);
  std::memcpy(data.data(), msg, data.size());
  p.mm().write(vma.start + 3, 40, data);
  p.sigmask = 0xDEAD;
  p.threads()[0].regs.gpr[0] = 0x1234;
  auto file_ino = r.primary.fs().create("/cfg");
  p.install_fd(kern::FdEntry{.kind = kern::FdKind::kFile,
                             .inode = file_ino});

  r.primary.freeze_container(c.id());
  HarvestOptions opts;
  opts.incremental = false;
  auto res = r.ckpt.harvest(c.id(), 0, nullptr, opts);

  // Materialize through a page store like the backup agent would.
  RadixPageStore store;
  store.begin_checkpoint(0);
  for (const auto& pg : res.image.pages) store.store(pg);

  RestoreTimeline tl;
  r.s.spawn(r.backup_dom.get(), [](CriuRig& rr, const HarvestResult& hr,
                             RadixPageStore& st, RestoreTimeline& out)
                -> task<> {
    out = co_await rr.rest.restore(hr.image, st.all_pages(), {}, true);
  }(r, res, store, tl));
  r.s.run();

  kern::Process* bp = r.backup.process(p.pid());
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->sigmask, 0xDEADu);
  EXPECT_EQ(bp->threads().size(), 2u);
  EXPECT_EQ(bp->threads()[0].regs.gpr[0], 0x1234u);
  EXPECT_EQ(bp->mm().mapped_pages(), 50u);
  auto back = bp->mm().read(vma.start + 3, 40, data.size());
  EXPECT_EQ(back, data);
  EXPECT_NE(bp->fd(3), nullptr);
  EXPECT_EQ(tl.pages_restored, 50u);
  EXPECT_GT(tl.total(), 100_ms);  // restore is expensive (Table II)
  EXPECT_GT(tl.sockets_done, tl.namespaces_done);
}

// Zero-copy pipeline aliasing: harvest hands out shared payload handles,
// so a post-thaw write must copy-on-write rather than mutate the bytes the
// in-flight image / committed store / restored container already captured.
TEST(RestoreTest, PostThawWritesDoNotAliasShippedImage) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  auto vma = p.mm().map(4, kern::VmaKind::kAnon);
  std::vector<std::byte> v1(kPageSize, std::byte{0x11});
  p.mm().write(vma.start, 0, v1);

  r.primary.freeze_container(c.id());
  HarvestOptions opts;
  opts.incremental = false;
  auto res = r.ckpt.harvest(c.id(), 0, nullptr, opts);
  RadixPageStore store;
  store.begin_checkpoint(0);
  for (const auto& pg : res.image.pages) store.store(pg);
  r.primary.thaw_container(c.id());

  // The container keeps running and overwrites the page.
  std::vector<std::byte> v2(kPageSize, std::byte{0x22});
  p.mm().write(vma.start, 0, v2);
  EXPECT_GE(p.mm().cow_clones(), 1u);

  // Neither the staged image nor the committed store saw the new bytes.
  ASSERT_TRUE(res.image.pages[0].has_content());
  EXPECT_EQ((*res.image.pages[0].content)[0], std::byte{0x11});
  const PageRecord* committed = store.lookup(vma.start);
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ((*committed->content)[0], std::byte{0x11});

  // Restore from the store: the backup materializes the checkpointed bytes.
  r.s.spawn(r.backup_dom.get(), [](CriuRig& rr, const HarvestResult& hr,
                             RadixPageStore& st) -> task<> {
    (void)co_await rr.rest.restore(hr.image, st.all_pages(), {}, true);
  }(r, res, store));
  r.s.run();
  kern::Process* bp = r.backup.process(p.pid());
  ASSERT_NE(bp, nullptr);
  auto restored = bp->mm().read(vma.start, 0, 4);
  EXPECT_EQ(restored[0], std::byte{0x11});

  // And writes in the restored container clone too: the store's committed
  // copy (shared with the restored address space) stays frozen.
  std::vector<std::byte> v3(kPageSize, std::byte{0x33});
  bp->mm().write(vma.start, 0, v3);
  EXPECT_EQ((*store.lookup(vma.start)->content)[0], std::byte{0x11});
}

TEST(RestoreTest, TimelineStagesAreOrdered) {
  CriuRig r;
  kern::Container& c = r.make_container();
  kern::Process& p = r.primary.create_process(c.id(), "srv");
  p.mm().map(10, kern::VmaKind::kAnon);
  r.primary.freeze_container(c.id());
  HarvestOptions opts;
  opts.incremental = false;
  auto res = r.ckpt.harvest(c.id(), 0, nullptr, opts);
  RadixPageStore store;
  store.begin_checkpoint(0);
  for (const auto& pg : res.image.pages) store.store(pg);

  RestoreTimeline tl;
  r.s.spawn(r.backup_dom.get(), [](CriuRig& rr, const HarvestResult& hr,
                             RadixPageStore& st, RestoreTimeline& out)
                -> task<> {
    out = co_await rr.rest.restore(hr.image, st.all_pages(), {}, true);
  }(r, res, store, tl));
  r.s.run();
  EXPECT_LT(tl.started, tl.namespaces_done);
  EXPECT_LE(tl.namespaces_done, tl.processes_done);
  EXPECT_LE(tl.processes_done, tl.sockets_done);
  EXPECT_LE(tl.sockets_done, tl.memory_done);
  EXPECT_LE(tl.memory_done, tl.finished);
}

TEST(RestoreTest, FsCacheApplied) {
  CriuRig r;
  kern::Container& c = r.make_container();
  r.primary.create_process(c.id(), "srv");
  auto ino = r.primary.fs().create("/db");
  const char msg[] = "fscache";
  std::vector<std::byte> data(sizeof msg - 1);
  std::memcpy(data.data(), msg, data.size());
  r.primary.fs().write(ino, 0, data, 1);

  r.primary.freeze_container(c.id());
  HarvestOptions opts;
  opts.incremental = false;
  auto res = r.ckpt.harvest(c.id(), 0, nullptr, opts);

  RestoreTimeline tl;
  r.s.spawn(r.backup_dom.get(), [](CriuRig& rr, const HarvestResult& hr,
                             RestoreTimeline& out) -> task<> {
    out = co_await rr.rest.restore(hr.image, {}, hr.image.fs_cache, true);
  }(r, res, tl));
  r.s.run();
  auto back = r.backup.fs().read(ino, 0, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace nlc::criu
