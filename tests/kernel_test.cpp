#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "kernel/address_space.hpp"
#include "kernel/cpu.hpp"
#include "kernel/fs.hpp"
#include "kernel/kernel.hpp"
#include "sim/simulation.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nlc::kern {
namespace {

using namespace nlc::literals;

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

/// Every soft-dirty page, in the dirty walk's order.
std::vector<PageNum> dirty_pages(const AddressSpace& as) {
  std::vector<PageNum> out;
  as.for_each_dirty([&](PageNum p, const AddressSpace::PageState& st) {
    EXPECT_EQ(st.version, as.page_version(p)) << p;
    out.push_back(p);
  });
  return out;
}

/// Minimal in-memory block store for kernel-level tests.
class FakeStore : public BlockStore {
 public:
  void write_block(InodeNum ino, std::uint64_t page,
                   std::span<const std::byte> data) override {
    blocks_[{ino, page}].assign(data.begin(), data.end());
    ++writes_;
  }
  std::optional<std::vector<std::byte>> read_block(
      InodeNum ino, std::uint64_t page) const override {
    auto it = blocks_.find({ino, page});
    if (it == blocks_.end()) return std::nullopt;
    return it->second;
  }
  std::uint64_t writes() const { return writes_; }

 private:
  std::map<std::pair<InodeNum, std::uint64_t>, std::vector<std::byte>> blocks_;
  std::uint64_t writes_ = 0;
};

// ---------------------------------------------------------------- VMAs ----

TEST(AddressSpaceTest, MapAllocatesDisjointRanges) {
  AddressSpace as;
  const Vma& a = as.map(10, VmaKind::kAnon);
  const Vma& b = as.map(20, VmaKind::kStack);
  EXPECT_GE(b.start, a.end());
  EXPECT_EQ(as.mapped_pages(), 30u);
  EXPECT_EQ(as.vmas().size(), 2u);
}

TEST(AddressSpaceTest, UnmapDropsPagesAndContent) {
  AddressSpace as;
  auto id = as.map(4, VmaKind::kAnon).id;
  auto start = as.vmas()[0].start;
  as.write(start, 0, bytes_of("hi"));
  as.unmap(id);
  EXPECT_EQ(as.mapped_pages(), 0u);
  EXPECT_TRUE(as.vmas().empty());
}

TEST(AddressSpaceTest, TouchWithoutTrackingIsFree) {
  AddressSpace as;
  auto start = as.map(4, VmaKind::kAnon).start;
  EXPECT_FALSE(as.touch(start));
  EXPECT_EQ(as.dirty_count(), 0u);
  EXPECT_TRUE(dirty_pages(as).empty());
}

TEST(AddressSpaceTest, SoftDirtyTrackingReportsWriteFaultOncePerPage) {
  AddressSpace as;
  auto start = as.map(4, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  EXPECT_TRUE(as.touch(start));    // first write: fault
  EXPECT_FALSE(as.touch(start));   // subsequent writes: no fault
  EXPECT_TRUE(as.touch(start + 1));
  EXPECT_EQ(as.dirty_count(), 2u);
  EXPECT_EQ(dirty_pages(as), (std::vector<PageNum>{start, start + 1}));
}

TEST(AddressSpaceTest, ClearSoftDirtyRearmsFaults) {
  AddressSpace as;
  auto start = as.map(2, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  as.touch(start);
  as.clear_soft_dirty();
  EXPECT_EQ(as.dirty_count(), 0u);
  EXPECT_TRUE(dirty_pages(as).empty());
  EXPECT_TRUE(as.touch(start));
}

TEST(AddressSpaceTest, TouchRangeCountsFreshFaults) {
  AddressSpace as;
  auto start = as.map(10, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  EXPECT_EQ(as.touch_range(start, 5), 5u);
  EXPECT_EQ(as.touch_range(start + 3, 5), 3u);  // 3,4 already dirty
}

TEST(AddressSpaceTest, ContentRoundTrip) {
  AddressSpace as;
  auto start = as.map(2, VmaKind::kAnon).start;
  as.write(start, 100, bytes_of("payload"));
  auto back = as.read(start, 100, 7);
  EXPECT_EQ(0, std::memcmp(back.data(), "payload", 7));
  // Unwritten bytes read as zero.
  auto zeros = as.read(start + 1, 0, 4);
  for (auto b : zeros) EXPECT_EQ(b, std::byte{0});
}

TEST(AddressSpaceTest, ContentPageHasFullPageBuffer) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("x"));
  PagePayload c = as.content(start);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->size(), kPageSize);
  EXPECT_EQ(as.content(start + 100), nullptr);
}

TEST(AddressSpaceTest, ContentHandleIsImmutableAcrossWrites) {
  // The zero-copy pipeline's core guarantee: a handle taken at checkpoint
  // time pins the bytes; a later write clones (copy-on-write) instead of
  // mutating the shared payload.
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("before"));
  PagePayload snapshot = as.content(start);
  EXPECT_EQ(as.cow_clones(), 0u);

  as.write(start, 0, bytes_of("AFTER!"));
  EXPECT_EQ(as.cow_clones(), 1u);
  EXPECT_EQ(0, std::memcmp(snapshot->data(), "before", 6));
  auto now = as.read(start, 0, 6);
  EXPECT_EQ(0, std::memcmp(now.data(), "AFTER!", 6));
  // The clone broke sharing: further writes mutate in place.
  as.write(start, 0, bytes_of("third!"));
  EXPECT_EQ(as.cow_clones(), 1u);
}

TEST(AddressSpaceTest, DroppingHandlesRestoresInPlaceWrites) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("a"));
  { PagePayload h = as.content(start); }  // handle dropped immediately
  as.write(start, 1, bytes_of("b"));
  EXPECT_EQ(as.cow_clones(), 0u);
}

TEST(AddressSpaceTest, AccessToUnmappedPageThrows) {
  AddressSpace as;
  as.map(2, VmaKind::kAnon);
  EXPECT_THROW(as.touch(1), InvariantError);
}

TEST(AddressSpaceTest, InstallVmaPreservesPageIdentity) {
  AddressSpace src;
  const Vma v = src.map(8, VmaKind::kAnon);
  AddressSpace dst;
  dst.install_vma(v);
  EXPECT_EQ(dst.vmas()[0].start, v.start);
  EXPECT_NO_THROW(dst.touch(v.start + 7));
}

TEST(AddressSpaceTest, InstallVmaRejectsOverlap) {
  AddressSpace as;
  const Vma v = as.map(8, VmaKind::kAnon);
  Vma overlap = v;
  overlap.id = v.id + 100;
  overlap.start = v.start + 4;
  EXPECT_THROW(as.install_vma(overlap), InvariantError);
}

TEST(AddressSpaceTest, PageVersionMonotone) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  auto v0 = as.page_version(start);
  as.touch(start);
  as.touch(start);
  EXPECT_EQ(as.page_version(start), v0 + 2);
}

TEST(AddressSpaceTest, InstallContentOnUnmappedPageThrows) {
  AddressSpace as;
  const Vma a = as.map(10, VmaKind::kAnon);
  const Vma b = as.map(4, VmaKind::kAnon);
  PagePayload bytes =
      util::arena_make_shared<PageBytes>(kPageSize, std::byte{7});
  EXPECT_THROW(as.install_content(a.end() + 3, bytes), InvariantError);
  // One past the end still lies inside the last leaf's slot range.
  EXPECT_THROW(as.install_content(a.end(), bytes), InvariantError);
  EXPECT_THROW(as.install_content(b.end(), bytes), InvariantError);
  EXPECT_EQ(as.content(a.end()), nullptr);
  std::uint64_t resident = 0;
  as.for_each_resident([&](PageNum, const AddressSpace::PageState&) {
    ++resident;
  });
  EXPECT_EQ(resident, 0u);
  as.install_content(a.end() - 1, bytes);
  EXPECT_EQ(as.content(a.end() - 1), bytes);
}

/// Every resident page as (page, version), in the page table's walk order.
std::vector<std::pair<PageNum, std::uint64_t>> resident_pages(
    const AddressSpace& as) {
  std::vector<std::pair<PageNum, std::uint64_t>> out;
  as.for_each_resident([&](PageNum p, const AddressSpace::PageState& st) {
    out.emplace_back(p, st.version);
  });
  return out;
}

TEST(AddressSpaceTest, DirtyWalkSurvivesMappingChanges) {
  // The harvest walks the leaves' soft-dirty bits; mapping changes and new
  // leaves elsewhere must keep every page's bit and state where the walk
  // finds them, and unmapping must drop exactly its own pages' bits.
  constexpr std::uint64_t kLeaf = AddressSpace::kLeafPages;
  AddressSpace as;
  const Vma a = as.map(3 * kLeaf, VmaKind::kAnon);
  const Vma b = as.map(700, VmaKind::kStack);
  as.clear_soft_dirty();
  as.touch(a.start);
  as.write(a.start + 1, 0, bytes_of("held"));
  as.touch(b.start + 5);
  const std::vector<PageNum> held = {a.start, a.start + 1, b.start + 5};
  ASSERT_EQ(dirty_pages(as), held);

  // New leaves in the same VMAs, a VMA installed below every other one, a
  // run of maps that regrows the directory list, and unmaps.
  std::set<PageNum> want(held.begin(), held.end());
  for (PageNum p :
       {a.start + kLeaf + 9, a.start + 2 * kLeaf, b.start + kLeaf}) {
    as.touch(p);
    want.insert(p);
  }
  Vma low;
  low.id = 1000;
  low.start = 0x10;
  low.npages = 40;
  as.install_vma(low);
  as.touch(low.start + 39);
  want.insert(low.start + 39);
  std::vector<Vma> extra;
  for (int i = 0; i < 24; ++i) {
    const Vma v = as.map(kLeaf + 3, VmaKind::kAnon);
    as.touch(v.start + kLeaf + static_cast<std::uint64_t>(i % 3));
    as.write(v.start, 0, bytes_of("new"));
    extra.push_back(v);
  }
  for (std::size_t i = 0; i < extra.size(); ++i) {
    if (i % 2 == 0) {
      as.unmap(extra[i].id);
    } else {
      want.insert(extra[i].start);
      want.insert(extra[i].start + kLeaf + i % 3);
    }
  }
  as.touch(a.start);  // same page again: no new dirty bit

  EXPECT_EQ(dirty_pages(as), std::vector<PageNum>(want.begin(), want.end()));
  EXPECT_EQ(as.dirty_count(), want.size());
  EXPECT_EQ(as.read(a.start + 1, 0, 4), bytes_of("held"));

  as.clear_soft_dirty();
  EXPECT_EQ(as.dirty_count(), 0u);
  EXPECT_TRUE(dirty_pages(as).empty());
  for (PageNum p : held) {
    EXPECT_TRUE(as.touch(p)) << "soft-dirty bit not cleared: " << p;
  }
  EXPECT_EQ(dirty_pages(as), held);
}

TEST(AddressSpaceTest, InstallVmaBelowKeepsVmasSorted) {
  AddressSpace as;
  const Vma hi = as.map(600, VmaKind::kAnon);
  as.write(hi.start + 513, 0, bytes_of("hi"));
  Vma lo;
  lo.id = 50;
  lo.start = 0x100;
  lo.npages = 20;
  as.install_vma(lo);
  as.write(lo.start + 3, 0, bytes_of("lo"));
  Vma mid;
  mid.id = 51;
  mid.start = 0x200;
  mid.npages = 10;
  as.install_vma(mid);
  as.touch(mid.start);
  as.touch(hi.start);

  ASSERT_EQ(as.vmas().size(), 3u);
  EXPECT_EQ(as.vmas()[0].id, lo.id);
  EXPECT_EQ(as.vmas()[1].id, mid.id);
  EXPECT_EQ(as.vmas()[2].id, hi.id);
  // Each VMA still reaches its own pages after the inserts.
  EXPECT_EQ(as.read(lo.start + 3, 0, 2), bytes_of("lo"));
  EXPECT_EQ(as.read(hi.start + 513, 0, 2), bytes_of("hi"));
  const std::vector<std::pair<PageNum, std::uint64_t>> want = {
      {lo.start + 3, 1}, {mid.start, 1}, {hi.start, 1}, {hi.start + 513, 1}};
  EXPECT_EQ(resident_pages(as), want);
}

TEST(AddressSpaceTest, ResidentWalkMatchesReferenceModel) {
  // A seeded mix of mutations over four VMAs, some ending in a partial
  // leaf, checked after every step against a std::map of versions and a
  // std::set of soft-dirty pages.
  constexpr std::uint64_t kLeaf = AddressSpace::kLeafPages;
  const std::uint64_t sizes[] = {1, kLeaf - 1, kLeaf + 1, 2 * kLeaf + 476,
                                 kLeaf, 3};
  Rng rng(20260417);
  AddressSpace as;
  std::vector<Vma> live;
  std::size_t next_size = 0;
  auto map_one = [&] {
    live.push_back(as.map(sizes[next_size++ % std::size(sizes)],
                          VmaKind::kAnon));
  };
  for (int i = 0; i < 4; ++i) map_one();
  std::map<PageNum, std::uint64_t> model;
  std::set<std::pair<std::uint64_t, std::uint64_t>> leaves;  // (vma, leaf)
  std::set<PageNum> dirty;
  bool tracking = true;
  as.clear_soft_dirty();
  PagePayload bytes =
      util::arena_make_shared<PageBytes>(kPageSize, std::byte{3});

  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform(0, 99);
    const std::size_t vi =
        static_cast<std::size_t>(rng.uniform(0, std::ssize(live) - 1));
    const Vma v = live[vi];
    if (op < 2) {
      as.unmap(v.id);
      for (PageNum p = v.start; p < v.end(); ++p) {
        model.erase(p);
        dirty.erase(p);
      }
      std::erase_if(leaves, [&](const auto& l) { return l.first == v.id; });
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(vi));
      map_one();
    } else if (op < 6) {
      // Just past the end, inside the last leaf's slots when it is partial.
      EXPECT_THROW(as.touch(v.end()), InvariantError);
    } else if (op < 8) {
      as.clear_soft_dirty();
      dirty.clear();
      tracking = true;
    } else if (op < 9) {
      as.disable_tracking();
      dirty.clear();
      tracking = false;
    } else {
      // Bias toward leaf edges and the last page.
      const std::int64_t last = static_cast<std::int64_t>(v.npages) - 1;
      std::int64_t off = rng.uniform(0, last);
      if (rng.chance(0.3)) off = std::min<std::int64_t>(last, kLeaf - 1);
      if (rng.chance(0.2)) off = last;
      const PageNum page = v.start + static_cast<std::uint64_t>(off);
      if (op < 60) {
        as.touch(page);
      } else if (op < 85) {
        as.write(page, 8, bytes_of("m"));
      } else {
        as.install_content(page, bytes);
      }
      ++model[page];
      if (tracking) dirty.insert(page);
      leaves.emplace(v.id, static_cast<std::uint64_t>(off) / kLeaf);
    }
    const std::vector<std::pair<PageNum, std::uint64_t>> want(model.begin(),
                                                              model.end());
    ASSERT_EQ(resident_pages(as), want) << "step " << step;
    ASSERT_EQ(as.leaf_count(), leaves.size()) << "step " << step;
    ASSERT_EQ(dirty_pages(as), std::vector<PageNum>(dirty.begin(), dirty.end()))
        << "step " << step;
    ASSERT_EQ(as.dirty_count(), dirty.size()) << "step " << step;
  }
  for (const auto& [page, version] : model) {
    EXPECT_EQ(as.page_version(page), version);
  }
  for (PageNum p : dirty) EXPECT_TRUE(model.contains(p));
}

TEST(AddressSpaceTest, LeavesAreAllocatedOnFirstTouch) {
  // A redis-sized address space: 48 VMAs, 131,144 pages, none resident.
  AddressSpace as;
  const Vma heap = as.map(30000, VmaKind::kAnon);
  const Vma kv = as.map(100000, VmaKind::kAnon);
  for (int i = 0; i < 46; ++i) as.map(i < 44 ? 24 : 44, VmaKind::kFileMap);
  EXPECT_EQ(as.mapped_pages(), 131144u);
  EXPECT_EQ(as.leaf_count(), 0u);

  // Readers never allocate.
  EXPECT_EQ(as.read(kv.start + 777, 0, 4), std::vector<std::byte>(4));
  EXPECT_EQ(as.content(heap.start), nullptr);
  EXPECT_EQ(as.page_version(kv.end() - 1), 0u);
  EXPECT_EQ(as.leaf_count(), 0u);

  as.touch(kv.start + 99999);
  EXPECT_EQ(as.leaf_count(), 1u);
  as.touch(kv.end() - 2);  // same leaf
  EXPECT_EQ(as.read(kv.start, 0, 1), std::vector<std::byte>(1));
  EXPECT_EQ(as.content(heap.start + 4096), nullptr);
  EXPECT_EQ(as.leaf_count(), 1u);
  as.write(heap.start, 0, bytes_of("x"));
  EXPECT_EQ(as.leaf_count(), 2u);
  as.unmap(kv.id);
  EXPECT_EQ(as.leaf_count(), 1u);
}

// ----------------------------------------------------------------- CPU ----

TEST(CpuSetTest, ConsumeAdvancesUsage) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  s.spawn([](CpuSet& c) -> sim::task<> { co_await c.consume(10_ms); }(cpu));
  s.run();
  EXPECT_EQ(cpu.usage(), 10_ms);
  EXPECT_EQ(s.now(), 10_ms);
}

TEST(CpuSetTest, FreezeSuspendsBurst) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  Time finished = -1;
  s.spawn([](sim::Simulation& ss, CpuSet& c, Time& f) -> sim::task<> {
    co_await c.consume(10_ms);
    f = ss.now();
  }(s, cpu, finished));
  s.call_after(4_ms, [&] { cpu.freeze(); });
  s.call_after(9_ms, [&] { cpu.unfreeze(); });
  s.run();
  // 4ms ran, frozen for 5ms, then the remaining 6ms: ends at 15ms.
  EXPECT_EQ(finished, 15_ms);
  EXPECT_EQ(cpu.usage(), 10_ms);
}

TEST(CpuSetTest, UsageExcludesFrozenTime) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  s.spawn([](CpuSet& c) -> sim::task<> { co_await c.consume(20_ms); }(cpu));
  s.call_after(5_ms, [&] { cpu.freeze(); });
  s.run_until(10_ms);
  EXPECT_EQ(cpu.usage(), 5_ms);  // only pre-freeze time counted
  cpu.unfreeze();
  s.run();
  EXPECT_EQ(cpu.usage(), 20_ms);
}

TEST(CpuSetTest, ConsumeWhileFrozenWaitsForThaw) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  cpu.freeze();
  Time finished = -1;
  s.spawn([](sim::Simulation& ss, CpuSet& c, Time& f) -> sim::task<> {
    co_await c.consume(3_ms);
    f = ss.now();
  }(s, cpu, finished));
  s.call_after(10_ms, [&] { cpu.unfreeze(); });
  s.run();
  EXPECT_EQ(finished, 13_ms);
}

TEST(CpuSetTest, ParallelBurstsOnDedicatedCores) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    s.spawn([](CpuSet& c, int& d) -> sim::task<> {
      co_await c.consume(10_ms);
      ++d;
    }(cpu, done));
  }
  s.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(s.now(), 10_ms);        // parallel, not serialized
  EXPECT_EQ(cpu.usage(), 40_ms);    // 4 cores x 10ms
}

TEST(CpuSetTest, FreezeAtExactCompletionInstant) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  bool finished = false;
  s.spawn([](CpuSet& c, bool& f) -> sim::task<> {
    co_await c.consume(5_ms);
    f = true;
  }(cpu, finished));
  s.call_after(5_ms, [&] { cpu.freeze(); });
  s.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cpu.usage(), 5_ms);
}

TEST(CpuSetTest, ZeroConsumeCompletesInline) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  bool finished = false;
  s.spawn([](CpuSet& c, bool& f) -> sim::task<> {
    co_await c.consume(0);
    f = true;
  }(cpu, finished));
  EXPECT_TRUE(finished);
}

// ---------------------------------------------------------- Filesystem ----

TEST(FilesystemTest, CreateLookupRoundTrip) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/data/file.db");
  EXPECT_EQ(fs.lookup("/data/file.db"), ino);
  EXPECT_EQ(fs.lookup("/missing"), 0u);
  EXPECT_EQ(fs.attr(ino)->size, 0u);
}

TEST(FilesystemTest, WriteReadThroughCache) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 10, bytes_of("hello"), 1);
  auto back = fs.read(ino, 10, 5);
  EXPECT_EQ(0, std::memcmp(back.data(), "hello", 5));
  EXPECT_EQ(fs.attr(ino)->size, 15u);
  EXPECT_EQ(store.writes(), 0u);  // nothing flushed yet
}

TEST(FilesystemTest, WriteSpanningPages) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  std::vector<std::byte> big(kPageSize + 100, std::byte{0xAB});
  fs.write(ino, kPageSize - 50, big, 1);
  auto back = fs.read(ino, kPageSize - 50, big.size());
  EXPECT_EQ(back, big);
  EXPECT_EQ(fs.cached_page_count(), 3u);
}

TEST(FilesystemTest, WritebackFlushesDirtyKeepsDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("x"), 1);
  EXPECT_EQ(fs.dirty_page_count(), 1u);
  EXPECT_EQ(fs.dnc_page_count(), 1u);
  EXPECT_EQ(fs.writeback(100), 1u);
  EXPECT_EQ(fs.dirty_page_count(), 0u);
  EXPECT_EQ(fs.dnc_page_count(), 1u);  // DNC survives writeback (§III)
  EXPECT_EQ(store.writes(), 1u);
}

TEST(FilesystemTest, HarvestDncClearsOnlyDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("abc"), 1);
  auto h = fs.harvest_dnc();
  EXPECT_EQ(h.pages.size(), 1u);
  EXPECT_GE(h.inodes.size(), 1u);
  EXPECT_EQ(fs.dnc_page_count(), 0u);
  EXPECT_EQ(fs.dirty_page_count(), 1u);  // still needs writeback
  // Second harvest with no new writes is empty.
  auto h2 = fs.harvest_dnc();
  EXPECT_TRUE(h2.pages.empty());
  EXPECT_TRUE(h2.inodes.empty());
}

TEST(FilesystemTest, RewriteAfterHarvestSetsDncAgain) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("a"), 1);
  fs.harvest_dnc();
  fs.write(ino, 0, bytes_of("b"), 2);
  EXPECT_EQ(fs.dnc_page_count(), 1u);
}

TEST(FilesystemTest, ApplyDncReconstitutesFileOnBackup) {
  FakeStore store_p, store_b;
  Filesystem primary(store_p), backup(store_b);
  auto ino = primary.create("/db");
  primary.write(ino, 100, bytes_of("committed"), 1);
  auto h = primary.harvest_dnc();

  backup.apply_dnc(h, 2);
  auto back = backup.read(ino, 100, 9);
  EXPECT_EQ(0, std::memcmp(back.data(), "committed", 9));
  EXPECT_EQ(backup.lookup("/db"), ino);
  EXPECT_EQ(backup.attr(ino)->size, 109u);
}

TEST(FilesystemTest, ReadFallsBackToDiskAfterCacheFlush) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("disk-data"), 1);
  fs.sync_all();
  // Simulate cache eviction by reading through a fresh Filesystem over the
  // same store: block must come from disk.
  Filesystem fs2(store);
  auto ino2 = fs2.create("/f");
  (void)ino2;
  auto back = fs2.read(ino2, 0, 9);
  EXPECT_EQ(0, std::memcmp(back.data(), "disk-data", 9));
}

TEST(FilesystemTest, SetAttrMarksInodeDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.harvest_dnc();
  fs.set_attr(ino, 1000, 1000, 0600);
  auto h = fs.harvest_dnc();
  ASSERT_EQ(h.inodes.size(), 1u);
  EXPECT_EQ(h.inodes[0].attr.uid, 1000u);
  EXPECT_EQ(h.inodes[0].attr.mode, 0600u);
}

// --------------------------------------------------------------- Kernel ----

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(sim_, nullptr, "primary", store_) {}

  sim::Simulation sim_;
  FakeStore store_;
  Kernel kernel_;
};

TEST_F(KernelTest, ContainerHasFullNamespaceSet) {
  Container& c = kernel_.create_container("web");
  EXPECT_EQ(c.namespaces().size(),
            static_cast<std::size_t>(kNamespaceTypeCount));
  EXPECT_NE(c.net_ns_id(), 0u);
  EXPECT_GE(c.mounts().size(), 5u);
  EXPECT_GE(c.devices().size(), 5u);
}

TEST_F(KernelTest, ProcessAndThreadCreation) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  kernel_.create_thread(p.pid());
  kernel_.create_thread(p.pid());
  EXPECT_EQ(p.threads().size(), 3u);  // main + 2
  EXPECT_EQ(kernel_.total_threads(c.id()), 3u);
  EXPECT_EQ(kernel_.container_processes(c.id()).size(), 1u);
}

TEST_F(KernelTest, FreezerStopsCpuAndMarksThreads) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  Time finished = -1;
  sim_.spawn([](sim::Simulation& s, CpuSet& cpu, Time& f) -> sim::task<> {
    co_await cpu.consume(10_ms);
    f = s.now();
  }(sim_, c.cpu(), finished));
  sim_.call_after(3_ms, [&] { kernel_.freeze_container(c.id()); });
  sim_.call_after(8_ms, [&] { kernel_.thaw_container(c.id()); });
  sim_.run();
  EXPECT_EQ(finished, 15_ms);
  EXPECT_FALSE(p.threads()[0].frozen);
}

TEST_F(KernelTest, FreezeForcesSyscallReturn) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  p.threads()[0].in_syscall = true;
  kernel_.freeze_container(c.id());
  EXPECT_TRUE(p.threads()[0].frozen);
  EXPECT_FALSE(p.threads()[0].in_syscall);
}

TEST_F(KernelTest, MountFiresFtraceHookAndBumpsVersion) {
  Container& c = kernel_.create_container("web");
  auto v0 = c.infrequent_state_version();
  int hook_calls = 0;
  kernel_.ftrace().attach("do_mount",
                          [&](const TraceEvent&) { ++hook_calls; });
  kernel_.do_mount(c.id(), {"tmpfs", "/scratch", "tmpfs", 0});
  EXPECT_EQ(hook_calls, 1);
  EXPECT_GT(c.infrequent_state_version(), v0);
}

TEST_F(KernelTest, MknodAndSetnsAndCgroupFireHooks) {
  Container& c = kernel_.create_container("web");
  int hooks = 0;
  for (const char* fn : {"mknod", "setns", "cgroup_attach_task"}) {
    kernel_.ftrace().attach(fn, [&](const TraceEvent&) { ++hooks; });
  }
  kernel_.mknod(c.id(), {"/dev/shm0", 1, 14});
  kernel_.setns_config(c.id(), NamespaceType::kNet, 8192);
  kernel_.cgroup_modify(c.id(), 100000, 1 << 30);
  EXPECT_EQ(hooks, 3);
}

TEST_F(KernelTest, MmapFileCountsAsFileMapping) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  auto v0 = c.infrequent_state_version();
  kernel_.mmap_file(p.pid(), 50, "/lib/libc.so.6");
  kernel_.mmap_file(p.pid(), 20, "/lib/libssl.so");
  EXPECT_EQ(kernel_.total_file_mappings(c.id()), 2u);
  EXPECT_GT(c.infrequent_state_version(), v0);
}

TEST_F(KernelTest, FdAccounting) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  p.install_fd(FdEntry{.kind = FdKind::kFile, .inode = 5});
  p.install_fd(FdEntry{.kind = FdKind::kSocket, .socket = 77});
  p.install_fd(FdEntry{.kind = FdKind::kSocket, .socket = 78});
  EXPECT_EQ(kernel_.total_fds(c.id()), 3u);
  EXPECT_EQ(kernel_.total_sockets(c.id()), 2u);
}

TEST_F(KernelTest, DestroyProcessRemovesFromContainer) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  Pid pid = p.pid();
  kernel_.destroy_process(pid);
  EXPECT_EQ(kernel_.process(pid), nullptr);
  EXPECT_TRUE(c.pids().empty());
}

TEST_F(KernelTest, InstallContainerPreservesId) {
  Container& c = kernel_.install_container(42, "restored");
  EXPECT_EQ(c.id(), 42);
  EXPECT_EQ(kernel_.container(42), &c);
  // Next create does not collide.
  Container& d = kernel_.create_container("fresh");
  EXPECT_GT(d.id(), 42);
}

TEST_F(KernelTest, InstallProcessPreservesPid) {
  kernel_.install_container(1, "c");
  Process& p = kernel_.install_process(1, 500, "restored");
  EXPECT_EQ(p.pid(), 500);
  Process& q = kernel_.create_process(1, "fresh");
  EXPECT_GT(q.pid(), 500);
}

TEST_F(KernelTest, FreezeIsIdempotent) {
  Container& c = kernel_.create_container("web");
  kernel_.freeze_container(c.id());
  kernel_.freeze_container(c.id());
  EXPECT_TRUE(c.frozen());
  kernel_.thaw_container(c.id());
  kernel_.thaw_container(c.id());
  EXPECT_FALSE(c.frozen());
}

}  // namespace
}  // namespace nlc::kern
