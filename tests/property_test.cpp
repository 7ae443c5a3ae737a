// Property-style parameterized suites over the system's core invariants:
// output commit, failover consistency, and page-store equivalence — swept
// across seeds, epoch lengths, fault times and optimization configurations.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "harness/experiment.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace nlc {
namespace {

using harness::Mode;
using harness::RunConfig;

// ---- Invariant: failover never loses acknowledged writes, never breaks
// ---- connections — for any fault time (seed-swept).

class FailoverConsistency : public ::testing::TestWithParam<int> {};

TEST_P(FailoverConsistency, NoLossAnySeed) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 256;
  cfg.mode = Mode::kNiLiCon;
  cfg.measure = nlc::seconds(3);
  cfg.inject_fault = true;
  cfg.kv_validation = true;
  cfg.client_connections = 2;
  cfg.seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 13;
  auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.fault_injected);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.requests_after_fault, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, FailoverConsistency,
                         ::testing::Range(0, 8));

// ---- Invariant: the same holds for every Table I optimization level
// ---- (the optimizations must never change correctness, only cost).

class OptimizationLevels : public ::testing::TestWithParam<int> {};

TEST_P(OptimizationLevels, FailoverCorrectAtEveryLevel) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.spec.kv_pages = 128;
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon = core::Options::table1_row(GetParam());
  cfg.measure = nlc::seconds(2);
  cfg.inject_fault = true;
  cfg.kv_validation = true;
  cfg.client_connections = 2;
  cfg.seed = 42;
  auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
}

// Row 7 = delta compression (extension): correctness must hold there too.
INSTANTIATE_TEST_SUITE_P(AllRows, OptimizationLevels, ::testing::Range(0, 8));

// ---- Invariant: the delta codec round-trips bit-exactly for arbitrary
// ---- page pairs, and never produces a wire size above the raw page.

class DeltaCodecRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DeltaCodecRoundTrip, ApplyInvertsEncode) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ull + 3);
  kern::PageBytes prev(nlc::kPageSize);
  for (auto& b : prev) {
    b = static_cast<std::byte>(rng.uniform(0, 255));
  }
  // Mutate a random number of random-length runs of the previous page.
  kern::PageBytes cur = prev;
  int mutations = static_cast<int>(rng.uniform(0, 40));
  for (int m = 0; m < mutations; ++m) {
    auto off = static_cast<std::size_t>(rng.uniform(0, nlc::kPageSize - 1));
    auto len = std::min(static_cast<std::size_t>(rng.uniform(1, 300)),
                        nlc::kPageSize - off);
    for (std::size_t i = 0; i < len; ++i) {
      cur[off + i] = static_cast<std::byte>(rng.uniform(0, 255));
    }
  }

  criu::PageDelta d = criu::delta_encode(&prev, cur);
  EXPECT_LE(d.wire_size, nlc::kPageSize);
  kern::PageBytes decoded = criu::delta_apply(&prev, d, &cur);
  EXPECT_EQ(decoded, cur);

  if (mutations == 0) {
    // Unchanged page: only framing ships.
    EXPECT_FALSE(d.raw);
    EXPECT_EQ(d.wire_size, criu::kDeltaPageHeader);
  }

  // No reference => raw at full page cost, still correct.
  criu::PageDelta raw = criu::delta_encode(nullptr, cur);
  EXPECT_TRUE(raw.raw);
  EXPECT_EQ(raw.wire_size, nlc::kPageSize);
  EXPECT_EQ(criu::delta_apply(nullptr, raw, &cur), cur);
}

INSTANTIATE_TEST_SUITE_P(Pages, DeltaCodecRoundTrip, ::testing::Range(0, 16));

// ---- Invariant: response latency under protection is bounded below by
// ---- the commit delay and runs do not lose requests (epoch sweep).

class EpochLengths : public ::testing::TestWithParam<int> {};

TEST_P(EpochLengths, BufferingDelayTracksEpochLength) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon.epoch_length = nlc::milliseconds(GetParam());
  cfg.measure = nlc::seconds(2);
  cfg.client_connections = 1;
  auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.broken_connections, 0u);
  ASSERT_GT(r.requests_completed, 5u);
  // Mean latency at least ~half the epoch (release waits for commit).
  EXPECT_GT(r.mean_latency_ms, static_cast<double>(GetParam()) * 0.4);
}

INSTANTIATE_TEST_SUITE_P(Epochs, EpochLengths,
                         ::testing::Values(10, 30, 60, 120));

// ---- Invariant: list and radix page stores are observationally
// ---- equivalent (same lookups after any operation sequence).

class PageStoreEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PageStoreEquivalence, RandomOperationSequences) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  criu::ListPageStore list;
  criu::RadixPageStore radix;
  for (std::uint64_t epoch = 0; epoch < 30; ++epoch) {
    list.begin_checkpoint(epoch);
    radix.begin_checkpoint(epoch);
    int n = static_cast<int>(rng.uniform(1, 40));
    for (int i = 0; i < n; ++i) {
      criu::PageRecord rec;
      rec.page = static_cast<kern::PageNum>(rng.uniform(0, 200));
      rec.version = epoch * 1000 + static_cast<std::uint64_t>(i);
      list.store(rec);
      radix.store(rec);
    }
  }
  ASSERT_EQ(list.page_count(), radix.page_count());
  for (kern::PageNum p = 0; p <= 200; ++p) {
    const criu::PageRecord* a = list.lookup(p);
    const criu::PageRecord* b = radix.lookup(p);
    ASSERT_EQ(a == nullptr, b == nullptr) << "page " << p;
    if (a != nullptr) {
      EXPECT_EQ(a->version, b->version) << "page " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sequences, PageStoreEquivalence,
                         ::testing::Range(0, 6));

// ---- Invariant: the radix store matches a reference map after every
// ---- store() and store_batch(), inline and fanned out, and its copies
// ---- are independent of their source.

/// Pages of three processes (kernel page bases pid << 24) whose bases sit
/// under different level-3 and level-2 subtrees: offsets on leaf edges,
/// across a level-2 edge, and scattered over sparse leaves.
kern::PageNum random_page(Rng& rng) {
  static constexpr kern::PageNum kPids[] = {1, 300, 70000};
  static constexpr kern::PageNum kEdges[] = {
      0, 1, 511, 512, 513, 1023, 1024, 1535, (1u << 18) - 1, 1u << 18,
      (1u << 18) + 1};
  const kern::PageNum base = kPids[rng.uniform(0, 2)] << 24;
  if (rng.chance(0.5)) {
    const auto last = static_cast<std::int64_t>(std::size(kEdges)) - 1;
    return base + kEdges[rng.uniform(0, last)];
  }
  return base + static_cast<kern::PageNum>(rng.uniform(0, (1 << 20) - 1));
}

class RadixStoreModel : public ::testing::TestWithParam<int> {
 protected:
  using Model = std::map<kern::PageNum, criu::PageRecord>;

  /// The size of the two large batches: a dense run over dozens of leaves.
  static constexpr std::size_t kLargeBatch = 16448;

  criu::PageRecord make(kern::PageNum page) {
    criu::PageRecord r;
    r.page = page;
    r.version = ++version_;
    r.wire_size = static_cast<std::uint32_t>(version_ % 4096);
    // Distinct handles, so a record pointing at the wrong payload shows.
    if (version_ % 3 != 0) {
      r.content = util::arena_make_shared<kern::PageBytes>(
          1, static_cast<std::byte>(version_));
    }
    return r;
  }

  /// A page-sorted image of `n` distinct pages, with one page repeated
  /// (next to its first copy or at the end, out of order) if asked.
  std::vector<criu::PageRecord> image(Rng& rng, std::size_t n,
                                      bool repeat) {
    std::set<kern::PageNum> pages;
    if (n >= kLargeBatch) {
      // A dense run over dozens of leaves, plus a scattered tail.
      const kern::PageNum start =
          (kern::PageNum{300} << 24) +
          static_cast<kern::PageNum>(rng.uniform(0, 1500));
      for (kern::PageNum p = start; pages.size() < n - 200; ++p) {
        pages.insert(p);
      }
    }
    while (pages.size() < n) pages.insert(random_page(rng));
    std::vector<criu::PageRecord> img;
    for (kern::PageNum p : pages) img.push_back(make(p));
    if (repeat) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(img.size()) - 1));
      criu::PageRecord again = make(img[at].page);
      if (rng.chance(0.5)) {
        img.insert(img.begin() + static_cast<std::ptrdiff_t>(at) + 1, again);
      } else {
        img.push_back(again);
      }
    }
    return img;
  }

  static void expect_same(const criu::RadixPageStore& store,
                          const Model& model, Rng& rng,
                          const std::string& where) {
    ASSERT_EQ(store.page_count(), model.size()) << where;
    const std::vector<const criu::PageRecord*> walk = store.all_pages();
    ASSERT_EQ(walk.size(), model.size()) << where;
    auto it = model.begin();
    for (std::size_t i = 0; i < walk.size(); ++i, ++it) {
      const criu::PageRecord& got = *walk[i];
      ASSERT_EQ(got.page, it->first) << where << ", walk position " << i;
      ASSERT_EQ(got.version, it->second.version) << where;
      ASSERT_EQ(got.wire_size, it->second.wire_size) << where;
      ASSERT_EQ(got.content.get(), it->second.content.get()) << where;
      ASSERT_EQ(store.lookup(it->first), walk[i]) << where;
    }
    // Absent pages, including the images of the present ones 2^36 pages
    // up and down (a tree that dropped the high bits would alias them).
    for (int k = 0; k < 64; ++k) {
      kern::PageNum p = random_page(rng);
      if (k % 4 == 1) p += kern::PageNum{1} << 36;
      if (k % 4 == 2 && p >= (kern::PageNum{1} << 36)) {
        p -= kern::PageNum{1} << 36;
      }
      if (model.contains(p)) continue;
      ASSERT_EQ(store.lookup(p), nullptr) << where << ", page " << p;
    }
  }

  std::uint64_t version_ = 0;
};

TEST_P(RadixStoreModel, MatchesReferenceMapAndCopiesAreIndependent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  criu::RadixPageStore store;
  Model model;
  std::uint64_t visits = 0;
  std::uint64_t records = 0;

  // A page in a leaf no step touches: its record must stay put while the
  // tree grows around it.
  const kern::PageNum pinned_page = (kern::PageNum{1} << 24) + (3u << 20);
  const criu::PageRecord pinned_rec = make(pinned_page);
  visits += store.store(pinned_rec);
  ++records;
  model[pinned_page] = pinned_rec;
  const criu::PageRecord* pinned = store.lookup(pinned_page);
  ASSERT_NE(pinned, nullptr);

  for (int step = 0; step < 24; ++step) {
    const std::string where = "step " + std::to_string(step);
    const int kind = step == 5 || step == 17 ? 3
                                             : static_cast<int>(
                                                   rng.uniform(0, 2));
    if (kind == 0) {
      // Single stores.
      for (int i = 0; i < 20; ++i) {
        criu::PageRecord r = make(random_page(rng));
        visits += store.store(r);
        ++records;
        model[r.page] = r;
      }
    } else {
      // Kinds 1 and 2: a batch of up to 900 records; kind 3: a large one.
      const std::size_t n =
          kind == 3 ? kLargeBatch
                    : static_cast<std::size_t>(rng.uniform(1, 900));
      std::vector<criu::PageRecord> img = image(rng, n, rng.chance(0.7));
      const std::uint64_t v = store.store_batch(img);
      EXPECT_EQ(v, criu::RadixPageStore::kLevels * img.size()) << where;
      visits += v;
      records += img.size();
      for (const criu::PageRecord& r : img) model[r.page] = r;
    }
    ASSERT_EQ(visits, criu::RadixPageStore::kLevels * records) << where;
    ASSERT_NO_FATAL_FAILURE(expect_same(store, model, rng, where));
    ASSERT_EQ(store.lookup(pinned_page), pinned) << where;
    ASSERT_EQ(pinned->version, pinned_rec.version) << where;

    if (step % 6 == 5) {
      // The copy walks the same records as separate objects; storing into
      // it (a new page and an overwrite) leaves the source as it was.
      std::unique_ptr<criu::PageStore> copy = store.clone();
      const std::vector<const criu::PageRecord*> a = store.all_pages();
      const std::vector<const criu::PageRecord*> b = copy->all_pages();
      ASSERT_EQ(a.size(), b.size()) << where;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(a[i], b[i]) << where;
        ASSERT_EQ(a[i]->page, b[i]->page) << where;
        ASSERT_EQ(a[i]->version, b[i]->version) << where;
        ASSERT_EQ(a[i]->wire_size, b[i]->wire_size) << where;
        ASSERT_EQ(a[i]->content, b[i]->content) << where;
      }
      copy->store(make(pinned_page));
      copy->store(make(model.rbegin()->first + 1));
      copy->store(make(a[a.size() / 2]->page));
      EXPECT_EQ(copy->page_count(), store.page_count() + 1) << where;
      ASSERT_NO_FATAL_FAILURE(
          expect_same(store, model, rng, where + ", after a copy's stores"));
      ASSERT_EQ(pinned->version, pinned_rec.version) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixStoreModel, ::testing::Range(0, 6));

// ---- Invariant: determinism — identical configs yield identical runs.

class Determinism : public ::testing::TestWithParam<int> {};

TEST_P(Determinism, RunsAreReproducible) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.measure = nlc::seconds(1);
  cfg.inject_fault = (GetParam() % 2) == 1;
  cfg.kv_validation = cfg.inject_fault;
  cfg.spec.kv_pages = cfg.kv_validation ? 64 : 0;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  auto a = harness::run_experiment(cfg);
  auto b = harness::run_experiment(cfg);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(to_millis(a.interruption), to_millis(b.interruption));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism, ::testing::Range(0, 4));

}  // namespace
}  // namespace nlc
