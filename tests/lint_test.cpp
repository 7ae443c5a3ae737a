// Golden-fixture suite for the nlc_lint static analyzer (DESIGN.md §13).
//
// Each rule has a positive fixture (must produce exactly the expected
// rule IDs at the expected lines, exit status 1) and a negative fixture
// (must produce zero findings and exactly one suppressed entry, exit
// status 0 — the suppression comment path is exercised on every rule).
// The test drives the real built binary over --json output, so the CLI,
// the JSON writer, the lexer and the rule engine are all under test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
  // (rule, line) pairs in report order (sorted by the analyzer).
  std::vector<std::pair<std::string, int>> findings;
  std::vector<std::pair<std::string, int>> suppressed;
};

std::string fixture(const std::string& name) {
  return std::string(NLC_LINT_FIXTURE_DIR) + "/" + name;
}

/// Extracts (rule, line) pairs from one JSON array section. The analyzer
/// emits one object per line, so a line-oriented scan is exact.
std::vector<std::pair<std::string, int>> parse_entries(
    const std::string& json, const char* key) {
  std::vector<std::pair<std::string, int>> out;
  std::size_t sec = json.find(std::string("\"") + key + "\": [");
  if (sec == std::string::npos) return out;
  std::size_t end = json.find(']', sec);
  std::size_t pos = sec;
  while (true) {
    std::size_t r = json.find("\"rule\": \"", pos);
    if (r == std::string::npos || r > end) break;
    r += 9;
    std::size_t rq = json.find('"', r);
    std::size_t l = json.find("\"line\": ", rq);
    out.emplace_back(json.substr(r, rq - r),
                     std::atoi(json.c_str() + l + 8));
    pos = l;
  }
  return out;
}

LintRun run_lint(const std::string& args) {
  LintRun res;
  std::string cmd = std::string(NLC_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return res;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) res.output.append(buf, n);
  int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  res.findings = parse_entries(res.output, "findings");
  res.suppressed = parse_entries(res.output, "suppressed");
  return res;
}

using Expected = std::vector<std::pair<std::string, int>>;

/// Positive fixture: exact findings, nothing suppressed, exit 1.
void expect_positive(const std::string& name, const Expected& want) {
  SCOPED_TRACE(name);
  LintRun r = run_lint("--json " + fixture(name));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.findings, want) << r.output;
  EXPECT_TRUE(r.suppressed.empty()) << r.output;
}

/// Negative fixture: no findings, exactly the expected suppressions
/// (every rule's negative fixture carries one), exit 0.
void expect_negative(const std::string& name, const Expected& want_sup) {
  SCOPED_TRACE(name);
  LintRun r = run_lint("--json " + fixture(name));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.findings.empty()) << r.output;
  EXPECT_EQ(r.suppressed, want_sup) << r.output;
}

TEST(LintFixtures, NoAssert) {
  expect_positive("pos_no_assert.cpp",
                  {{"no-assert", 2}, {"no-assert", 5}});
  expect_negative("neg_no_assert.cpp", {{"no-assert", 6}});
}

TEST(LintFixtures, NoNakedNew) {
  expect_positive("pos_no_naked_new.cpp",
                  {{"no-naked-new", 3}, {"no-naked-new", 4}});
  expect_negative("neg_no_naked_new.cpp", {{"no-naked-new", 11}});
}

TEST(LintFixtures, NoRawThread) {
  expect_positive("pos_no_raw_thread.cpp", {{"no-raw-thread", 4}});
  expect_negative("neg_no_raw_thread.cpp", {{"no-raw-thread", 7}});
}

TEST(LintFixtures, NoRawClock) {
  expect_positive("pos_no_raw_clock.cpp", {{"no-raw-clock", 4}});
  expect_negative("neg_no_raw_clock.cpp", {{"no-raw-clock", 4}});
}

TEST(LintFixtures, ArenaAlloc) {
  expect_positive("pos_arena_alloc.cpp",
                  {{"arena-alloc", 4}, {"arena-alloc", 7}});
  expect_negative("neg_arena_alloc.cpp", {{"arena-alloc", 6}});
}

TEST(LintFixtures, RawRand) {
  // Two findings share line 4 (engine + random_device); sorted by message.
  expect_positive("pos_raw_rand.cpp",
                  {{"raw-rand", 4}, {"raw-rand", 4}, {"raw-rand", 5}});
  expect_negative("neg_raw_rand.cpp", {{"raw-rand", 5}});
}

TEST(LintFixtures, UnorderedIter) {
  // Range-for with an order-dependent body, then an iterator loop.
  expect_positive("pos_unordered_iter.cpp",
                  {{"unordered-iter", 9}, {"unordered-iter", 14}});
  // Order-independent accumulation and ordered containers stay silent.
  expect_negative("neg_unordered_iter.cpp", {{"unordered-iter", 20}});
}

TEST(LintFixtures, PtrKey) {
  expect_positive("pos_ptr_key.cpp", {{"ptr-key", 5}, {"ptr-key", 6}});
  expect_negative("neg_ptr_key.cpp", {{"ptr-key", 8}});
}

TEST(LintFixtures, PtrSort) {
  expect_positive("pos_ptr_sort.cpp", {{"ptr-sort", 5}});
  expect_negative("neg_ptr_sort.cpp", {{"ptr-sort", 9}});
}

TEST(LintFixtures, ConcurrencyOwner) {
  expect_positive("pos_concurrency_owner.cpp",
                  {{"concurrency-owner", 5}, {"concurrency-owner", 6}});
  expect_negative("neg_concurrency_owner.cpp", {{"concurrency-owner", 5}});
}

TEST(LintFixtures, DetachedThis) {
  expect_positive("pos_detached_this.cpp", {{"detached-this", 4}});
  expect_negative("neg_detached_this.cpp", {{"detached-this", 6}});
}

TEST(LintFixtures, ReplayWallclock) {
  // Wall clock and a fresh Rng inside namespace ...::replay; the negative
  // fixture shows wall_now_ns is fine outside the engine namespace.
  expect_positive("pos_replay_wallclock.cpp",
                  {{"replay-wallclock", 3}, {"replay-wallclock", 5}});
  expect_negative("neg_replay_wallclock.cpp", {{"replay-wallclock", 10}});
}

TEST(LintFixtures, EpochctlWallclock) {
  // The adaptive epoch controller (namespace ...::epochctl) is held to
  // the same purity standard as the replay engine: wall clock or ambient
  // randomness there would break byte determinism across job/tier
  // configurations (DESIGN.md §15).
  expect_positive("pos_epochctl_wallclock.cpp",
                  {{"replay-wallclock", 3}, {"replay-wallclock", 5}});
  expect_negative("neg_epochctl_wallclock.cpp", {{"replay-wallclock", 10}});
}

// Test code is exempt from the unordered-iteration rule (tests may assert
// over hash order locally); --assume-test marks explicit files as tests.
TEST(LintCli, AssumeTestExemptsUnorderedIter) {
  LintRun r = run_lint("--json --assume-test " +
                       fixture("pos_unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.findings.empty()) << r.output;
}

TEST(LintCli, ListRulesMatchesCatalog) {
  LintRun r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  const char* kRules[] = {"no-assert",      "no-naked-new",
                          "no-raw-thread",  "no-raw-clock",
                          "arena-alloc",    "raw-rand",
                          "unordered-iter", "ptr-key",
                          "ptr-sort",       "concurrency-owner",
                          "detached-this",  "replay-wallclock"};
  for (const char* rule : kRules) {
    EXPECT_NE(r.output.find(std::string(rule) + "\n"), std::string::npos)
        << "missing rule: " << rule;
  }
}

// Linting all fixtures at once must find every positive violation and no
// cross-fixture false positives from the shared symbol table.
TEST(LintCli, WholeFixtureDirIsStable) {
  std::string all;
  const char* kPos[] = {
      "pos_no_assert.cpp",     "pos_no_naked_new.cpp",
      "pos_no_raw_thread.cpp", "pos_no_raw_clock.cpp",
      "pos_arena_alloc.cpp",   "pos_raw_rand.cpp",
      "pos_unordered_iter.cpp", "pos_ptr_key.cpp",
      "pos_ptr_sort.cpp",      "pos_concurrency_owner.cpp",
      "pos_detached_this.cpp", "pos_replay_wallclock.cpp",
      "pos_epochctl_wallclock.cpp"};
  const char* kNeg[] = {
      "neg_no_assert.cpp",     "neg_no_naked_new.cpp",
      "neg_no_raw_thread.cpp", "neg_no_raw_clock.cpp",
      "neg_arena_alloc.cpp",   "neg_raw_rand.cpp",
      "neg_unordered_iter.cpp", "neg_ptr_key.cpp",
      "neg_ptr_sort.cpp",      "neg_concurrency_owner.cpp",
      "neg_detached_this.cpp", "neg_replay_wallclock.cpp",
      "neg_epochctl_wallclock.cpp"};
  for (const char* f : kPos) all += " " + fixture(f);
  for (const char* f : kNeg) all += " " + fixture(f);
  LintRun r = run_lint("--json" + all);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.findings.size(), 23u) << r.output;   // sum of all positives
  EXPECT_EQ(r.suppressed.size(), 13u) << r.output; // one per negative
  // No finding may escape from a negative fixture: the findings array
  // (everything before the suppressed section) names only pos_ files.
  EXPECT_EQ(r.output.substr(0, r.output.find("\"suppressed\"")).find("/neg_"),
            std::string::npos)
      << r.output;
}

// src/topo (DESIGN.md §16) and src/trace (§11) are inside the
// concurrency-owner rule's scope: the topology rule must stay a pure
// simulation-deterministic function, and the recorder has one writer, so
// a raw primitive there is a finding, while the owning modules
// (src/harness etc.) stay exempt.
TEST(LintCli, TopoModuleIsInConcurrencyOwnerScope) {
  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "lint_topo_scope";
  fs::create_directories(tmp / "src/topo");
  fs::create_directories(tmp / "src/trace");
  fs::create_directories(tmp / "src/harness");
  std::ofstream(tmp / "src/topo/probe.cpp") << "#include <mutex>\n"
                                               "std::mutex topo_m;\n";
  std::ofstream(tmp / "src/trace/probe.cpp")
      << "#include <atomic>\n"
         "std::atomic<int> trace_n;\n";
  std::ofstream(tmp / "src/harness/probe.cpp") << "#include <mutex>\n"
                                                  "std::mutex harness_m;\n";
  LintRun r = run_lint("--json --root " + tmp.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  ASSERT_EQ(r.findings.size(), 2u) << r.output;
  EXPECT_EQ(r.findings[0].first, "concurrency-owner");
  EXPECT_EQ(r.findings[1].first, "concurrency-owner");
  EXPECT_NE(r.output.find("src/topo/probe.cpp"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/trace/probe.cpp"), std::string::npos)
      << r.output;
  fs::remove_all(tmp);
}

}  // namespace
