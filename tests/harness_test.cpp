#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "util/assert.hpp"

namespace nlc::harness {
namespace {

apps::AppSpec fast_spec() {
  apps::AppSpec s = apps::netecho_spec();
  s.kv_pages = 256;
  return s;
}

RunConfig base_config(Mode mode) {
  RunConfig cfg;
  cfg.spec = fast_spec();
  cfg.mode = mode;
  cfg.measure = nlc::seconds(2);
  cfg.warmup = nlc::milliseconds(200);
  return cfg;
}

TEST(HarnessTest, StockRunProducesThroughput) {
  auto r = run_experiment(base_config(Mode::kStock));
  EXPECT_GT(r.throughput_rps, 100.0);  // unprotected echo is fast
  EXPECT_EQ(r.metrics.epochs_completed, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.active_cores, 0.0);
}

TEST(HarnessTest, NiLiConRunCheckpointsAndServes) {
  auto r = run_experiment(base_config(Mode::kNiLiCon));
  EXPECT_GT(r.throughput_rps, 10.0);
  EXPECT_GT(r.metrics.epochs_completed, 40u);
  EXPECT_GT(r.metrics.stop_time_ms.mean(), 0.5);
  EXPECT_GT(r.backup_cores, 0.0);
  EXPECT_LT(r.backup_cores, r.active_cores + 0.5);
}

/// Threads this process runs (the `Threads:` line of /proc/self/status),
/// or -1 if the line cannot be read.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(HarnessTest, ProtectedRunStartsNoThread) {
  // A trial runs on its caller's thread, page pipeline included: a
  // protected run leaves the process with the threads it started with.
  const int before = process_threads();
  ASSERT_GT(before, 0);
  RunConfig cfg = base_config(Mode::kNiLiCon);
  cfg.spec = apps::redis_spec();
  cfg.spec.kv_pages = 256;
  cfg.measure = nlc::milliseconds(500);
  auto r = run_experiment(cfg);
  EXPECT_GT(r.metrics.epochs_completed, 5u);
  EXPECT_EQ(process_threads(), before);
}

TEST(HarnessTest, McRunCheckpointsAndServes) {
  auto r = run_experiment(base_config(Mode::kMc));
  EXPECT_GT(r.throughput_rps, 10.0);
  EXPECT_GT(r.metrics.epochs_completed, 40u);
  // MC stop is small: vcpu state + a few dirty pages.
  EXPECT_LT(r.metrics.stop_time_ms.mean(), 5.0);
}

TEST(HarnessTest, ProtectionCostsThroughput) {
  auto stock = run_experiment(base_config(Mode::kStock));
  auto nil = run_experiment(base_config(Mode::kNiLiCon));
  EXPECT_LT(nil.throughput_rps, stock.throughput_rps);
}

TEST(HarnessTest, MeasureOverheadIsPositive) {
  // A single un-pipelined echo client is latency-bound: under protection
  // every response waits for its epoch to commit, so the throughput
  // reduction approaches (but never reaches) 100%.
  double overhead = measure_overhead(base_config(Mode::kNiLiCon));
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 1.0);
}

TEST(HarnessTest, BatchRunMeasuresRuntime) {
  RunConfig cfg;
  cfg.spec = apps::swaptions_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.batch_work = nlc::milliseconds(800);
  auto r = run_experiment(cfg);
  EXPECT_GT(r.batch_runtime, r.batch_ideal);  // protection adds time
  EXPECT_GT(r.metrics.epochs_completed, 10u);
}

TEST(HarnessTest, FaultInjectionRecoversWithValidation) {
  RunConfig cfg = base_config(Mode::kNiLiCon);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.kv_validation = true;
  cfg.client_connections = 3;
  cfg.seed = 17;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.fault_injected);
  EXPECT_TRUE(r.recovered);
  EXPECT_GT(r.requests_after_fault, 0u);
  EXPECT_EQ(r.kv_errors, 0u);
  EXPECT_EQ(r.broken_connections, 0u);
  EXPECT_GT(r.interruption, nlc::milliseconds(200));  // detection+restore
  EXPECT_LT(r.interruption, nlc::seconds(2));
}

TEST(HarnessTest, KvValidationRejectsMoreConnectionsThanKvPages) {
  // One page per key and disjoint key ranges: a connection past the last
  // page would share keys with another and report false errors.
  RunConfig cfg = base_config(Mode::kStock);
  cfg.kv_validation = true;
  cfg.client_connections = 257;  // fast_spec() has 256 KV pages
  EXPECT_THROW(run_experiment(cfg), InvariantError);
}

TEST(HarnessTest, BackupFaultNeedsASecondReplica) {
  // kBackup crashes replica kFaultBackupReplica, which a two-node run does
  // not have: the run is refused before a cluster exists.
  RunConfig cfg = base_config(Mode::kNiLiCon);
  cfg.inject_fault = true;
  cfg.fault_kind = FaultKind::kBackup;
  EXPECT_THROW(run_experiment(cfg), InvariantError);
}

TEST(HarnessTest, FaultInjectionWithDiskStress) {
  RunConfig cfg = base_config(Mode::kNiLiCon);
  cfg.measure = nlc::seconds(4);
  cfg.inject_fault = true;
  cfg.with_diskstress = true;
  cfg.seed = 23;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.diskstress_errors, 0u);
  EXPECT_EQ(r.diskstress_post_failover_mismatches, 0u);
}

TEST(HarnessTest, BatchFaultInjectionResumesFromCommittedProgress) {
  RunConfig cfg;
  cfg.spec = apps::swaptions_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.batch_work = nlc::seconds(1);
  cfg.inject_fault = true;
  cfg.seed = 31;
  auto r = run_experiment(cfg);
  EXPECT_TRUE(r.recovered);
  // The run finished on the backup: total wall time exceeds the quota by
  // at least the outage, and the re-executed slice since the last commit.
  EXPECT_GT(r.batch_runtime, r.batch_ideal);
}

TEST(HarnessTest, DeterministicAcrossRepetition) {
  auto a = run_experiment(base_config(Mode::kNiLiCon));
  auto b = run_experiment(base_config(Mode::kNiLiCon));
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.metrics.epochs_completed, b.metrics.epochs_completed);
}

TEST(HarnessTest, SeedChangesOutcomeDetails) {
  auto a = run_experiment(base_config(Mode::kNiLiCon));
  RunConfig cfg = base_config(Mode::kNiLiCon);
  cfg.seed = 999;
  auto b = run_experiment(cfg);
  // Different stochastic paths, same order of magnitude.
  EXPECT_NEAR(b.throughput_rps / a.throughput_rps, 1.0, 0.5);
}

TEST(HarnessTest, Table1RowZeroIsCatastrophicallySlow) {
  RunConfig cfg;
  cfg.spec = apps::streamcluster_spec();
  cfg.mode = Mode::kNiLiCon;
  cfg.nilicon = core::Options::table1_row(0);
  cfg.batch_work = nlc::milliseconds(300);
  auto basic = run_experiment(cfg);
  cfg.nilicon = core::Options::table1_row(6);
  auto optimized = run_experiment(cfg);
  // The unoptimized stack is an order of magnitude worse (Table I).
  EXPECT_GT(basic.batch_runtime, optimized.batch_runtime * 4);
}

}  // namespace
}  // namespace nlc::harness
