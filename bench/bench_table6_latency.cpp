// Table VI: response latency with a single client, stock vs NiLiCon —
// extended with the replay commit mode (DESIGN.md §14).
//
// Two overheads inflate the protected latency (§VII-C): per-request
// checkpoint/runtime overhead, and output buffering — under the epoch
// commit mode a response waits for its whole epoch to commit before the
// plug releases it. The replay mode replaces that wait with a small
// event-log round trip, so the buffering term collapses from O(epoch)
// to O(log ack RTT). The sweep at the bottom shows the consequence:
// epoch-mode latency grows linearly with the epoch length while
// replay-mode latency stays flat.
//
// Emits BENCH_table6_latency.json with full percentile summaries
// (mean/p50/p99/p999 per point) and enforces three gates:
//   1. replay-mode p99 < epoch-mode p99 for every app at the 30 ms
//      default epoch;
//   2. replay-mode p50 <= 2x the unreplicated (stock) p50 for apps whose
//      median request fits between checkpoints (all but djcms — its
//      light-request median spans several epochs and absorbs stops under
//      either commit mode);
//   3. replay-mode p99 <= 2x stock p99 where the tail is set by service
//      time rather than the frozen window (ssdb, lighttpd, djcms). For
//      sub-5 ms services (redis, node) the p99 is bounded below by the
//      Table III pause (~10 ms of /proc walks, dirty discovery and TCP
//      repair dumps) that no commit mode removes — HyCoR pays the same
//      pause and compensates with ~1 s checkpoint intervals, which the
//      flat sweep below makes cheap.
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

struct PaperRow {
  double stock_ms, nilicon_ms;
};
constexpr std::array<PaperRow, 5> kPaper = {{
    {3.1, 36.9},   // redis
    {93, 143},     // ssdb
    {2.4, 39.4},   // node
    {285, 542},    // lighttpd
    {89, 245},     // djcms
}};
}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table VI: response latency with a single client",
         "NiLiCon paper, Table VI + HyCoR-style replay commit");
  std::printf("%-10s | %-20s | %-20s | %-20s\n", "benchmark",
              "stock (paper)", "epoch commit (paper)", "replay commit");
  std::printf("----------------------------------------------------------"
              "--------------------\n");

  const apps::AppSpec server_specs[5] = {
      apps::redis_spec(), apps::ssdb_spec(), apps::node_spec(),
      apps::lighttpd_spec(), apps::djcms_spec()};
  std::vector<harness::RunConfig> cfgs;
  for (int i = 0; i < 5; ++i) {
    harness::RunConfig cfg;
    cfg.spec = server_specs[i];
    cfg.client_connections = 1;
    cfg.client_pipeline = 1;  // one request at a time (Table VI setup)
    cfg.measure = measure_seconds();
    cfg.mode = harness::Mode::kStock;
    cfgs.push_back(cfg);
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.nilicon.commit_mode = core::CommitMode::kEpoch;
    cfgs.push_back(cfg);
    cfg.nilicon.commit_mode = core::CommitMode::kReplay;
    cfgs.push_back(cfg);
  }
  // Epoch-length sweep (redis): the response-time-vs-epoch-length curve
  // that motivates the replay mode. Same single-client setup.
  constexpr std::array<int, 4> kSweepMs = {10, 30, 50, 100};
  for (int ms : kSweepMs) {
    harness::RunConfig cfg;
    cfg.spec = server_specs[0];
    cfg.client_connections = 1;
    cfg.client_pipeline = 1;
    cfg.measure = measure_seconds();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.nilicon.epoch_length = nlc::milliseconds(ms);
    cfg.nilicon.commit_mode = core::CommitMode::kEpoch;
    cfgs.push_back(cfg);
    cfg.nilicon.commit_mode = core::CommitMode::kReplay;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("table6_latency");
  int gate_failures = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& stock = rs[i * 3];
    const auto& epoch = rs[i * 3 + 1];
    const auto& replay = rs[i * 3 + 2];
    json.point(server_specs[i].name + "_stock", stock.latencies_ms);
    json.point(server_specs[i].name + "_epoch", epoch.latencies_ms);
    json.point(server_specs[i].name + "_replay", replay.latencies_ms);

    std::printf("%-10s | %6.1fms (%5.1f)    | %6.1fms (%5.1f)    | "
                "%6.1fms p99=%.1f\n",
                server_specs[i].name.c_str(), stock.mean_latency_ms,
                kPaper[i].stock_ms, epoch.mean_latency_ms,
                kPaper[i].nilicon_ms, replay.mean_latency_ms,
                replay.latencies_ms.percentile(99));

    // Gate 1: releasing on log ack must beat waiting for epoch commit.
    if (!(replay.latencies_ms.percentile(99) <
          epoch.latencies_ms.percentile(99))) {
      std::printf("  GATE FAIL: %s replay p99 %.2fms !< epoch p99 %.2fms\n",
                  server_specs[i].name.c_str(),
                  replay.latencies_ms.percentile(99),
                  epoch.latencies_ms.percentile(99));
      ++gate_failures;
    }
    // Gate 2: the median replay-mode request must be within 2x of running
    // unreplicated — it pays only the log-ack round trip.
    double p50_ratio = stock.latencies_ms.percentile(50) > 0
                           ? replay.latencies_ms.percentile(50) /
                                 stock.latencies_ms.percentile(50)
                           : 0.0;
    double p99_ratio = stock.latencies_ms.percentile(99) > 0
                           ? replay.latencies_ms.percentile(99) /
                                 stock.latencies_ms.percentile(99)
                           : 0.0;
    json.scalar(server_specs[i].name + "_replay_vs_stock_p50_ratio",
                p50_ratio);
    json.scalar(server_specs[i].name + "_replay_vs_stock_p99_ratio",
                p99_ratio);
    // Which percentile is meaningfully comparable per app (header note):
    // p50 unless the median request spans epochs (djcms); p99 where the
    // tail is service time, not the frozen window.
    const bool gate_p50 = server_specs[i].name != "djcms";
    const bool gate_p99 = server_specs[i].name == "ssdb" ||
                          server_specs[i].name == "lighttpd" ||
                          server_specs[i].name == "djcms";
    std::printf("  replay/stock: p50 %.2fx%s, p99 %.2fx%s\n", p50_ratio,
                gate_p50 ? " (gated <= 2x)" : "", p99_ratio,
                gate_p99 ? " (gated <= 2x)" : "");
    if (gate_p50 && !(p50_ratio <= 2.0)) {
      std::printf("  GATE FAIL: %s replay p50 %.2fx stock (gate <= 2x)\n",
                  server_specs[i].name.c_str(), p50_ratio);
      ++gate_failures;
    }
    if (gate_p99 && !(p99_ratio <= 2.0)) {
      std::printf("  GATE FAIL: %s replay p99 %.2fx stock (gate <= 2x)\n",
                  server_specs[i].name.c_str(), p99_ratio);
      ++gate_failures;
    }
  }

  std::printf("\nEpoch-length sweep (redis, single client):\n");
  std::printf("%-10s | %-22s | %-22s\n", "epoch", "epoch-commit p50/p99",
              "replay-commit p50/p99");
  for (std::size_t k = 0; k < kSweepMs.size(); ++k) {
    const auto& epoch = rs[15 + k * 2];
    const auto& replay = rs[15 + k * 2 + 1];
    char label[32];
    std::snprintf(label, sizeof label, "redis_sweep_%dms", kSweepMs[k]);
    json.point(std::string(label) + "_epoch", epoch.latencies_ms);
    json.point(std::string(label) + "_replay", replay.latencies_ms);
    std::printf("%7dms  | %7.1f / %-7.1fms    | %7.1f / %-7.1fms\n",
                kSweepMs[k], epoch.latencies_ms.percentile(50),
                epoch.latencies_ms.percentile(99),
                replay.latencies_ms.percentile(50),
                replay.latencies_ms.percentile(99));
  }

  std::printf("\nShape check: epoch-commit latency tracks the epoch length\n"
              "(a response waits ~epoch/2 + commit for release); replay\n"
              "commit stays flat — output waits only on the log ack.\n");
  footer();
  json.write();
  if (gate_failures > 0) {
    std::printf("FAILED: %d latency gate(s) violated\n", gate_failures);
    return 1;
  }
  return 0;
}
