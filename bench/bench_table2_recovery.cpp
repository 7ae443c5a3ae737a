// Table II: recovery latency breakdown (Restore / ARP / TCP / Others) for
// the Net echo microbenchmark and for Redis with ~100MB of uploaded state.
//
// Method (§VII-B): probe clients continuously send single requests; the
// fault is injected mid-run; the service interruption is the probe's
// latency spike over its pre-fault median. Detection (~90ms, 3 x 30ms
// beats) is subtracted; Restore/ARP/Others come from the recovery driver's
// instrumentation and TCP is the residual retransmission wait.
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

struct PaperRow {
  double restore, arp, tcp, others, total;
};

void run_case(const char* label, const apps::AppSpec& spec_in,
              std::uint64_t prefill_pages, const PaperRow& paper,
              BenchJson& json) {
  Samples restore_ms, arp_ms, tcp_ms, others_ms, total_ms;
  int n = runs(3, 10);
  // §VII-B setup: one light stress stream (~30% CPU) plus single-request
  // probes — not the saturation dirtying profile. The committed page set
  // is the uploaded data plus a modest working set.
  apps::AppSpec spec = spec_in;
  if (spec.kv_pages > 0) {
    spec.kv_writes_per_request = 40;
    spec.pages_per_request = 30;
  }
  std::vector<harness::RunConfig> cfgs;
  for (int i = 0; i < n; ++i) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.client_connections = 4;  // the §VII-B probe set
    cfg.client_pipeline = 1;     // single get/set per probe at a time
    cfg.measure = nlc::seconds(6);
    cfg.inject_fault = true;
    cfg.prefill_kv_pages = prefill_pages;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    cfgs.push_back(cfg);
  }
  for (const auto& r : run_all(cfgs)) {
    if (!r.recovered || r.interruption <= 0) continue;

    double interruption = to_millis(r.interruption);
    double detect = to_millis(r.recovery.detection_latency);
    double total = interruption - detect;
    double restore = to_millis(r.recovery.restore_time);
    double arp = to_millis(r.recovery.arp_time);
    double others = to_millis(r.recovery.misc_time);
    double tcp = total - restore - arp - others;
    if (tcp < 0) tcp = 0;
    restore_ms.add(restore);
    arp_ms.add(arp);
    tcp_ms.add(tcp);
    others_ms.add(others);
    total_ms.add(total);
  }
  if (total_ms.empty()) {
    std::printf("%-6s | no successful recovery samples\n", label);
    return;
  }
  json.point(std::string(label) + "_restore_ms", restore_ms);
  json.point(std::string(label) + "_total_ms", total_ms);
  std::printf("%-6s | %6.0fms (%3.0f) | %4.0fms (%2.0f) | %5.0fms (%2.0f) | "
              "%4.0fms (%1.0f) | %6.0fms (%3.0f)\n",
              label, restore_ms.mean(), paper.restore, arp_ms.mean(),
              paper.arp, tcp_ms.mean(), paper.tcp, others_ms.mean(),
              paper.others, total_ms.mean(), paper.total);
}

}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table II: recovery latency breakdown", "NiLiCon paper, Table II");
  std::printf("%-6s | %-15s | %-13s | %-14s | %-13s | %-15s\n", "", "Restore",
              "ARP", "TCP", "Others", "Total");
  std::printf("--------------------------------------------------------------"
              "--------------\n");
  BenchJson json("table2_recovery");
  run_case("Net", apps::netecho_spec(), 0, {218, 28, 54, 7, 307}, json);
  // Redis with ~100MB uploaded: 25600 pre-filled record pages.
  apps::AppSpec redis = apps::redis_spec();
  run_case("Redis", redis, 25'600, {314, 28, 23, 7, 372}, json);
  std::printf("\nDetection latency (~90ms) is measured separately and\n"
              "subtracted, as in the paper.\n");
  footer();
  json.write();
  return 0;
}
