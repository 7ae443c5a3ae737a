// Table V: core utilization on the active (primary) and backup hosts under
// NiLiCon.
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

struct PaperRow {
  double active, backup;
};
constexpr std::array<PaperRow, 7> kPaper = {{
    {3.96, 0.07},  // swaptions
    {3.91, 0.08},  // streamcluster
    {0.98, 0.28},  // redis
    {1.70, 0.12},  // ssdb
    {1.01, 0.40},  // node
    {3.95, 0.18},  // lighttpd
    {1.41, 0.26},  // djcms
}};
}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table V: core utilization, active vs backup host",
         "NiLiCon paper, Table V");
  std::printf("%-14s | %-24s | %-24s\n", "benchmark", "active cores (paper)",
              "backup cores (paper)");
  std::printf("----------------------------------------------------------"
              "--------\n");

  auto specs = apps::paper_benchmarks();
  std::vector<harness::RunConfig> cfgs;
  for (const auto& spec : specs) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.measure = measure_seconds();
    cfg.batch_work = batch_seconds();
    // The paper's "active" column is measured on a host running the
    // benchmark WITHOUT replication (§VII-C); backup under NiLiCon.
    cfg.mode = harness::Mode::kStock;
    cfgs.push_back(cfg);
    cfg.mode = harness::Mode::kNiLiCon;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("table5_cpu");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& stock = rs[i * 2];
    const auto& nil = rs[i * 2 + 1];
    json.point(specs[i].name + "_active_cores", stock.active_cores);
    json.point(specs[i].name + "_backup_cores", nil.backup_cores);
    std::printf("%-14s |   %5.2f (%5.2f)        |   %5.2f (%5.2f)\n",
                specs[i].name.c_str(), stock.active_cores, kPaper[i].active,
                nil.backup_cores, kPaper[i].backup);
  }
  std::printf("\nShape check: backup utilization is a small fraction of the\n"
              "active host's — the warm-spare advantage over active\n"
              "replication (§VIII).\n");
  footer();
  json.write();
  return 0;
}
