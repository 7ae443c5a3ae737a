// Table III: average stop time and dirty pages per epoch, MC vs NiLiCon.
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;
using harness::Mode;

struct PaperRow {
  double stop_mc_ms, stop_nil_ms;
  double dpages_mc, dpages_nil;
};
// Table III, column order of paper_benchmarks().
constexpr std::array<PaperRow, 7> kPaper = {{
    {2.4, 5.1, 212, 46},        // swaptions
    {3.0, 7.4, 462, 303},       // streamcluster
    {9.3, 18.9, 6200, 6300},    // redis
    {3.0, 10.4, 1107, 590},     // ssdb
    {9.4, 38.2, 6400, 5400},    // node
    {4.8, 25.0, 2900, 1600},    // lighttpd
    {4.5, 19.1, 2800, 3000},    // djcms
}};
}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table III: average stop time & dirty pages per epoch",
         "NiLiCon paper, Table III");
  std::printf("%-14s | %-26s | %-26s | %-22s | %-22s\n", "benchmark",
              "stop MC (paper)", "stop NiLiCon (paper)", "dpages MC (paper)",
              "dpages NiLiCon (paper)");
  std::printf("--------------------------------------------------------------"
              "--------------------------------------------------\n");

  auto specs = apps::paper_benchmarks();
  std::vector<harness::RunConfig> cfgs;
  for (const auto& spec : specs) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.measure = measure_seconds();
    cfg.batch_work = batch_seconds();
    cfg.mode = Mode::kNiLiCon;
    cfgs.push_back(cfg);
    cfg.mode = Mode::kMc;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("table3_stoptime");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& nil = rs[i * 2];
    const auto& mc = rs[i * 2 + 1];
    json.point(specs[i].name + "_stop_ms_nilicon", nil.metrics.stop_time_ms);
    json.point(specs[i].name + "_stop_ms_mc", mc.metrics.stop_time_ms);
    std::printf("%-14s | %7.1fms (%5.1fms)      | %7.1fms (%5.1fms)      | "
                "%7.0f (%6.0f)      | %7.0f (%6.0f)\n",
                specs[i].name.c_str(), mc.metrics.stop_time_ms.mean(),
                kPaper[i].stop_mc_ms, nil.metrics.stop_time_ms.mean(),
                kPaper[i].stop_nil_ms, mc.metrics.dirty_pages.mean(),
                kPaper[i].dpages_mc, nil.metrics.dirty_pages.mean(),
                kPaper[i].dpages_nil);
  }
  std::printf("\nShape check: NiLiCon stop time exceeds MC's everywhere (the\n"
              "slow in-kernel state interfaces, §V); MC usually dirties more\n"
              "pages (guest kernel activity).\n");
  footer();
  json.write();
  return 0;
}
