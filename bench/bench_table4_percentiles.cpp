// Table IV: stop time and transferred state size per epoch for NiLiCon,
// 10th/50th/90th percentiles.
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"
#include "util/bytes.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

struct PaperRow {
  double stop_ms[3];     // P10, P50, P90
  double state_bytes[3];
};
constexpr double K = 1024.0, M = 1024.0 * 1024.0;
constexpr std::array<PaperRow, 7> kPaper = {{
    {{5.1, 5.1, 5.2}, {189 * K, 193 * K, 201 * K}},          // swaptions
    {{6.3, 6.4, 13.1}, {257 * K, 269 * K, 306 * K}},          // streamcluster
    {{15, 18, 20}, {17.9 * M, 24.2 * M, 30.0 * M}},           // redis
    {{9, 10, 11}, {1.43 * M, 2.88 * M, 3.41 * M}},            // ssdb
    {{38, 41, 46}, {22.7 * M, 24.2 * M, 25.2 * M}},           // node
    {{20, 25, 35}, {2.05 * M, 7.17 * M, 14.65 * M}},          // lighttpd
    {{16, 18, 21}, {53.1 * K, 9.5 * M, 13.3 * M}},            // djcms
}};
}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table IV: NiLiCon stop time and transferred state size, P10/50/90",
         "NiLiCon paper, Table IV");
  std::printf("%-14s | %-30s | %-42s\n", "benchmark",
              "stop ms P10/P50/P90 (paper)", "state P10/P50/P90 (paper)");
  std::printf("--------------------------------------------------------------"
              "--------------------------------\n");

  auto specs = apps::paper_benchmarks();
  std::vector<harness::RunConfig> cfgs;
  for (const auto& spec : specs) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = measure_seconds();
    cfg.batch_work = batch_seconds();
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("table4_percentiles");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = rs[i];
    json.point(specs[i].name + "_stop_ms", r.metrics.stop_time_ms);
    json.point(specs[i].name + "_state_bytes", r.metrics.state_bytes);

    const auto& stop = r.metrics.stop_time_ms;
    const auto& state = r.metrics.state_bytes;
    std::printf(
        "%-14s | %5.1f/%5.1f/%5.1f (%4.1f/%4.1f/%4.1f) | "
        "%8s/%8s/%8s (%8s/%8s/%8s)\n",
        specs[i].name.c_str(), stop.percentile(10), stop.percentile(50),
        stop.percentile(90), kPaper[i].stop_ms[0], kPaper[i].stop_ms[1],
        kPaper[i].stop_ms[2],
        format_bytes(static_cast<std::uint64_t>(state.percentile(10))).c_str(),
        format_bytes(static_cast<std::uint64_t>(state.percentile(50))).c_str(),
        format_bytes(static_cast<std::uint64_t>(state.percentile(90))).c_str(),
        format_bytes(static_cast<std::uint64_t>(kPaper[i].state_bytes[0]))
            .c_str(),
        format_bytes(static_cast<std::uint64_t>(kPaper[i].state_bytes[1]))
            .c_str(),
        format_bytes(static_cast<std::uint64_t>(kPaper[i].state_bytes[2]))
            .c_str());
  }
  std::printf("\nNote: the paper's streamcluster state sizes (~270K) are\n"
              "inconsistent with its own Table III dirty-page count (303\n"
              "pages = 1.2M); we report the mechanistic pages x 4KiB value.\n");
  footer();
  json.write();
  return 0;
}
