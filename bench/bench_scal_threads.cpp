// §VII-C thread scalability: streamcluster with 1..32 worker threads (one
// core per thread). The paper reports overhead growing 23% -> 52%, driven
// by per-thread state retrieval (148us -> 4ms), pagemap scans growing with
// the footprint (1441us -> 2887us), and more dirty pages per epoch
// (121 -> 495).
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;
  expect_no_args(argc, argv);
  header("Scalability: streamcluster, 1..32 threads",
         "NiLiCon paper, §VII-C (23% -> 52% overhead)");
  std::printf("%-8s | %-10s | %-12s | %-12s\n", "threads", "overhead",
              "stop (ms)", "dpages/epoch");
  std::printf("------------------------------------------------\n");

  const int points[] = {1, 2, 4, 8, 16, 32};
  std::vector<harness::RunConfig> cfgs;
  for (int threads : points) {
    apps::AppSpec spec = apps::streamcluster_spec();
    spec.threads_per_process = threads;
    spec.cores = threads;
    // Footprint grows with threads (49K pages @1 thread -> 111K @32).
    spec.mapped_pages = 49'000 + static_cast<std::uint64_t>(threads) * 1'940;

    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.batch_work = batch_seconds();
    cfg.mode = harness::Mode::kStock;
    cfgs.push_back(cfg);
    cfg.mode = harness::Mode::kNiLiCon;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("scal_threads");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    const auto& stock = rs[i * 2];
    const auto& nil = rs[i * 2 + 1];
    double overhead = static_cast<double>(nil.batch_runtime) /
                          static_cast<double>(stock.batch_runtime) -
                      1.0;
    json.point("threads_" + std::to_string(points[i]), overhead);
    std::printf("%-8d | %8.1f%% | %10.2f | %10.0f\n", points[i],
                overhead * 100.0, nil.metrics.stop_time_ms.mean(),
                nil.metrics.dirty_pages.mean());
  }
  std::printf("\nShape check: overhead roughly doubles from 1 to 32 threads\n"
              "(paper: 23%% -> 52%%), with stop time and dirty pages rising.\n");
  footer();
  json.write();
  return 0;
}
