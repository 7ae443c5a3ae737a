// §VII-C process scalability: lighttpd with 1..8 worker processes (a core
// per process, clients scaled to keep the server saturated). The paper's
// overhead grows from 23% to 63%: per-process state retrieval, more
// sockets, more dirty pages.
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;
  expect_no_args(argc, argv);
  header("Scalability: lighttpd, 1..8 processes",
         "NiLiCon paper, §VII-C (23% -> 63% overhead)");
  std::printf("%-8s | %-10s | %-12s | %-12s\n", "procs", "overhead",
              "stop (ms)", "dpages/epoch");
  std::printf("--------------------------------------------------\n");

  const int points[] = {1, 2, 4, 8};
  std::vector<harness::RunConfig> cfgs;
  for (int procs : points) {
    apps::AppSpec spec = apps::lighttpd_spec();
    spec.processes = procs;
    spec.cores = procs;
    spec.saturation_clients = procs * 2;  // paper: 2 clients per process
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.measure = measure_seconds();
    cfg.mode = harness::Mode::kStock;
    cfgs.push_back(cfg);
    cfg.mode = harness::Mode::kNiLiCon;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("scal_procs");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    const auto& stock = rs[i * 2];
    const auto& nil = rs[i * 2 + 1];
    double overhead = 1.0 - nil.throughput_rps / stock.throughput_rps;
    json.point("procs_" + std::to_string(points[i]), overhead);
    std::printf("%-8d | %8.1f%% | %10.2f | %10.0f\n", points[i],
                overhead * 100.0, nil.metrics.stop_time_ms.mean(),
                nil.metrics.dirty_pages.mean());
  }
  std::printf("\nShape check: overhead roughly triples from 1 to 8 processes\n"
              "(paper: 23%% -> 63%%).\n");
  footer();
  json.write();
  return 0;
}
