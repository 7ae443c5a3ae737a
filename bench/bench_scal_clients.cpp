// §VII-C client scalability: lighttpd with 4 processes and 2..128
// concurrent clients. The paper's overhead rises from ~34% to 45%, almost
// entirely from socket-state checkpointing (1.2ms @2 clients -> 13ms @128).
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;
  expect_no_args(argc, argv);
  header("Scalability: lighttpd, 2..128 clients",
         "NiLiCon paper, §VII-C (~34% -> 45% overhead)");
  std::printf("%-8s | %-10s | %-12s\n", "clients", "overhead", "stop (ms)");
  std::printf("------------------------------------\n");

  const int points[] = {2, 8, 32, 128};
  std::vector<harness::RunConfig> cfgs;
  for (int clients : points) {
    apps::AppSpec spec = apps::lighttpd_spec();
    spec.saturation_clients = clients;
    // With few clients lighttpd is not CPU-saturated; requests are lighter
    // per connection so more clients genuinely add sockets, not just load.
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.measure = measure_seconds();
    cfg.mode = harness::Mode::kStock;
    cfgs.push_back(cfg);
    cfg.mode = harness::Mode::kNiLiCon;
    cfgs.push_back(cfg);
  }
  auto rs = run_all(cfgs);

  BenchJson json("scal_clients");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    const auto& stock = rs[i * 2];
    const auto& nil = rs[i * 2 + 1];
    double overhead = 1.0 - nil.throughput_rps / stock.throughput_rps;
    json.point("clients_" + std::to_string(points[i]), overhead);
    std::printf("%-8d | %8.1f%% | %10.2f\n", points[i], overhead * 100.0,
                nil.metrics.stop_time_ms.mean());
  }
  std::printf("\nShape check: overhead grows with the client count via\n"
              "socket-state checkpoint time (93us per established socket).\n");
  footer();
  json.write();
  return 0;
}
