// §VII-A validation: fault injection across the benchmark suite plus the
// two microbenchmarks. A fail-stop fault at a uniform-random point of the
// middle 80% of the run must always yield full recovery: no lost
// acknowledged writes, no broken TCP connections, no disk/memory
// inconsistency, and post-failover progress.
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

struct Tally {
  int attempts = 0;
  int recovered = 0;
  int progressed = 0;
  std::uint64_t kv_errors = 0;
  std::uint64_t broken = 0;
  std::uint64_t disk_errors = 0;
};

Tally run_workload(const apps::AppSpec& spec, bool kv, bool diskstress,
                   int n) {
  Tally t;
  std::vector<harness::RunConfig> cfgs;
  for (int i = 0; i < n; ++i) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = nlc::seconds(5);
    cfg.batch_work = nlc::seconds(2);
    cfg.inject_fault = true;
    cfg.kv_validation = kv;
    cfg.with_diskstress = diskstress;
    if (kv) cfg.client_connections = 4;
    cfg.seed = 7'000 + static_cast<std::uint64_t>(i) * 13;
    cfgs.push_back(cfg);
  }
  for (const auto& r : run_all(cfgs)) {
    ++t.attempts;
    if (r.recovered) ++t.recovered;
    bool progressed = spec.interactive ? r.requests_after_fault > 0
                                       : r.batch_runtime > 0;
    if (progressed) ++t.progressed;
    t.kv_errors += r.kv_errors;
    t.broken += r.broken_connections;
    t.disk_errors += r.diskstress_errors +
                     r.diskstress_post_failover_mismatches;
  }
  return t;
}

void print_row(const char* name, const Tally& t) {
  std::printf("%-16s | %3d/%3d recovered | %3d progressed | %4llu kv errs | "
              "%3llu broken conns | %3llu disk errs\n",
              name, t.recovered, t.attempts, t.progressed,
              static_cast<unsigned long long>(t.kv_errors),
              static_cast<unsigned long long>(t.broken),
              static_cast<unsigned long long>(t.disk_errors));
}

}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Validation: recovery rate under fail-stop fault injection",
         "NiLiCon paper, §VII-A (paper: 100% over 50 runs/benchmark)");
  int n = runs(2, 50);
  std::printf("(%d trials per workload; NLC_BENCH_FULL=1 for the 50-run "
              "matrix)\n\n", n);

  BenchJson json("validation_recovery");
  auto report = [&json](const char* name, const Tally& t) {
    print_row(name, t);
    json.point(std::string(name) + "_recovered_frac",
               t.attempts > 0
                   ? static_cast<double>(t.recovered) / t.attempts
                   : 0.0);
  };
  // Microbenchmark 1: disk + fs cache + heap consistency.
  {
    apps::AppSpec quiet = apps::netecho_spec();
    Tally t = run_workload(quiet, /*kv=*/false, /*diskstress=*/true, n);
    report("diskstress", t);
  }
  // Microbenchmark 2: network stack + server stack memory (echo + KV).
  {
    apps::AppSpec echo = apps::netecho_spec();
    echo.kv_pages = 512;
    Tally t = run_workload(echo, /*kv=*/true, false, n);
    report("netecho(kv)", t);
  }
  // KV validation on the KV stores; plain fault injection elsewhere.
  for (const auto& spec : apps::paper_benchmarks()) {
    bool kv = spec.kv_pages > 0;
    Tally t = run_workload(spec, kv, false, n);
    report(spec.name.c_str(), t);
  }
  std::printf("\nPass criterion: every trial recovers, progresses, and shows\n"
              "zero KV/broken-connection/disk errors.\n");
  footer();
  json.write();
  return 0;
}
