// Ablation of NiLiCon mechanisms outside Table I's performance staircase:
//
//  * §V-E RTO clamp: recovery latency with the 2-line kernel change vs the
//    stock >= 1s repaired-socket timeout;
//  * §III recovery-time input blocking: connection survival with vs
//    without it (without it, packets arriving between netns and socket
//    restore draw RSTs);
//  * §III DNC file-system-cache handling vs stock CRIU's flush-to-NAS:
//    per-epoch stop cost on a disk-intensive workload.
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

harness::RunConfig fault_cfg(const apps::AppSpec& spec, core::Options opts,
                             std::uint64_t seed) {
  harness::RunConfig cfg;
  cfg.spec = spec;
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.nilicon = opts;
  cfg.measure = nlc::seconds(5);
  cfg.inject_fault = true;
  cfg.kv_validation = spec.kv_pages > 0;
  cfg.client_connections = 4;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Ablation: RTO clamp, recovery input blocking, DNC fs-cache",
         "NiLiCon paper §III / §V-E (design-choice ablations)");

  // ---- §V-E: repaired-socket RTO ------------------------------------------
  {
    apps::AppSpec spec = apps::netecho_spec();
    Samples with_fix, without_fix;
    std::vector<harness::RunConfig> cfgs;
    for (int i = 0; i < runs(3, 8); ++i) {
      core::Options opts;
      opts.rto_repair_fix = true;
      cfgs.push_back(fault_cfg(spec, opts, 100 + static_cast<std::uint64_t>(i)));
      opts.rto_repair_fix = false;
      cfgs.push_back(fault_cfg(spec, opts, 100 + static_cast<std::uint64_t>(i)));
    }
    auto rs = run_all(cfgs);
    for (std::size_t i = 0; i < rs.size(); i += 2) {
      const auto& a = rs[i];
      const auto& b = rs[i + 1];
      if (a.recovered && a.interruption > 0) {
        with_fix.add(to_millis(a.interruption));
      }
      if (b.recovered && b.interruption > 0) {
        without_fix.add(to_millis(b.interruption));
      }
    }
    std::printf("repaired-socket RTO clamp (§V-E):\n");
    std::printf("  with fix (200ms RTO):    interruption %7.0fms mean\n",
                with_fix.empty() ? 0.0 : with_fix.mean());
    std::printf("  without (>=1s RTO):      interruption %7.0fms mean\n",
                without_fix.empty() ? 0.0 : without_fix.mean());
    std::printf("  expected: several hundred ms saved by the 2-line change\n\n");
  }

  // ---- §III: input blocking during recovery --------------------------------
  {
    apps::AppSpec spec = apps::netecho_spec();
    spec.kv_pages = 256;
    int broken_with = 0, broken_without = 0, n = runs(3, 8);
    std::vector<harness::RunConfig> cfgs;
    for (int i = 0; i < n; ++i) {
      core::Options opts;
      opts.block_input_during_recovery = true;
      cfgs.push_back(fault_cfg(spec, opts, 200 + static_cast<std::uint64_t>(i)));
      opts.block_input_during_recovery = false;
      cfgs.push_back(fault_cfg(spec, opts, 200 + static_cast<std::uint64_t>(i)));
    }
    auto rs = run_all(cfgs);
    for (std::size_t i = 0; i < rs.size(); i += 2) {
      broken_with += rs[i].broken_connections > 0;
      broken_without += rs[i + 1].broken_connections > 0;
    }
    std::printf("input blocking during recovery (§III):\n");
    std::printf("  blocked:   %d/%d trials broke a connection\n",
                broken_with, n);
    std::printf("  unblocked: %d/%d trials broke a connection (RST in the\n"
                "             netns-up/socket-missing window)\n\n",
                broken_without, n);
  }

  // ---- §III: DNC vs flush-to-NAS -------------------------------------------
  {
    apps::AppSpec spec = apps::ssdb_spec();  // disk-intensive
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = measure_seconds();
    std::vector<harness::RunConfig> cfgs;
    cfgs.push_back(cfg);
    cfg.nilicon.fs_cache_via_dnc = false;
    cfgs.push_back(cfg);
    auto rs = run_all(cfgs);
    const auto& dnc = rs[0];
    const auto& nas = rs[1];
    std::printf("file-system-cache handling on ssdb (§III):\n");
    std::printf("  DNC + fgetfc:   stop %6.1fms/epoch\n",
                dnc.metrics.stop_time_ms.mean());
    std::printf("  flush to NAS:   stop %6.1fms/epoch\n",
                nas.metrics.stop_time_ms.mean());
    std::printf("  expected: the NAS flush adds tens of ms per epoch on\n"
                "  disk-intensive workloads (the paper calls it prohibitive)\n");
  }
  footer();
  BenchJson("ablation_mechanisms").write();
  return 0;
}
