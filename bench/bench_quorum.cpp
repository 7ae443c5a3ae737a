// N-way quorum replication cost/benefit (DESIGN.md §16).
//
// Sweeps replica count N in {1, 2, 3} over both wiring topologies and
// reports what replication breadth costs on the three axes the design
// argues about:
//
//   wire bytes  — fan-out copies on the replication fabric (star pays
//                 N copies at the primary NIC; chain pays per-hop);
//   commit      — client-visible epoch commit latency, p50/p99 (quorum
//                 K = majority: the K-th fastest replica sets the pace);
//   failover    — client-observed interruption through a primary crash,
//                 plus the winner's re-silver transfer for N = 3.
//
// Gates (default ctest, label bench-smoke):
//   * N = 1 star is the seed engine: throughput and mean commit latency
//     within 3% of a default-Options run (the wiring is byte-identical;
//     3% absorbs nothing but timer noise across compilers);
//   * N = 3 star ships >= 2.5x the wire bytes of N = 1 (the fan-out is
//     real, not accounting fiction);
//   * every fault row fails over with zero KV errors.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace nlc;

double commit_mean(const harness::RunResult& r) {
  return r.metrics.commit_latency_ms.empty()
             ? 0.0
             : r.metrics.commit_latency_ms.mean();
}

double fanout_bytes(const harness::RunResult& r) {
  return static_cast<double>(r.metrics.wire_bytes_fanout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;
  expect_no_args(argc, argv);
  header("Quorum replication: N x topology cost sweep",
         "beyond the paper: NiLiCon two-host testbed -> N-way quorum, "
         "DESIGN.md §16");

  apps::AppSpec spec = apps::netecho_spec();
  spec.kv_pages = 256;

  auto base_cfg = [&](int replicas, topo::Topology t) {
    harness::RunConfig c;
    c.spec = spec;
    c.mode = harness::Mode::kNiLiCon;
    c.measure = measure_seconds();
    c.warmup = nlc::milliseconds(500);
    if (replicas > 1) {
      c.nilicon.replicas = replicas;
      c.nilicon.quorum_k = 0;  // majority
      c.nilicon.topology = t;
    }
    return c;
  };

  struct Row {
    std::string label;
    int replicas;
    topo::Topology topology;
    bool fault;
  };
  std::vector<Row> rows = {
      {"seed-baseline", 0, topo::Topology::kStar, false},
      {"N1/star", 1, topo::Topology::kStar, false},
      {"N2/star", 2, topo::Topology::kStar, false},
      {"N3/star", 3, topo::Topology::kStar, false},
      {"N2/chain", 2, topo::Topology::kChain, false},
      {"N3/chain", 3, topo::Topology::kChain, false},
      {"fault/N1/star", 1, topo::Topology::kStar, true},
      {"fault/N3/star", 3, topo::Topology::kStar, true},
      {"fault/N3/chain", 3, topo::Topology::kChain, true},
  };

  std::vector<harness::RunConfig> cfgs;
  for (const Row& row : rows) {
    harness::RunConfig c = base_cfg(row.replicas, row.topology);
    if (row.replicas == 1) {
      // Explicit degenerate configuration (vs the baseline's defaults).
      c.nilicon.replicas = 1;
      c.nilicon.quorum_k = 1;
      c.nilicon.topology = row.topology;
    }
    if (row.fault) {
      c.inject_fault = true;
      c.kv_validation = true;
      c.client_connections = 3;
      c.seed = 29;
    }
    cfgs.push_back(c);
  }
  std::vector<harness::RunResult> results = run_all(cfgs);

  BenchJson json("quorum");
  std::printf("%-16s %12s %12s %12s %12s %10s\n", "config", "wire MB",
              "commit p50", "commit p99", "failover ms", "resilver");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const harness::RunResult& r = results[i];
    const double p50 = r.metrics.commit_latency_ms.empty()
                           ? 0.0
                           : r.metrics.commit_latency_ms.percentile(50);
    const double p99v = r.metrics.commit_latency_ms.empty()
                            ? 0.0
                            : r.metrics.commit_latency_ms.percentile(99);
    char failover[32] = "-";
    char resilver[32] = "-";
    if (row.fault) {
      std::snprintf(failover, sizeof failover, "%.0f",
                    to_millis(r.interruption));
      std::snprintf(resilver, sizeof resilver, "%llux/%.1fms",
                    static_cast<unsigned long long>(
                        r.recovery.replicas_resilvered),
                    to_millis(r.recovery.resilver_time));
    }
    bench::row("%-16s %12.2f %10.2fms %10.2fms %12s %10s", row.label.c_str(),
               fanout_bytes(r) / 1e6, p50, p99v, failover, resilver);
    json.point(row.label + "/commit_ms", r.metrics.commit_latency_ms);
    json.scalar(row.label + "/wire_bytes_fanout", fanout_bytes(r));
    json.scalar(row.label + "/throughput_rps", r.throughput_rps);
    if (row.fault) {
      json.scalar(row.label + "/interruption_ms", to_millis(r.interruption));
    }
  }

  bool ok = true;
  const harness::RunResult& base = results[0];
  const harness::RunResult& n1 = results[1];
  const harness::RunResult& n3star = results[3];

  // N = 1 must BE the seed engine (same wiring, same decisions).
  if (base.throughput_rps > 0 &&
      std::abs(n1.throughput_rps - base.throughput_rps) >
          0.03 * base.throughput_rps) {
    std::printf("GATE FAIL: N=1 throughput %.1f rps deviates > 3%% from "
                "seed baseline %.1f rps\n",
                n1.throughput_rps, base.throughput_rps);
    ok = false;
  }
  if (commit_mean(base) > 0 &&
      std::abs(commit_mean(n1) - commit_mean(base)) >
          0.03 * commit_mean(base)) {
    std::printf("GATE FAIL: N=1 commit latency %.3fms deviates > 3%% from "
                "seed baseline %.3fms\n",
                commit_mean(n1), commit_mean(base));
    ok = false;
  }
  json.scalar("n1_vs_seed_throughput_ratio",
              base.throughput_rps > 0
                  ? n1.throughput_rps / base.throughput_rps
                  : 0.0);

  // The star fan-out must actually hit the wire.
  const double fan_ratio =
      fanout_bytes(n1) > 0 ? fanout_bytes(n3star) / fanout_bytes(n1) : 0.0;
  if (fan_ratio < 2.5) {
    std::printf("GATE FAIL: N=3 star wire fan-out %.2fx < 2.5x N=1\n",
                fan_ratio);
    ok = false;
  }
  json.scalar("n3_star_fanout_ratio", fan_ratio);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].fault) continue;
    const harness::RunResult& r = results[i];
    if (!r.fault_injected || !r.recovered || r.kv_errors != 0) {
      std::printf("GATE FAIL: %s fault row recovered=%d kv_errors=%llu\n",
                  rows[i].label.c_str(), r.recovered ? 1 : 0,
                  static_cast<unsigned long long>(r.kv_errors));
      ok = false;
    }
  }

  std::printf("\nStar pays N wire copies at the primary NIC for the\n"
              "shortest commit path; chain trades commit latency at the\n"
              "tail for per-hop bandwidth. The quorum keeps the client\n"
              "pinned to the K-th fastest replica either way, and a\n"
              "primary crash promotes the most caught-up survivor.\n");
  footer();
  json.write();
  if (!ok) {
    std::printf("\nBENCH GATES FAILED\n");
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
