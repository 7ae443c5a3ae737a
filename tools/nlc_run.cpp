// nlc_run — command-line driver for single experiments.
//
//   nlc_run --workload redis --mode nilicon --seconds 8 --seed 3
//   nlc_run --workload streamcluster --mode mc --batch-seconds 4
//   nlc_run --workload netecho --mode nilicon --fault --kv
//   nlc_run --list
//
// Prints one experiment's results as both a human summary and a single
// JSON line (machine-scrapable for scripting sweeps).
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace {

using namespace nlc;

std::optional<apps::AppSpec> find_spec(const std::string& name) {
  if (name == "netecho") return apps::netecho_spec();
  for (const auto& s : apps::paper_benchmarks()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

const cli::Usage kUsage{
    "nlc_run",
    "usage: nlc_run [options]\n"
    "  --workload NAME    swaptions|streamcluster|redis|ssdb|node|\n"
    "                     lighttpd|djcms|netecho (default: netecho)\n"
    "  --mode MODE        stock|nilicon|mc (default: nilicon)\n"
    "  --seconds N        measurement window for servers (default 6)\n"
    "  --batch-seconds N  per-thread CPU quota for batch apps (default 3)\n"
    "  --epoch-ms N       nilicon mode only: epoch length (default 30)\n"
    "  --epoch-policy P   nilicon mode only: fixed|adaptive (default\n"
    "                     fixed; adaptive = trace-driven epoch-length\n"
    "                     controller, DESIGN.md §15)\n"
    "  --commit M         nilicon mode only: output-commit scheme:\n"
    "                     epoch|replay (default epoch; replay = HyCoR-style\n"
    "                     event-log release, DESIGN.md §14)\n"
    "  --opt-level N      nilicon mode only: Table I cumulative\n"
    "                     optimization row 0..7 (7 = all + delta-compressed\n"
    "                     dirty pages)\n"
    "  --clients N        override client connections\n"
    "  --pipeline N       override per-connection request pipeline\n"
    "  --seed N           RNG seed (default 1)\n"
    "  --replicas N       nilicon mode only: backup replica count 1..16\n"
    "                     (default 1; N>1 enables quorum output commit,\n"
    "                     DESIGN.md §16)\n"
    "  --quorum K         nilicon mode only: replica acks required to\n"
    "                     release output, 0..N (default 0 = majority of N)\n"
    "  --topology T       nilicon mode only: replication wiring:\n"
    "                     star|chain (default star)\n"
    "  --fault            inject a fail-stop fault mid-run\n"
    "  --fault-kind F     what fails with --fault: primary|backup|rack|\n"
    "                     double (default primary; the others need\n"
    "                     --mode nilicon and --replicas 2 or more)\n"
    "  --audit L          nilicon mode only: attach the invariant auditor:\n"
    "                     off|commit|continuous (default off; violations\n"
    "                     exit 1)\n"
    "  --kv               validating KV payloads (at most one client\n"
    "                     connection per KV page; 512 pages on a\n"
    "                     workload without a store)\n"
    "  --diskstress       run the disk/memory consistency microbenchmark\n"
    "  --trace FILE       record a flight-recorder trace and write it as\n"
    "                     Chrome trace-event JSON (open in Perfetto:\n"
    "                     ui.perfetto.dev); also prints the per-epoch\n"
    "                     critical-path table (--trace=FILE works too)\n"
    "  --list             list workloads and exit\n"};

}  // namespace

int main(int argc, char** argv) {
  harness::RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.measure = nlc::seconds(6);
  cfg.batch_work = nlc::seconds(3);
  std::string trace_path;
  bool fault_kind_given = false;
  // The first NiLiCon-only flag given, checked against --mode after the
  // loop so the order of the arguments does not matter.
  std::string nilicon_flag;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) kUsage.fail("missing value for " + arg);
      return argv[++i];
    };
    auto next_int = [&](long long lo, long long hi) {
      return kUsage.parse_int(arg, next(), lo, hi);
    };
    for (const char* f : {"--epoch-ms", "--epoch-policy", "--commit",
                          "--opt-level", "--replicas", "--quorum",
                          "--topology", "--audit"}) {
      if (arg == f && nilicon_flag.empty()) nilicon_flag = arg;
    }
    if (arg == "--workload") {
      const char* name = next();
      auto spec = find_spec(name);
      if (!spec) {
        kUsage.fail("unknown workload '" + std::string(name) + "'");
      }
      cfg.spec = *spec;
    } else if (arg == "--mode") {
      std::string m = next();
      if (m == "stock") cfg.mode = harness::Mode::kStock;
      else if (m == "nilicon") cfg.mode = harness::Mode::kNiLiCon;
      else if (m == "mc") cfg.mode = harness::Mode::kMc;
      else kUsage.fail("unknown mode '" + m + "'");
    } else if (arg == "--seconds") {
      cfg.measure = nlc::seconds(next_int(1, 3600));
    } else if (arg == "--batch-seconds") {
      cfg.batch_work = nlc::seconds(next_int(1, 3600));
    } else if (arg == "--epoch-ms") {
      cfg.nilicon.epoch_length = nlc::milliseconds(next_int(1, 10000));
    } else if (arg == "--epoch-policy") {
      std::string p = next();
      if (p == "fixed") cfg.nilicon.epoch_policy = core::EpochPolicy::kFixed;
      else if (p == "adaptive")
        cfg.nilicon.epoch_policy = core::EpochPolicy::kAdaptive;
      else kUsage.fail("unknown epoch policy '" + p + "'");
    } else if (arg == "--commit") {
      std::string m = next();
      if (m == "epoch") cfg.nilicon.commit_mode = core::CommitMode::kEpoch;
      else if (m == "replay")
        cfg.nilicon.commit_mode = core::CommitMode::kReplay;
      else kUsage.fail("unknown commit mode '" + m + "'");
    } else if (arg == "--opt-level") {
      cfg.nilicon.set_table1_row(static_cast<int>(next_int(0, 7)));
    } else if (arg == "--clients") {
      cfg.client_connections = static_cast<int>(next_int(1, 100000));
    } else if (arg == "--pipeline") {
      cfg.client_pipeline = static_cast<int>(next_int(1, 4096));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(
          next_int(0, std::numeric_limits<long long>::max()));
    } else if (arg == "--replicas") {
      cfg.nilicon.replicas = static_cast<int>(next_int(1, 16));
    } else if (arg == "--quorum") {
      cfg.nilicon.quorum_k = static_cast<int>(next_int(0, 16));
    } else if (arg == "--topology") {
      const char* t = next();
      if (!topo::parse_topology(t, &cfg.nilicon.topology)) {
        kUsage.fail("unknown topology '" + std::string(t) + "'");
      }
    } else if (arg == "--fault") {
      cfg.inject_fault = true;
    } else if (arg == "--fault-kind") {
      std::string f = next();
      if (f == "primary") cfg.fault_kind = harness::FaultKind::kPrimary;
      else if (f == "backup") cfg.fault_kind = harness::FaultKind::kBackup;
      else if (f == "rack") cfg.fault_kind = harness::FaultKind::kRack;
      else if (f == "double") cfg.fault_kind = harness::FaultKind::kDouble;
      else kUsage.fail("unknown fault kind '" + f + "'");
      fault_kind_given = true;
    } else if (arg == "--audit") {
      std::string l = next();
      if (l == "off") cfg.nilicon.audit_level = core::AuditLevel::kOff;
      else if (l == "commit")
        cfg.nilicon.audit_level = core::AuditLevel::kCommitPoints;
      else if (l == "continuous")
        cfg.nilicon.audit_level = core::AuditLevel::kContinuous;
      else kUsage.fail("unknown audit level '" + l + "'");
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      trace_path = arg == "--trace" ? next()
                                    : arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) kUsage.fail("empty path for --trace");
      cfg.nilicon.trace_level = core::TraceLevel::kFull;
    } else if (arg == "--kv") {
      cfg.kv_validation = true;
    } else if (arg == "--diskstress") {
      cfg.with_diskstress = true;
    } else if (arg == "--list") {
      std::printf("netecho\n");
      for (const auto& s : apps::paper_benchmarks()) {
        std::printf("%s\n", s.name.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage.text().c_str(), stdout);
      return 0;
    } else {
      kUsage.fail("unknown argument '" + arg + "'");
    }
  }
  if (!trace_path.empty() && cfg.mode != harness::Mode::kNiLiCon) {
    kUsage.fail("--trace requires --mode nilicon (stock and mc trace nothing)");
  }
  if (!nilicon_flag.empty() && cfg.mode != harness::Mode::kNiLiCon) {
    kUsage.fail(nilicon_flag + " requires --mode nilicon");
  }
  if (fault_kind_given && !cfg.inject_fault) {
    kUsage.fail("--fault-kind requires --fault");
  }
  if (!harness::fault_kind_fits(cfg)) {
    kUsage.fail(std::string("--fault-kind ") +
                harness::fault_kind_name(cfg.fault_kind) +
                " requires --mode nilicon and --replicas 2 or more");
  }
  if (cfg.nilicon.quorum_k > cfg.nilicon.replicas) {
    kUsage.fail("--quorum " + std::to_string(cfg.nilicon.quorum_k) +
         " exceeds --replicas " + std::to_string(cfg.nilicon.replicas));
  }

  if (cfg.kv_validation && cfg.spec.kv_pages == 0) {
    cfg.spec.kv_pages = 512;  // give non-KV workloads a store to validate
  }
  if (cfg.kv_validation) {
    // Each validating connection owns a disjoint key range, one page per
    // key, so it needs at least one KV page of its own.
    const int clients =
        cfg.client_connections.value_or(cfg.spec.saturation_clients);
    if (static_cast<std::uint64_t>(clients) > cfg.spec.kv_pages) {
      kUsage.fail("--kv with " + std::to_string(clients) +
                  " client connections needs a KV page each, but the " +
                  cfg.spec.name + " store has " +
                  std::to_string(cfg.spec.kv_pages));
    }
  }
  harness::RunResult r;
  try {
    r = harness::run_experiment(cfg);
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "AUDIT VIOLATION: %s\n", e.what());
    return 1;
  }

  std::printf("workload=%s mode=%s seed=%llu\n", cfg.spec.name.c_str(),
              harness::mode_name(cfg.mode),
              static_cast<unsigned long long>(cfg.seed));
  if (cfg.spec.interactive) {
    std::printf("throughput: %.1f req/s, mean latency %.2fms, "
                "%llu requests\n",
                r.throughput_rps, r.mean_latency_ms,
                static_cast<unsigned long long>(r.requests_completed));
  } else {
    std::printf("batch runtime: %.3fs (ideal %.3fs, overhead %.1f%%)\n",
                to_seconds(r.batch_runtime), to_seconds(r.batch_ideal),
                (static_cast<double>(r.batch_runtime) /
                     static_cast<double>(r.batch_ideal) -
                 1.0) * 100.0);
  }
  if (cfg.mode != harness::Mode::kStock) {
    std::printf("epochs: %llu, stop %.2fms, state %.0f bytes, "
                "dirty pages %.0f, backup %.2f cores\n",
                static_cast<unsigned long long>(r.metrics.epochs_completed),
                r.metrics.stop_time_ms.empty()
                    ? 0.0 : r.metrics.stop_time_ms.mean(),
                r.metrics.state_bytes.empty()
                    ? 0.0 : r.metrics.state_bytes.mean(),
                r.metrics.dirty_pages.empty()
                    ? 0.0 : r.metrics.dirty_pages.mean(),
                r.backup_cores);
    if (cfg.nilicon.epoch_policy == core::EpochPolicy::kAdaptive &&
        cfg.mode == harness::Mode::kNiLiCon) {
      // Chosen-lengths histogram: lengths are quantized (1 ms epoch-mode,
      // 10 ms replay-mode), so distinct values are few — print each with
      // its epoch count.
      std::map<long long, std::uint64_t> hist;
      for (double v : r.metrics.epoch_len_ms.values()) {
        ++hist[static_cast<long long>(v + 0.5)];
      }
      std::string h;
      for (const auto& [ms, n] : hist) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%lldms:%llu", h.empty() ? "" : " ",
                      ms, static_cast<unsigned long long>(n));
        h += buf;
      }
      std::printf("epoch controller: final %.0fms, converged@epoch %llu, "
                  "+%llu/-%llu steps, lengths {%s}\n",
                  to_millis(r.metrics.ctl_final_epoch_len),
                  static_cast<unsigned long long>(
                      r.metrics.ctl_last_change_epoch),
                  static_cast<unsigned long long>(r.metrics.ctl_grow_steps),
                  static_cast<unsigned long long>(r.metrics.ctl_shrink_steps),
                  h.c_str());
    }
    if (cfg.mode == harness::Mode::kNiLiCon && cfg.nilicon.replicas > 1) {
      std::string lags;
      for (std::size_t i = 0; i < r.metrics.replica_ack_lag.size(); ++i) {
        const auto& s = r.metrics.replica_ack_lag[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%zu:%.2f", lags.empty() ? "" : " ",
                      i, s.empty() ? 0.0 : s.mean());
        lags += buf;
      }
      std::printf("replication: N=%d K=%d topology=%s, quorum wait "
                  "%.3f/%.3fms (mean/p99), ack lag {%s} epochs, "
                  "fan-out %llu wire bytes\n",
                  cfg.nilicon.replicas, cfg.nilicon.resolved_quorum(),
                  topo::topology_name(cfg.nilicon.topology),
                  r.metrics.quorum_wait_ms.empty()
                      ? 0.0 : r.metrics.quorum_wait_ms.mean(),
                  r.metrics.quorum_wait_ms.empty()
                      ? 0.0 : r.metrics.quorum_wait_ms.percentile(99),
                  lags.c_str(),
                  static_cast<unsigned long long>(
                      r.metrics.wire_bytes_fanout));
    }
    if (cfg.nilicon.commit_mode == core::CommitMode::kReplay) {
      std::printf("event log: %llu entries in %llu segments, %llu bytes, "
                  "release latency %.3fms (epoch commit %.2fms)\n",
                  static_cast<unsigned long long>(
                      r.metrics.log_entries_recorded),
                  static_cast<unsigned long long>(
                      r.metrics.log_segments_shipped),
                  static_cast<unsigned long long>(r.metrics.log_bytes_shipped),
                  r.metrics.log_commit_latency_ms.empty()
                      ? 0.0 : r.metrics.log_commit_latency_ms.mean(),
                  r.metrics.commit_latency_ms.empty()
                      ? 0.0 : r.metrics.commit_latency_ms.mean());
      std::printf("log retention: peak %llu bytes, %llu segments pruned\n",
                  static_cast<unsigned long long>(
                      r.metrics.log_retained_bytes_peak),
                  static_cast<unsigned long long>(
                      r.metrics.log_pruned_segments));
    }
  }
  if (cfg.inject_fault) {
    std::printf("fault: kind=%s recovered=%s interruption=%.0fms "
                "kv_errors=%llu broken=%llu disk_errors=%llu\n",
                harness::fault_kind_name(cfg.fault_kind),
                r.recovered ? "yes" : "NO", to_millis(r.interruption),
                static_cast<unsigned long long>(r.kv_errors),
                static_cast<unsigned long long>(r.broken_connections),
                static_cast<unsigned long long>(
                    r.diskstress_errors +
                    r.diskstress_post_failover_mismatches));
    if (r.recovered && cfg.nilicon.replicas > 1) {
      std::printf("failover: promoted replica %d, re-silvered %llu "
                  "survivors (%llu bytes, %.1fms)\n",
                  r.recovery.promoted_replica,
                  static_cast<unsigned long long>(
                      r.recovery.replicas_resilvered),
                  static_cast<unsigned long long>(r.recovery.resilver_bytes),
                  to_millis(r.recovery.resilver_time));
    }
  }

  if (r.audited) {
    std::printf("audit: %llu invariant checks, 0 violations\n",
                static_cast<unsigned long long>(r.audit.total()));
  }

  if (!trace_path.empty()) {
    NLC_CHECK(r.trace != nullptr);
    if (!trace::write_chrome_trace(trace_path, *r.trace)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
    const std::vector<trace::Event>& events = r.trace->drain();
    std::printf("trace: %zu events (%llu dropped) -> %s\n", events.size(),
                static_cast<unsigned long long>(r.trace->dropped()),
                trace_path.c_str());
    std::printf("%s", trace::CriticalPath(events).table().c_str());
  }

  // Machine-readable line.
  std::printf(
      "JSON {\"workload\":\"%s\",\"mode\":\"%s\",\"seed\":%llu,"
      "\"throughput_rps\":%.3f,\"mean_latency_ms\":%.3f,"
      "\"batch_runtime_s\":%.6f,\"epochs\":%llu,\"stop_ms\":%.3f,"
      "\"dirty_pages\":%.1f,\"recovered\":%s,\"kv_errors\":%llu,"
      "\"broken_connections\":%llu}\n",
      cfg.spec.name.c_str(), harness::mode_name(cfg.mode),
      static_cast<unsigned long long>(cfg.seed), r.throughput_rps,
      r.mean_latency_ms, to_seconds(r.batch_runtime),
      static_cast<unsigned long long>(r.metrics.epochs_completed),
      r.metrics.stop_time_ms.empty() ? 0.0 : r.metrics.stop_time_ms.mean(),
      r.metrics.dirty_pages.empty() ? 0.0 : r.metrics.dirty_pages.mean(),
      r.recovered ? "true" : "false",
      static_cast<unsigned long long>(r.kv_errors),
      static_cast<unsigned long long>(r.broken_connections));
  // A backup crash must NOT fail over (the primary is healthy; the quorum
  // absorbs the loss); every other fault kind must.
  bool failover_ok = cfg.fault_kind == harness::FaultKind::kBackup
                         ? !r.recovered
                         : r.recovered;
  bool ok = !cfg.inject_fault ||
            (failover_ok && r.kv_errors == 0 && r.broken_connections == 0);
  return ok ? 0 : 1;
}
