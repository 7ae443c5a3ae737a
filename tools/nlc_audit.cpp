// nlc_audit — deterministic seed-sweep driver for the invariant auditor.
//
//   nlc_audit                          # 20 seeds, continuous, crash injection
//   nlc_audit --seeds 40 --base-seed 7
//   nlc_audit --level commit --no-fault
//
// Each seed runs one app from the catalog (rotating through it) under full
// NiLiCon protection with the invariant auditor attached, a fail-stop crash
// injected at a seed-randomized epoch, and the delta codec exercised on odd
// seeds. Every third seed additionally runs N=3/K=2 quorum replication
// with a rotating fault scenario (primary over a chain; backup-crash,
// correlated rack failure and double failure over a star). A run passes
// when the experiment completes without the auditor throwing
// InvariantError, the failover recovered, and the client saw no KV error,
// broken connection or mis-tagged reply; the sweep exits non-zero on the
// first violation, printing the offending seed so the run can be replayed
// under a debugger:
//
//   nlc_audit --seeds 1 --base-seed <seed>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace {

using namespace nlc;

const cli::Usage kUsage{
    "nlc_audit",
    "usage: nlc_audit [options]\n"
    "  --seeds N        number of seeds to sweep, 1..100000 (default 20)\n"
    "  --base-seed N    first seed (default 1)\n"
    "  --level L        commit|continuous audit level (default continuous)\n"
    "  --measure-ms N   measurement window per run, 1..3600000 (default\n"
    "                   1200)\n"
    "  --no-fault       skip crash injection (protocol-only audit)\n"};

/// N-way sweep policy (DESIGN.md §16): every third seed runs N=3/K=2 with
/// a rotating fault scenario — primary crash through the chain topology,
/// then (star) a single backup crash the quorum must absorb, a correlated
/// rack failure, and a backup-then-primary double failure. Chain is kept
/// to the primary-crash kind on purpose: killing a mid-chain replica
/// starves everything downstream of it, so a crashed-backup scenario on a
/// chain would (correctly) stall the quorum instead of testing release.
struct QuorumPolicy {
  bool on = false;
  harness::FaultKind kind = harness::FaultKind::kPrimary;
  topo::Topology topology = topo::Topology::kStar;
};

QuorumPolicy quorum_policy(std::uint64_t s) {
  QuorumPolicy p;
  if (s % 3 != 2) return p;
  p.on = true;
  switch ((s / 3) % 4) {
    case 0:
      p.kind = harness::FaultKind::kPrimary;
      p.topology = topo::Topology::kChain;
      break;
    case 1: p.kind = harness::FaultKind::kBackup; break;
    case 2: p.kind = harness::FaultKind::kRack; break;
    case 3: p.kind = harness::FaultKind::kDouble; break;
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 20;
  std::uint64_t base_seed = 1;
  core::AuditLevel level = core::AuditLevel::kContinuous;
  Time measure = nlc::milliseconds(1200);
  bool fault = true;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) kUsage.fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = static_cast<std::uint64_t>(kUsage.parse_int(arg, next(), 1,
                                                          100000));
    } else if (arg == "--base-seed") {
      base_seed = static_cast<std::uint64_t>(kUsage.parse_int(
          arg, next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--level") {
      std::string l = next();
      if (l == "commit") level = core::AuditLevel::kCommitPoints;
      else if (l == "continuous") level = core::AuditLevel::kContinuous;
      else kUsage.fail("unknown audit level '" + l + "'");
    } else if (arg == "--measure-ms") {
      measure = nlc::milliseconds(kUsage.parse_int(arg, next(), 1, 3600000));
    } else if (arg == "--no-fault") {
      fault = false;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage.text().c_str(), stdout);
      return 0;
    } else {
      kUsage.fail("unknown argument '" + arg + "'");
    }
  }

  std::vector<apps::AppSpec> catalog = apps::paper_benchmarks();
  catalog.push_back(apps::netecho_spec());

  check::AuditStats total;
  std::uint64_t runs_passed = 0;

  // One independent simulation per seed: the sweep is the repo's canonical
  // embarrassingly-parallel workload, so it runs on the TrialRunner
  // (NLC_JOBS workers, results in seed order). Exceptions are captured
  // per-trial so the report below is deterministic: the lowest failing
  // seed wins, exactly as in the serial sweep.
  struct SeedOutcome {
    harness::RunResult r;
    bool violation = false;
    bool error = false;
    std::string what;
  };
  harness::TrialRunner runner;
  std::vector<SeedOutcome> outcomes = runner.run(
      seeds, [&](harness::TrialContext& ctx) {
        std::uint64_t s = base_seed + ctx.index;
        const apps::AppSpec& spec = catalog[s % catalog.size()];
        harness::RunConfig cfg;
        cfg.spec = spec;
        cfg.mode = harness::Mode::kNiLiCon;
        // Alternate the delta codec so both wire paths get audited; row 6
        // is every CRIU optimization without compression, row 7 adds it.
        cfg.nilicon = core::Options::table1_row(s % 2 == 1 ? 7 : 6);
        // Alternate the output-commit mode on a longer period so every
        // (delta, commit-mode) combination appears in the sweep. Replay
        // seeds exercise the event-log chain, the release-on-log-ack path
        // and the failover replay audit.
        if (s % 4 >= 2) cfg.nilicon.commit_mode = core::CommitMode::kReplay;
        // ...and the epoch policy on the odd half of each commit-mode
        // period, so the auditors also watch epochs whose length is being
        // retuned mid-run (DESIGN.md §15): adaptation must never move a
        // commit point in a way any invariant can observe.
        if (s % 4 == 1 || s % 4 == 3) {
          cfg.nilicon.epoch_policy = core::EpochPolicy::kAdaptive;
        }
        cfg.nilicon.seed = s;
        cfg.nilicon.audit_level = level;
        // A third of the sweep runs N-way quorum replication so the
        // quorum mirrors, the promotion arbiter and the re-silver path
        // see the same seed/workload rotation as the two-node engine.
        QuorumPolicy qp = quorum_policy(s);
        if (qp.on) {
          cfg.nilicon.replicas = 3;
          cfg.nilicon.quorum_k = 2;
          cfg.nilicon.topology = qp.topology;
          cfg.fault_kind = qp.kind;
        }
        cfg.seed = s;
        cfg.measure = measure;
        cfg.warmup = nlc::milliseconds(300);
        cfg.batch_work = measure;
        cfg.inject_fault = fault;  // crash at a seed-randomized epoch
        if (spec.interactive) {
          // Real KV payloads give the interactive apps content pages, so
          // the COW-freeze, delta-replay and restore-equivalence checkers
          // see actual bytes instead of accounting-only pages.
          cfg.kv_validation = true;
          if (cfg.spec.kv_pages == 0) cfg.spec.kv_pages = 512;
        }

        SeedOutcome out;
        try {
          out.r = harness::run_experiment(cfg);
          ctx.sim_events = out.r.sim_events;
        } catch (const InvariantError& e) {
          out.violation = true;
          out.what = e.what();
        } catch (const std::exception& e) {
          out.error = true;
          out.what = e.what();
        }
        return out;
      });

  for (std::uint64_t s = base_seed; s < base_seed + seeds; ++s) {
    const apps::AppSpec& spec = catalog[s % catalog.size()];
    SeedOutcome& out = outcomes[s - base_seed];
    if (out.violation) {
      std::fprintf(stderr,
                   "VIOLATION seed=%llu workload=%s level=%s\n  %s\n",
                   static_cast<unsigned long long>(s), spec.name.c_str(),
                   level == core::AuditLevel::kContinuous ? "continuous"
                                                          : "commit",
                   out.what.c_str());
      return 1;
    }
    if (out.error) {
      std::fprintf(stderr, "ERROR seed=%llu workload=%s\n  %s\n",
                   static_cast<unsigned long long>(s), spec.name.c_str(),
                   out.what.c_str());
      return 1;
    }
    harness::RunResult& r = out.r;
    QuorumPolicy qp = quorum_policy(s);
    // Per-kind failover expectation: a lone backup crash must be absorbed
    // by the quorum without promoting anyone; every other kind kills the
    // primary and must recover.
    bool expect_failover =
        !(qp.on && qp.kind == harness::FaultKind::kBackup);
    if (fault && expect_failover && !r.recovered) {
      std::fprintf(stderr, "ERROR seed=%llu workload=%s: fault injected but "
                   "no failover happened\n",
                   static_cast<unsigned long long>(s), spec.name.c_str());
      return 1;
    }
    if (fault && !expect_failover && r.recovered) {
      std::fprintf(stderr, "ERROR seed=%llu workload=%s: backup crash must "
                   "not trigger a failover\n",
                   static_cast<unsigned long long>(s), spec.name.c_str());
      return 1;
    }
    // The client must see every acknowledged write and every reply, in
    // order, on every seed.
    if (r.kv_errors != 0 || r.broken_connections != 0 ||
        r.protocol_errors != 0) {
      std::fprintf(stderr, "ERROR seed=%llu workload=%s: client saw "
                   "kv_errors=%llu broken=%llu protocol_errors=%llu\n",
                   static_cast<unsigned long long>(s), spec.name.c_str(),
                   static_cast<unsigned long long>(r.kv_errors),
                   static_cast<unsigned long long>(r.broken_connections),
                   static_cast<unsigned long long>(r.protocol_errors));
      return 1;
    }
    NLC_CHECK(r.audited);
    char rep[96] = "";
    if (qp.on) {
      std::snprintf(rep, sizeof rep, " rep=N3K2/%s/%s quorum=%llu",
                    topo::topology_name(qp.topology),
                    harness::fault_kind_name(qp.kind),
                    static_cast<unsigned long long>(r.audit.quorum_checks));
    }
    std::printf(
        "seed=%llu workload=%-13s mode=%s/%-8s epochs=%-4llu occ=%llu "
        "epoch=%llu store=%llu delta=%llu cow=%llu restore=%llu "
        "replay=%llu sweeps=%llu%s%s\n",
        static_cast<unsigned long long>(s), spec.name.c_str(),
        s % 4 >= 2 ? "replay" : "epoch ",
        s % 2 == 1 ? "adaptive" : "fixed",
        static_cast<unsigned long long>(r.metrics.epochs_completed),
        static_cast<unsigned long long>(r.audit.output_commit_checks),
        static_cast<unsigned long long>(r.audit.epoch_commit_checks),
        static_cast<unsigned long long>(r.audit.store_equivalence_checks),
        static_cast<unsigned long long>(r.audit.delta_replay_checks),
        static_cast<unsigned long long>(r.audit.payload_verifications),
        static_cast<unsigned long long>(r.audit.restore_equivalence_checks),
        static_cast<unsigned long long>(r.audit.replay_equivalence_checks),
        static_cast<unsigned long long>(r.audit.sweeps), rep,
        fault ? (r.recovered ? " [failover ok]"
                             : (!expect_failover ? " [absorbed]" : ""))
              : "");
    std::fflush(stdout);
    total.output_commit_checks += r.audit.output_commit_checks;
    total.epoch_commit_checks += r.audit.epoch_commit_checks;
    total.payload_pins += r.audit.payload_pins;
    total.payload_verifications += r.audit.payload_verifications;
    total.store_equivalence_checks += r.audit.store_equivalence_checks;
    total.delta_replay_checks += r.audit.delta_replay_checks;
    total.restore_equivalence_checks += r.audit.restore_equivalence_checks;
    total.replay_equivalence_checks += r.audit.replay_equivalence_checks;
    total.quorum_checks += r.audit.quorum_checks;
    total.sweeps += r.audit.sweeps;
    ++runs_passed;
  }

  std::printf("[runner] %llu seeds on %d jobs: %.2fs wall "
              "(serial-equivalent %.2fs), %.2fM events/sec\n",
              static_cast<unsigned long long>(seeds), runner.jobs(),
              runner.batch_wall_seconds(), runner.total_trial_seconds(),
              runner.events_per_second() / 1e6);
  std::printf(
      "PASS %llu/%llu runs, %llu invariant checks "
      "(occ=%llu epoch=%llu store=%llu delta=%llu cow=%llu restore=%llu "
      "replay=%llu quorum=%llu), 0 violations\n",
      static_cast<unsigned long long>(runs_passed),
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(total.total()),
      static_cast<unsigned long long>(total.output_commit_checks),
      static_cast<unsigned long long>(total.epoch_commit_checks),
      static_cast<unsigned long long>(total.store_equivalence_checks),
      static_cast<unsigned long long>(total.delta_replay_checks),
      static_cast<unsigned long long>(total.payload_verifications),
      static_cast<unsigned long long>(total.restore_equivalence_checks),
      static_cast<unsigned long long>(total.replay_equivalence_checks),
      static_cast<unsigned long long>(total.quorum_checks));
  return 0;
}
