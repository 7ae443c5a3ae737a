// nlc_perfbench — the repository benchmark: what the simulator costs on the
// host, and the NiLiCon service metrics it simulates, on three canonical
// workloads (README.md in this directory).
//
//   nlc_perfbench --workload epoch-redis --seed 1 --seconds 10 --trace 0
//
// One run:
//   1. audit    — one trial with the invariant auditor and the trace oracle
//                 attached (a violation fails the run);
//   2. measure  — rounds for --seconds of host time, and at least the
//                 workload's sim_trials. A round times reference_work(), a
//                 minimal protected experiment (cluster build, app set-up,
//                 initial full-state sync, client connect, drain) and one
//                 trial seeded from --seed and the round. The simulated
//                 metrics pool the first sim_trials trials, so they depend
//                 on the seed alone and never on host speed. `setup_s` is
//                 the median set-up over the median reference timing, in
//                 seconds of the host kReferenceHostSeconds was measured
//                 on. Host cost is the median trial CPU time per simulated
//                 event, scaled by the pool's events per simulated second
//                 and divided by the median reference timing;
//   3. repeat   — trial 0 again, which must reproduce its simulated
//                 observables exactly;
//   4. report   — one JSON object on the last line of stdout: end-to-end
//                 metrics with --trace 0, per-layer metrics with --trace 1
//                 (every trial then records the flight-recorder trace).
//
// Host time is CPU time (cpu_now_ns) unless named wall time; every other
// time is simulated.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "trace/events.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

/// Set-up experiments take seeds from here on, apart from the trials'.
constexpr std::uint64_t kSetupSeedBase = 1u << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

std::optional<apps::AppSpec> paper_app(const std::string& name) {
  for (const auto& s : apps::paper_benchmarks()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

struct Workload {
  harness::RunConfig cfg;  // seed and trace level are filled per trial
  /// Trials whose simulated metrics are pooled.
  /// The failover workload needs more: each trial's crash point is random,
  /// and the promoted backup serves the rest of the window unprotected.
  int sim_trials = 16;
};

/// The named workload. Every workload runs the full optimization set
/// (Table I row 7: the paper's six rows plus delta-compressed dirty pages)
/// with content-validated KV traffic, so the client checks every response.
/// The page pipeline runs two shards whatever the host's core count, so
/// host figures compare across machines.
std::optional<Workload> workload(const std::string& name) {
  Workload w;
  harness::RunConfig& c = w.cfg;
  c.mode = harness::Mode::kNiLiCon;
  c.nilicon = core::Options::table1_row(7);
  c.nilicon.page_shards = 2;
  c.kv_validation = true;
  c.warmup = nlc::milliseconds(500);
  c.measure = nlc::seconds(2);
  if (name == "epoch-redis") {
    // The paper's two-node testbed: 30 ms epochs, output held to commit.
    c.spec = *paper_app("redis");
  } else if (name == "replay-netecho") {
    // Output released on the event-log ack; page deltas commit behind it.
    c.spec = apps::netecho_spec();
    c.spec.kv_pages = 512;
    c.nilicon.commit_mode = core::CommitMode::kReplay;
    c.measure = nlc::seconds(1);
  } else if (name == "quorum-failover-redis") {
    // N=3 backups across racks, K=2 release; the primary crashes mid-window,
    // the most caught-up backup is promoted and re-silvers the others.
    c.spec = *paper_app("redis");
    c.nilicon.replicas = 3;
    c.nilicon.quorum_k = 2;
    c.nilicon.topology = topo::Topology::kStar;
    c.inject_fault = true;
    c.fault_kind = harness::FaultKind::kPrimary;
    w.sim_trials = 48;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 over (seed, index): distinct, well-mixed simulation seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// CPU time of every thread of this process. Unlike wall time it leaves
/// out the time a virtual machine's host steals from its vCPUs.
std::uint64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

constexpr std::size_t kReferencePageWords = 1u << 20;  // 8 MiB
constexpr std::size_t kReferenceKeys = 1u << 17;        // 1 MiB
/// Resident bytes the reference buffers add to the process.
constexpr double kReferenceBytes =
    static_cast<double>((kReferencePageWords + kReferenceKeys) *
                        sizeof(std::uint64_t));
/// CPU seconds reference_work() took on the 4-core virtual machine the
/// benchmark was built on. Set-up time is reported in seconds of that host.
constexpr double kReferenceHostSeconds = 0.015;
std::uint64_t g_reference_sink = 0;

/// Fixed host work that shares the simulator's mix: sorting 128 Ki random
/// keys (branchy bookkeeping) and 8 Ki scattered 4 KiB page copies within
/// an 8 MiB buffer (the page pipeline's memory traffic). It belongs to the
/// benchmark and never changes with the simulator, so dividing by its CPU
/// time cancels much of how fast the host happens to run, while a change
/// to the simulator still shows in full. Returns CPU milliseconds.
double reference_work() {
  static std::vector<std::uint64_t> pages(kReferencePageWords);
  static std::vector<std::uint64_t> keys(kReferenceKeys);
  const std::uint64_t t0 = cpu_now_ns();
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  constexpr std::size_t kPageWords = 512;
  for (int rep = 0; rep < 16; ++rep) {
    for (std::size_t p = 0; p + kPageWords <= pages.size(); p += 4 * kPageWords) {
      std::size_t q = (p * 7919) % (pages.size() - kPageWords);
      q -= q % kPageWords;
      std::memcpy(&pages[q], &pages[p], kPageWords * sizeof(std::uint64_t));
      pages[p] ^= keys[(p / kPageWords) % keys.size()];
    }
  }
  g_reference_sink += pages[x % pages.size()] + keys[keys.size() / 2];
  return static_cast<double>(cpu_now_ns() - t0) / 1e6;
}

struct Trial {
  harness::RunResult result;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;  // cpu_now_ns()
  std::vector<trace::Event> events;  // drained when the trial traced
};

Trial run_trial(const harness::RunConfig& cfg) {
  Trial t;
  const std::uint64_t t0 = util::wall_now_ns();
  const std::uint64_t c0 = cpu_now_ns();
  t.result = harness::run_experiment(cfg);
  t.cpu_ns = cpu_now_ns() - c0;
  t.wall_ns = util::wall_now_ns() - t0;
  if (t.result.trace != nullptr) {
    t.events = t.result.trace->drain();
    t.result.trace.reset();
  }
  return t;
}

/// Failures a trial's outputs show: client-validated KV mismatches, broken
/// connections, no progress, or (on fault runs) no recovery.
std::uint64_t trial_failures(const harness::RunConfig& cfg,
                             const harness::RunResult& r) {
  std::uint64_t failed = r.kv_errors + r.broken_connections;
  if (r.requests_completed == 0) ++failed;
  if (cfg.inject_fault && !(r.fault_injected && r.recovered)) ++failed;
  return failed;
}

/// Simulated observables that must repeat exactly for a repeated seed.
std::vector<double> fingerprint(const harness::RunResult& r) {
  return {static_cast<double>(r.sim_events),
          static_cast<double>(r.requests_completed),
          static_cast<double>(r.metrics.epochs_completed),
          static_cast<double>(r.metrics.bytes_shipped),
          static_cast<double>(r.metrics.wire_bytes_fanout),
          r.latencies_ms.sum()};
}

/// Adds the simulated width (ms) of every closed `stage` span on `track`
/// to `out`; spans pair first-in first-out per argument (epoch).
void span_widths(const std::vector<trace::Event>& events, trace::Track track,
                 trace::Stage stage, Samples& out) {
  std::map<std::uint64_t, std::deque<Time>> open;
  for (const trace::Event& e : events) {
    if (e.track != track || e.stage != stage) continue;
    if (e.type == trace::EventType::kSpanBegin) {
      open[e.arg].push_back(e.sim_ns);
    } else if (e.type == trace::EventType::kSpanEnd) {
      auto it = open.find(e.arg);
      if (it == open.end() || it->second.empty()) continue;
      out.add(to_millis(e.sim_ns - it->second.front()));
      it->second.pop_front();
    }
  }
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome run(const Args& args, const Workload& w) {
  Outcome out;
  harness::RunConfig base = w.cfg;
  base.nilicon.trace_level =
      args.trace ? core::TraceLevel::kFull : core::TraceLevel::kOff;
  auto config_for = [&](std::uint64_t index) {
    harness::RunConfig c = base;
    c.seed = trial_seed(args.seed, index);
    c.nilicon.seed = c.seed;
    return c;
  };
  auto check = [&](const harness::RunConfig& c, const harness::RunResult& r) {
    out.attempted += r.requests_completed;
    out.failed += trial_failures(c, r);
  };

  // 1. Audit: the live invariant mirrors plus the post-hoc trace oracle.
  {
    harness::RunConfig c = config_for(0);
    c.nilicon.audit_level = core::AuditLevel::kCommitPoints;
    c.nilicon.trace_level = core::TraceLevel::kFull;
    const Trial t = run_trial(c);
    check(c, t.result);
    if (!t.result.audited || t.result.audit.total() == 0) out.correct = false;
  }

  // 2. Measure. Each round times the reference, one set-up and one trial,
  // so all three sample the same stretch of host time.
  const auto sim_trials = static_cast<std::size_t>(w.sim_trials);
  std::vector<Trial> pool;  // the first sim_trials trials, kept whole
  Samples reference_ms, setup_s, ns_per_event, wall_ns_per_event;
  std::uint64_t harvest_ns = 0, encode_ns = 0, fold_ns = 0, wall_ns = 0;
  std::uint64_t host_epochs = 0;
  const std::uint64_t t0 = util::wall_now_ns();
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(args.seconds) * 1'000'000'000ull;
  for (std::uint64_t i = 0;
       i < sim_trials || util::wall_now_ns() - t0 < budget_ns; ++i) {
    reference_ms.add(reference_work());

    // Set-up: the fixed per-experiment cost, with no measurement window.
    harness::RunConfig s = config_for(kSetupSeedBase + i);
    s.inject_fault = false;
    s.warmup = 0;
    s.measure = nlc::milliseconds(1);
    setup_s.add(static_cast<double>(run_trial(s).cpu_ns) / 1e9);

    const harness::RunConfig c = config_for(i);
    Trial t = run_trial(c);
    check(c, t.result);
    // Per simulated event, because the failover trials' work varies with
    // their random crash point.
    const auto events = static_cast<double>(t.result.sim_events);
    ns_per_event.add(static_cast<double>(t.cpu_ns) / events);
    wall_ns_per_event.add(static_cast<double>(t.wall_ns) / events);
    const core::ShardStageNanos& st = t.result.metrics.shard_stage_ns;
    harvest_ns += st.harvest;
    encode_ns += st.encode;
    fold_ns += st.fold;
    wall_ns += t.wall_ns;
    host_epochs += t.result.metrics.epochs_completed;
    if (i < sim_trials) pool.push_back(std::move(t));
  }

  // 3. Determinism: the first trial's simulated observables repeat.
  if (fingerprint(run_trial(config_for(0)).result) !=
      fingerprint(pool.front().result)) {
    std::fprintf(stderr, "trial 0 did not repeat its observables\n");
    out.correct = false;
  }

  // 4. Metrics. Simulated: pooled over the first sim_trials trials.
  Samples latency, stop, commit, dirty, state, ratio;
  Samples harvest, ship, worst_ms, backup_cores;
  std::uint64_t wire_bytes = 0, sim_events = 0, epochs = 0;
  std::uint64_t trace_events = 0;
  for (const Trial& t : pool) {
    const harness::RunResult& r = t.result;
    for (double v : r.latencies_window_ms.values()) latency.add(v);
    for (double v : r.metrics.stop_time_ms.values()) stop.add(v);
    for (double v : r.metrics.commit_latency_ms.values()) commit.add(v);
    for (double v : r.metrics.dirty_pages.values()) dirty.add(v);
    for (double v : r.metrics.state_bytes.values()) state.add(v / 1024.0);
    for (double v : r.metrics.compression_ratio.values()) ratio.add(v);
    span_widths(t.events, trace::Track::kPrimary, trace::Stage::kHarvest,
                harvest);
    span_widths(t.events, trace::Track::kPrimaryShip, trace::Stage::kShip,
                ship);
    worst_ms.add(r.latencies_window_ms.max());
    backup_cores.add(r.backup_cores);
    wire_bytes += r.metrics.wire_bytes_fanout;
    sim_events += r.sim_events;
    epochs += r.metrics.epochs_completed;
    trace_events += t.events.size();
  }
  const double pool_trials = static_cast<double>(sim_trials);
  const double measure_s = to_seconds(base.measure);
  // Host: the median CPU cost per event, at the pool's event rate.
  const double events_per_sim_s =
      static_cast<double>(sim_events) / (measure_s * pool_trials);
  const double cpu_ms_per_sim_s =
      ns_per_event.percentile(50) * events_per_sim_s / 1e6;
  const double host_cost = cpu_ms_per_sim_s / reference_ms.percentile(50);

  if (!args.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    out.metrics = {
        {"host_cost_per_sim_s", host_cost, "ref"},
        {"setup_s",
         setup_s.percentile(50) / reference_ms.percentile(50) * 1e3 *
             kReferenceHostSeconds,
         "s"},
        {"peak_rss_mb",
         (static_cast<double>(ru.ru_maxrss) * 1024.0 - kReferenceBytes) /
             (1024.0 * 1024.0),
         "MiB"},
        {"p99_ms", latency.percentile(99), "ms"},
        {"worst_ms", worst_ms.percentile(50), "ms"},
        {"commit_ms", commit.percentile(50), "ms"},
        {"stop_ms", stop.percentile(50), "ms"},
        {"wire_kb_per_epoch",
         static_cast<double>(wire_bytes) / 1024.0 / static_cast<double>(epochs),
         "KiB"},
    };
  } else {
    const double epoch_us = 1e3 * static_cast<double>(host_epochs);
    out.metrics = {
        {"traced_host_cost_per_sim_s", host_cost, "ref"},
        {"traced_cpu_ms_per_sim_s", cpu_ms_per_sim_s, "ms"},
        {"traced_wall_ms_per_sim_s",
         wall_ns_per_event.percentile(50) * events_per_sim_s / 1e6, "ms"},
        {"cpu_ns_per_event", ns_per_event.percentile(50), "ns"},
        {"harvest_host_us_per_epoch",
         static_cast<double>(harvest_ns) / epoch_us, "us"},
        {"encode_host_us_per_epoch", static_cast<double>(encode_ns) / epoch_us,
         "us"},
        {"fold_host_us_per_epoch", static_cast<double>(fold_ns) / epoch_us,
         "us"},
        {"pipeline_host_pct",
         100.0 * static_cast<double>(harvest_ns + encode_ns + fold_ns) /
             static_cast<double>(wall_ns),
         "%"},
        {"sim_events_per_trial", static_cast<double>(sim_events) / pool_trials,
         "count"},
        {"trace_events_per_epoch",
         static_cast<double>(trace_events) / static_cast<double>(epochs),
         "count"},
        {"harvest_ms", harvest.percentile(50), "ms"},
        {"ship_ms", ship.percentile(50), "ms"},
        {"client_mean_ms", latency.mean(), "ms"},
        {"dirty_pages_per_epoch", dirty.mean(), "count"},
        {"state_kb_per_epoch", state.mean(), "KiB"},
        {"compression_ratio", ratio.mean(), "ratio"},
        {"backup_cores", backup_cores.percentile(50), "cores"},
    };
  }
  std::fprintf(stderr,
               "workload=%s seed=%llu rounds=%zu (simulated metrics over "
               "the first %zu) reference=%.2fms\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               reference_ms.count(), sim_trials, reference_ms.percentile(50));
  return out;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return std::nullopt;
    } else if (arg == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0' || s < 1 || s > 600) {
        return std::nullopt;
      }
      a.seconds = static_cast<int>(s);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: nlc_perfbench --workload epoch-redis|replay-netecho|"
                 "quorum-failover-redis [--seed N] [--seconds S] "
                 "[--trace 0|1]\n");
    return 2;
  }
  const std::optional<Workload> w = workload(args->workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  Outcome out;
  try {
    out = run(*args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  std::string json;
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name);
      return 1;
    }
    std::fprintf(stderr, "  %-26s %14.6g %s\n", m.name, m.value, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, m.value, m.unit);
    json += buf;
  }
  const bool correct = out.correct && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Leave without static destruction: the shard pool's helper threads are
  // still parked, and nothing here needs tearing down.
  std::_Exit(0);
}
