// Flight-recorder overhead gates (DESIGN.md §11).
//
// The protocol event stream promises to be an observer: near-zero cost
// with nothing attached (every protocol point is one null check of the
// component's trace::Observer) and cheap enough when recording that traced
// runs stay usable. Three measurements, two gates:
//
//   1. Detached-point branch cost, microbenched through a volatile observer
//      pointer (the compiler cannot assume the stream stays null). The gate
//      is analytic: the protocol points of the traced run's busiest epoch
//      (counted from its drained stream) x branch cost must be <= 1% of an
//      epoch (30 ms) — wall-clock ratios of two full runs cannot resolve a
//      cost this small above CI noise, the arithmetic can.
//   2. Enabled record cost, ns/event through an observer, its stream and
//      the recorder subscriber into a log sized to never overflow.
//      The 5% gate is analytic too: events actually recorded by a traced
//      run x ns/event, plus the one-time log reservation, against that
//      run's wall time. (A wall-clock ratio of two full runs cannot gate
//      this either — run-to-run drift on a busy single-core CI box is
//      +/-15%, while the true recording cost is <0.1%; measured here, the
//      traced arm sometimes finishes *faster*.)
//   3. End-to-end: the same redis experiment traced vs untraced,
//      alternating, best-of-N. Reported for the record, with only a loose
//      1.5x gross-regression backstop; the binding gates are the analytic
//      bounds plus byte-identical simulated observables (observer
//      contract).
//
// Writes BENCH_trace_overhead.json; runs in CI via the bench-smoke label.
#include <cstdio>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

// Protocol points per epoch of a two-node epoch run that the recorder skips:
// state ready, marker inserted and the per-replica ack (primary agent), the
// plug's marker and commit done (backup agent). The plug's per-packet
// enqueue is skipped too; it is counted from each release's packet count.
constexpr double kSkippedPointsPerEpoch = 5.0;
constexpr double kEpochNs = 30e6;

trace::Observer g_detached;
trace::Observer* volatile g_obs = &g_detached;

/// ns per *detached* protocol point: the null-check branch every component
/// pays when no stream is attached.
double disabled_branch_ns(long long iters) {
  const std::uint64_t t0 = util::wall_now_ns();
  for (long long i = 0; i < iters; ++i) {
    const trace::Observer* obs = g_obs;
    obs->instant(trace::Track::kPrimary, trace::Stage::kResume, 0, 0);
  }
  const std::uint64_t t1 = util::wall_now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(iters);
}

/// ns per *recorded* event, emitted the way the components emit it (log
/// large enough that nothing drops).
double record_ns(long long iters) {
  trace::Recorder rec(static_cast<std::size_t>(iters));
  trace::Stream stream;
  stream.subscribe(&rec);
  trace::Observer obs;
  obs.attach(&stream);
  const std::uint64_t t0 = util::wall_now_ns();
  for (long long i = 0; i < iters; ++i) {
    obs.instant(trace::Track::kPrimary, trace::Stage::kResume,
                static_cast<Time>(i), 0);
  }
  const std::uint64_t t1 = util::wall_now_ns();
  NLC_CHECK(rec.dropped() == 0);
  return static_cast<double>(t1 - t0) / static_cast<double>(iters);
}

struct EpochPoints {
  double busiest = 0;                 // protocol points, busiest epoch
  std::uint64_t busiest_packets = 0;  // packets that epoch released
  double mean = 0;
};

/// Protocol points per epoch of a drained two-node epoch run: what the
/// recorder kept plus what it skips. An epoch is the stretch of the
/// stream up to and including one release of the primary's plug; that
/// release's arg is the packets buffered for it, one skipped enqueue each.
EpochPoints epoch_points(const std::vector<trace::Event>& events) {
  EpochPoints p;
  double cur = 0;
  double total = 0;
  std::uint64_t epochs = 0;
  for (const trace::Event& e : events) {
    cur += 1;
    if (e.track != trace::Track::kNetPrimary ||
        e.stage != trace::Stage::kPlugRelease) {
      continue;
    }
    const double points =
        cur + static_cast<double>(e.arg) + kSkippedPointsPerEpoch;
    if (points > p.busiest) {
      p.busiest = points;
      p.busiest_packets = e.arg;
    }
    total += points;
    ++epochs;
    cur = 0;
  }
  NLC_CHECK_MSG(epochs > 0, "the traced run released no epoch");
  p.mean = total / static_cast<double>(epochs);
  return p;
}

/// ns to construct a full-size recorder and record one event: the one-time
/// log reservation a traced run pays (65,536 events of 40 B, ~2.6 MB,
/// reserved once per run, not zeroed).
double ring_alloc_ns() {
  const std::uint64_t t0 = util::wall_now_ns();
  trace::Recorder rec;
  trace::Stream stream;
  stream.subscribe(&rec);
  trace::Observer obs;
  obs.attach(&stream);
  obs.instant(trace::Track::kPrimary, trace::Stage::kResume, 0, 0);
  const std::uint64_t t1 = util::wall_now_ns();
  NLC_CHECK(rec.recorded() == 1);
  return static_cast<double>(t1 - t0);
}

harness::RunConfig run_config(bool traced, Time measure) {
  // The redis workload: enough per-epoch page traffic that a run costs
  // real wall time (~100 ms/simulated-second) — a ratio gate on a
  // sub-millisecond netecho run would only measure the recorder's one-time
  // ring allocation, not the recording cost.
  harness::RunConfig cfg;
  cfg.spec = apps::redis_spec();
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.warmup = nlc::milliseconds(200);
  cfg.measure = measure;
  cfg.nilicon.trace_level =
      traced ? core::TraceLevel::kFull : core::TraceLevel::kOff;
  return cfg;
}

struct EndToEnd {
  double best_seconds = 1e18;
  harness::RunResult result;
};

EndToEnd run_once(bool traced, Time measure) {
  EndToEnd e;
  const std::uint64_t t0 = util::wall_now_ns();
  e.result = harness::run_experiment(run_config(traced, measure));
  e.best_seconds = util::wall_seconds_since(t0);
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc::bench;
  const auto [smoke, full] = parse_size_flags(argc, argv);

  const long long branch_iters = smoke ? 2'000'000 : 20'000'000;
  const long long record_iters = smoke ? 500'000 : full ? 8'000'000
                                                        : 2'000'000;
  const int reps = smoke ? 3 : full ? 7 : 5;
  const Time measure = nlc::seconds(smoke ? 2 : 4);

  header("Flight-recorder overhead: disabled branch, record cost, end-to-end",
         "extension — src/trace tracing subsystem");

  // Warm up, then best-of for both microbenches.
  (void)disabled_branch_ns(branch_iters / 10);
  (void)record_ns(record_iters / 10);
  Samples branch_ns, rec_ns, alloc_ns;
  for (int r = 0; r < reps; ++r) {
    branch_ns.add(disabled_branch_ns(branch_iters));
    rec_ns.add(record_ns(record_iters));
    alloc_ns.add(ring_alloc_ns());
  }
  double best_branch = branch_ns.percentile(0);
  double best_record = rec_ns.percentile(0);
  double best_alloc = alloc_ns.percentile(0);

  std::printf("%-44s | %10.2f ns/site\n", "detached point (null-check branch)",
              best_branch);
  std::printf("%-44s | %10.2f ns/event\n", "enabled record (log append)",
              best_record);
  std::printf("%-44s | %10.0f ns one-time\n", "log reservation (per run)",
              best_alloc);

  // End-to-end, alternating off/on so slow drift hits both arms equally.
  EndToEnd off, on;
  (void)run_once(false, measure);  // warm-up run
  for (int r = 0; r < reps; ++r) {
    EndToEnd a = run_once(false, measure);
    if (a.best_seconds < off.best_seconds) off = std::move(a);
    EndToEnd b = run_once(true, measure);
    if (b.best_seconds < on.best_seconds) on = std::move(b);
  }
  double wall_ratio = off.best_seconds > 0
                          ? on.best_seconds / off.best_seconds
                          : 1.0;
  std::printf("%-44s | %10.3f s\n", "experiment, tracing off (best-of)",
              off.best_seconds);
  std::printf("%-44s | %10.3f s (ratio %.3f)\n",
              "experiment, tracing on (best-of)", on.best_seconds,
              wall_ratio);
  NLC_CHECK(on.result.trace != nullptr);
  const double recorded =
      static_cast<double>(on.result.trace->recorded());
  std::printf("%-44s | %10.0f events (%llu dropped)\n", "events recorded",
              recorded,
              static_cast<unsigned long long>(on.result.trace->dropped()));
  // A dropped event would shorten the per-epoch point count below.
  NLC_CHECK_MSG(on.result.trace->dropped() == 0,
                "the traced run overflowed its recorder");
  const EpochPoints points = epoch_points(on.result.trace->drain());
  const double disabled_frac = points.busiest * best_branch / kEpochNs;
  std::printf("%-44s | %10.0f (%llu packets; mean %.1f)\n",
              "protocol points, busiest epoch", points.busiest,
              static_cast<unsigned long long>(points.busiest_packets),
              points.mean);
  std::printf("%-44s | %10.5f%% of a 30ms epoch\n",
              "disabled overhead bound", disabled_frac * 100.0);
  // Analytic enabled-overhead bound: what the traced run actually paid for
  // recording — events x ns/event plus the one-time log reservation —
  // against that run's wall time.
  double enabled_frac = (recorded * best_record + best_alloc) /
                        (on.best_seconds * 1e9);
  std::printf("%-44s | %10.5f%% of the traced run\n",
              "enabled overhead bound", enabled_frac * 100.0);

  BenchJson json("trace_overhead");
  json.point("disabled_branch_ns", branch_ns);
  json.point("record_ns_per_event", rec_ns);
  json.point("ring_alloc_ns", alloc_ns);
  json.point("run_seconds_trace_off", off.best_seconds);
  json.point("run_seconds_trace_on", on.best_seconds);
  json.scalar("busiest_epoch_points", points.busiest);
  json.scalar("mean_epoch_points", points.mean);
  json.scalar("disabled_overhead_frac", disabled_frac);
  json.scalar("enabled_overhead_frac", enabled_frac);
  json.scalar("end_to_end_wall_ratio", wall_ratio);
  json.write();

  // ---- Gates ----------------------------------------------------------------
  // Observer contract: tracing must not perturb the simulation at all.
  NLC_CHECK_MSG(off.result.sim_events == on.result.sim_events,
                "tracing changed the simulated event count");
  NLC_CHECK_MSG(off.result.requests_completed == on.result.requests_completed,
                "tracing changed the completed request count");
  // Detached: the busiest epoch's points cost <= 1% of an epoch.
  NLC_CHECK_MSG(disabled_frac <= 0.01,
                "detached protocol points exceed 1% of an epoch");
  // Enabled: recording work actually done <= 5% of the traced run.
  NLC_CHECK_MSG(enabled_frac <= 0.05,
                "enabled tracing exceeds 5% end-to-end overhead");
  // Gross-regression backstop only — run-to-run drift on a single-core CI
  // box is +/-15%, so anything tighter gates the machine, not the code.
  NLC_CHECK_MSG(wall_ratio <= 1.5,
                "traced run >1.5x untraced — tracing cost is no longer noise");
  return 0;
}
