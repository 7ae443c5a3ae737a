// Shared helpers for the reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper and
// prints it next to the paper's published numbers. Durations/iterations
// default to CI-friendly values; set NLC_BENCH_FULL=1 for the paper-scale
// matrix (more runs, longer windows) or override individual knobs (whole
// positive integers; anything else exits 2):
//   NLC_BENCH_RUNS        repetitions per data point
//   NLC_BENCH_SECONDS     measurement window (server benchmarks)
//   NLC_BENCH_BATCH_SECS  per-thread CPU quota (batch benchmarks)
// Trials run through harness::TrialRunner (bench::run_all): NLC_JOBS
// worker threads (default: all cores; NLC_JOBS=1 = the old serial path),
// results always in submission order, so every table is byte-identical to
// a serial run. Each bench also writes BENCH_<name>.json (per-point
// mean/p50/p99, runs, wall clock, events/sec) next to the human table.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace nlc::bench {

inline bool full_mode() {
  const char* v = std::getenv("NLC_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

/// The knobs every bench's usage text lists.
inline constexpr const char* kKnobHelp =
    "NLC_BENCH_FULL=1 selects the paper-scale matrix; NLC_BENCH_RUNS,\n"
    "NLC_BENCH_SECONDS and NLC_BENCH_BATCH_SECS take whole integers in\n"
    "1..100000\n";

/// An NLC_BENCH_* knob: a whole integer in 1..100000, or `dflt` when
/// unset. A bad value fails through `usage` (exit 2).
inline int env_int(const char* name, int dflt,
                   const cli::Usage& usage = cli::Usage("bench", kKnobHelp)) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<int>(usage.parse_int(name, v, 1, 100000))
                      : dflt;
}

namespace detail {
/// The usage text of `program`, which takes `flags`. Checks the knobs
/// first, so a bad value exits 2 before the bench prints anything.
inline cli::Usage checked_usage(const char* program, const char* flags) {
  cli::Usage usage(program,
                   std::string("usage: ") + program + flags + "\n" + kKnobHelp);
  for (const char* knob :
       {"NLC_BENCH_RUNS", "NLC_BENCH_SECONDS", "NLC_BENCH_BATCH_SECS"}) {
    env_int(knob, 0, usage);
  }
  return usage;
}
}  // namespace detail

/// The size flags a bench binary accepts: --smoke (CI-sized) and --full
/// (paper-sized, same as NLC_BENCH_FULL=1).
struct SizeFlags {
  bool smoke = false;
  bool full = false;
};

/// Parses argv as size flags; anything else prints the usage and exits 2,
/// so a typo'd flag never silently runs the default configuration.
inline SizeFlags parse_size_flags(int argc, char** argv) {
  const cli::Usage usage =
      detail::checked_usage(argv[0], " [--smoke | --full]");
  SizeFlags f;
  f.full = full_mode();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      f.smoke = true;
    } else if (arg == "--full") {
      f.full = true;
    } else {
      usage.fail("unknown argument: " + arg);
    }
  }
  return f;
}

/// The table and figure benches take no arguments: NLC_BENCH_FULL=1 is
/// their paper-scale switch. Any argument prints the usage and exits 2.
inline void expect_no_args(int argc, char** argv) {
  const cli::Usage usage = detail::checked_usage(argv[0], "");
  if (argc > 1) usage.fail(std::string("unknown argument: ") + argv[1]);
}

inline int runs(int quick_default = 3, int full_default = 10) {
  return env_int("NLC_BENCH_RUNS", full_mode() ? full_default
                                               : quick_default);
}

inline Time measure_seconds(int quick_default = 6, int full_default = 20) {
  return nlc::seconds(env_int("NLC_BENCH_SECONDS",
                              full_mode() ? full_default : quick_default));
}

inline Time batch_seconds(int quick_default = 3, int full_default = 10) {
  return nlc::seconds(env_int("NLC_BENCH_BATCH_SECS",
                              full_mode() ? full_default : quick_default));
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Percent with paper comparison: "31.4%  (paper: 31.8%)".
inline std::string pct_vs(double measured, double paper) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%6.2f%%  (paper: %6.2f%%)",
                measured * 100.0, paper * 100.0);
  return buf;
}

inline std::string ms_vs(double measured_ms, double paper_ms) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%8.2fms  (paper: %8.2fms)", measured_ms,
                paper_ms);
  return buf;
}

// ---- Parallel trial execution ---------------------------------------------

/// The bench binary's shared runner (NLC_JOBS workers). Aggregate
/// accounting across batches lives in the accumulators below.
inline harness::TrialRunner& runner() {
  static harness::TrialRunner r;
  return r;
}

struct SweepTotals {
  std::size_t trials = 0;
  double wall_seconds = 0;          // sum of batch wall clocks
  double serial_seconds = 0;        // sum of per-trial wall clocks
  std::uint64_t sim_events = 0;
};

inline SweepTotals& totals() {
  static SweepTotals t;
  return t;
}

/// Runs the given experiment configs as independent parallel trials and
/// returns the results in submission order. Every table/figure sweep goes
/// through here; determinism is preserved because parallelism is strictly
/// across Simulation instances.
inline std::vector<harness::RunResult> run_all(
    const std::vector<harness::RunConfig>& cfgs) {
  auto& r = runner();
  std::vector<harness::RunResult> out =
      r.run(cfgs.size(), [&cfgs](harness::TrialContext& ctx) {
        harness::RunResult res = harness::run_experiment(cfgs[ctx.index]);
        ctx.sim_events = res.sim_events;
        return res;
      });
  auto& t = totals();
  t.trials += cfgs.size();
  t.wall_seconds += r.batch_wall_seconds();
  t.serial_seconds += r.total_trial_seconds();
  t.sim_events += r.total_sim_events();
  return out;
}

/// Aggregate events/sec + parallel-speedup footer for the whole binary.
inline void footer() {
  const auto& t = totals();
  if (t.trials == 0) return;
  double evps = t.wall_seconds > 0
                    ? static_cast<double>(t.sim_events) / t.wall_seconds
                    : 0.0;
  std::printf("\n[runner] %zu trials on %d jobs: %.2fs wall "
              "(serial-equivalent %.2fs, %.2fx), %.2fM sim events, "
              "%.2fM events/sec\n",
              t.trials, runner().jobs(), t.wall_seconds, t.serial_seconds,
              t.wall_seconds > 0 ? t.serial_seconds / t.wall_seconds : 0.0,
              static_cast<double>(t.sim_events) / 1e6, evps / 1e6);
}

// ---- Machine-readable output (BENCH_<name>.json) --------------------------

/// Collects per-point statistics and writes BENCH_<name>.json in the
/// working directory: the repo's perf trajectory, one file per bench
/// binary, alongside the human tables.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// One data point from a Samples accumulator; the summary fields
  /// (mean/p50/p99/p999/count) come from Samples::summary_json so every
  /// bench emits identical statistics.
  void point(const std::string& label, const Samples& s) {
    points_.push_back({label, s.summary_json()});
  }

  /// One scalar data point (a single measured value).
  void point(const std::string& label, double value) {
    Samples s;
    s.add(value);
    point(label, s);
  }

  /// Extra top-level scalar (speedups, ratios, ...).
  void scalar(const std::string& key, double value) {
    scalars_.emplace_back(key, value);
  }

  /// Writes BENCH_<name>.json; returns false if the file can't be opened.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto& t = totals();
    double evps = t.wall_seconds > 0
                      ? static_cast<double>(t.sim_events) / t.wall_seconds
                      : 0.0;
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"runs\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"trials\": %zu,\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"serial_equivalent_seconds\": %.3f,\n"
                 "  \"sim_events\": %llu,\n"
                 "  \"events_per_second\": %.0f,\n",
                 escaped(name_).c_str(), runs(), runner().jobs(), t.trials,
                 t.wall_seconds, t.serial_seconds,
                 static_cast<unsigned long long>(t.sim_events), evps);
    for (const auto& [k, v] : scalars_) {
      std::fprintf(f, "  \"%s\": %.6g,\n", escaped(k).c_str(), v);
    }
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      std::fprintf(f, "    {\"label\": \"%s\", %s}%s\n",
                   escaped(p.label).c_str(), p.summary.c_str(),
                   i + 1 < points_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Point {
    std::string label;
    std::string summary;  // Samples::summary_json() fragment
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<Point> points_;
  std::vector<std::pair<std::string, double>> scalars_;
};

}  // namespace nlc::bench
