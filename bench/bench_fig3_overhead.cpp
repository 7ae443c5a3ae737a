// Figure 3: performance overhead of NiLiCon vs MC across the seven
// benchmarks, split into runtime overhead and stopped overhead.
//
// Overhead definitions (§VII-C): non-interactive benchmarks report the
// relative increase in execution time; server benchmarks report the
// relative reduction in maximum (saturated) throughput. The stopped
// component is reconstructed from the measured mean stop time per epoch;
// the runtime component is the remainder.
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace nlc;
using namespace nlc::bench;
using harness::Mode;
using harness::RunConfig;
using harness::RunResult;

struct PaperPoint {
  double nilicon;
  double mc;
};

// Figure 3 values; assignment documented in DESIGN.md §6 (bar-label
// ambiguity resolved against the abstract's 19-67% NiLiCon range and
// Table I's 31% for streamcluster).
constexpr std::array<PaperPoint, 7> kPaper = {{
    {0.1948, 0.1254},  // swaptions
    {0.3183, 0.2596},  // streamcluster
    {0.3371, 0.3244},  // redis
    {0.3767, 0.3018},  // ssdb
    {0.6732, 0.7185},  // node
    {0.5832, 0.3897},  // lighttpd
    {0.5467, 0.5266},  // djcms
}};

struct Point {
  double overhead = 0;
  double stopped = 0;
  double runtime = 0;
};

RunConfig make_cfg(const apps::AppSpec& spec, Mode mode) {
  RunConfig cfg;
  cfg.spec = spec;
  cfg.mode = mode;
  cfg.measure = measure_seconds();
  cfg.batch_work = batch_seconds();
  return cfg;
}

Point score(const apps::AppSpec& spec, const RunResult& r,
            double stock_metric) {
  Point p;
  if (spec.interactive) {
    p.overhead = 1.0 - r.throughput_rps / stock_metric;
  } else {
    p.overhead = to_seconds(r.batch_runtime) / stock_metric - 1.0;
  }
  // Stopped overhead: fraction of wall time the container spent paused.
  double epoch_s = to_seconds(nlc::milliseconds(30));
  double stop_s = r.metrics.stop_time_ms.empty()
                      ? 0.0
                      : r.metrics.stop_time_ms.mean() / 1e3;
  p.stopped = stop_s / (epoch_s + stop_s);
  if (p.stopped > p.overhead) p.stopped = p.overhead;
  p.runtime = p.overhead - p.stopped;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Figure 3: performance overhead, NiLiCon vs MC (runtime + stopped)",
         "NiLiCon paper, Figure 3");

  auto specs = apps::paper_benchmarks();
  std::printf("%-14s | %-34s | %-34s\n", "benchmark", "NiLiCon overhead",
              "MC overhead");
  std::printf("%-14s | %-17s %-16s | %-17s %-16s\n", "", "total(paper)",
              "run/stop split", "total(paper)", "run/stop split");
  std::printf("---------------------------------------------------------"
              "---------------------------\n");

  // The full matrix — 7 benchmarks x {stock, NiLiCon-epoch, MC,
  // NiLiCon-replay} — in one parallel batch; each cell is an independent
  // simulation. The replay column also exposes the two wire streams
  // (page delta vs event log), accounted separately end to end.
  std::vector<RunConfig> cfgs;
  for (const auto& spec : specs) {
    cfgs.push_back(make_cfg(spec, Mode::kStock));
    cfgs.push_back(make_cfg(spec, Mode::kNiLiCon));
    cfgs.push_back(make_cfg(spec, Mode::kMc));
    RunConfig replay = make_cfg(spec, Mode::kNiLiCon);
    replay.nilicon.commit_mode = core::CommitMode::kReplay;
    cfgs.push_back(replay);
  }
  std::vector<RunResult> rs = bench::run_all(cfgs);

  bench::BenchJson json("fig3_overhead");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const RunResult& stock = rs[i * 4];
    double stock_metric = spec.interactive
                              ? stock.throughput_rps
                              : to_seconds(stock.batch_runtime);

    Point nil = score(spec, rs[i * 4 + 1], stock_metric);
    Point mc = score(spec, rs[i * 4 + 2], stock_metric);
    json.point(spec.name + "_nilicon", nil.overhead);
    json.point(spec.name + "_mc", mc.overhead);

    std::printf("%-14s | %6.2f%% (%6.2f%%) %6.2f%%/%6.2f%% | "
                "%6.2f%% (%6.2f%%) %6.2f%%/%6.2f%%\n",
                spec.name.c_str(), nil.overhead * 100, kPaper[i].nilicon * 100,
                nil.runtime * 100, nil.stopped * 100, mc.overhead * 100,
                kPaper[i].mc * 100, mc.runtime * 100, mc.stopped * 100);
  }

  // ---- Wire streams under the replay commit mode --------------------------
  std::printf("\nReplay commit mode: overhead and wire traffic by stream\n");
  std::printf("%-14s | %-9s | %-12s | %-12s | %-s\n", "benchmark",
              "overhead", "page stream", "log stream", "log share");
  std::printf("---------------------------------------------------------"
              "--------------\n");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const RunResult& stock = rs[i * 4];
    const RunResult& rep = rs[i * 4 + 3];
    double stock_metric = spec.interactive
                              ? stock.throughput_rps
                              : to_seconds(stock.batch_runtime);
    Point p = score(spec, rep, stock_metric);
    double page_mb =
        static_cast<double>(rep.metrics.bytes_shipped) / (1024.0 * 1024.0);
    double log_mb = static_cast<double>(rep.metrics.log_bytes_shipped) /
                    (1024.0 * 1024.0);
    double share = page_mb + log_mb > 0 ? log_mb / (page_mb + log_mb) : 0.0;
    json.point(spec.name + "_replay", p.overhead);
    json.point(spec.name + "_replay_page_mb", page_mb);
    json.point(spec.name + "_replay_log_mb", log_mb);
    std::printf("%-14s | %7.2f%% | %9.2f MB | %9.2f MB | %6.2f%%\n",
                spec.name.c_str(), p.overhead * 100, page_mb, log_mb,
                share * 100);
  }
  std::printf("\nShape checks: NiLiCon stop-dominated for most benchmarks;\n"
              "MC runtime-dominated; both in the same band per benchmark.\n"
              "The event log is a thin stream next to the page delta —\n"
              "ordering/RNG/timer records plus input payload sidecars.\n");
  footer();
  json.write();
  return 0;
}
