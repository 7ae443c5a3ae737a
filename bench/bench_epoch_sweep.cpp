// Adaptive epoch controller vs the paper's fixed 30 ms (DESIGN.md §15).
//
// The paper pins every epoch at 30 ms (§II-A): short enough that the
// output-commit delay stays tolerable, long enough to amortize the stop
// cost. core::EpochController replaces the constant with a feedback loop,
// and this bench gates both of its promised wins against fixed-30ms
// baselines, per commit mode:
//
//   Epoch commit, single client (the Table VI frame, where the commit
//   cadence owns the response tail): p99 must improve on at least two
//   request-response apps and regress on none — the drain/busy shrink
//   gates must hold the capacity-bound apps exactly neutral.
//
//   Replay commit (latency decoupled from epoch length): the controller
//   stretches epochs toward the 2 s target, and dirty-set saturation must
//   cut the steady-state page wire rate >= 3x on the working-set-locality
//   apps at equal (±5%) p99, with stop time still inside the budget and
//   failover replay still inside 2x the recovery budget (fault rows).
//
// Steady-state figures use the measurement-window accounting
// (wire_bytes_window, latencies_window_ms): whole-run metrics include the
// adaptive ramp, which would dilute the wire rate and own the p99 tail.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "core/epoch_controller.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace nlc;

/// Steady-state page wire rate, bytes per simulated second. Normalized per
/// epoch first: the window boundary can split an epoch, and at second-scale
/// lengths that jitter would be a ±25% error on a plain bytes/window rate.
double wire_rate(const harness::RunResult& r) {
  if (r.epochs_window == 0 || r.metrics.ctl_final_epoch_len == 0) return 0.0;
  double per_epoch = static_cast<double>(r.wire_bytes_window) /
                     static_cast<double>(r.epochs_window);
  return per_epoch * 1e9 / static_cast<double>(r.metrics.ctl_final_epoch_len);
}

/// Page wire bytes per completed request — the gated efficiency unit.
/// Long epochs cut the per-second wire rate AND raise throughput (fewer
/// pauses stretch less service time), so a per-second ratio undercounts
/// the win exactly on the apps where it is largest; per-request charges
/// both configurations for the work they actually served.
double wire_per_request(const harness::RunResult& r, Time window) {
  if (r.latencies_window_ms.empty()) return 0.0;
  // Numerator: the per-epoch-normalized steady rate (raw window bytes
  // carry a ±1-epoch boundary jitter at second-scale lengths). Denominator:
  // requests sent inside the same window (requests_completed also counts
  // the post-window drain, which skews second-scale service times).
  const double req_rate = static_cast<double>(r.latencies_window_ms.count()) *
                          1e9 / static_cast<double>(window);
  return wire_rate(r) / req_rate;
}

double p99(const harness::RunResult& r) {
  return r.latencies_window_ms.empty() ? 0.0
                                       : r.latencies_window_ms.percentile(99);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;
  expect_no_args(argc, argv);
  header("Adaptive epoch control vs fixed 30ms (both commit modes)",
         "beyond the paper: NiLiCon §II-A fixed-epoch rationale, DESIGN.md §15");

  struct AppRow {
    const char* name;
    apps::AppSpec spec;
    /// Working-set locality: dirty set saturates with epoch length, so the
    /// replay-mode wire gate applies. The excluded app (node) is
    /// stop-budget-bound — its fixed-30ms stop already sits at the budget,
    /// so the controller correctly refuses to stretch it.
    bool locality;
  };
  const std::vector<AppRow> apps_rows = {
      {"netecho", apps::netecho_spec(), true},
      {"node", apps::node_spec(), false},
      {"lighttpd", apps::lighttpd_spec(), true},
      {"djcms", apps::djcms_spec(), true},
  };

  const Time epoch_measure = measure_seconds();
  // Replay rows: the ramp to the 2 s target takes ~6 s of doubling steps,
  // so warmup covers it and the (longer) window then holds only
  // final-length epochs.
  const Time replay_warmup = nlc::seconds(8);
  const Time replay_measure = 4 * measure_seconds();

  // Per app: epoch fixed/adaptive (1 client), replay fixed/adaptive
  // (saturation clients), replay-adaptive fault probe. 5 rows.
  std::vector<harness::RunConfig> cfgs;
  for (const auto& a : apps_rows) {
    for (int adaptive = 0; adaptive < 2; ++adaptive) {
      harness::RunConfig c;
      c.spec = a.spec;
      c.mode = harness::Mode::kNiLiCon;
      c.nilicon.commit_mode = core::CommitMode::kEpoch;
      c.nilicon.epoch_policy = adaptive ? core::EpochPolicy::kAdaptive
                                        : core::EpochPolicy::kFixed;
      c.client_connections = 1;
      c.warmup = nlc::seconds(1);
      c.measure = epoch_measure;
      cfgs.push_back(c);
    }
    for (int row = 0; row < 3; ++row) {  // fixed, adaptive, adaptive+fault
      harness::RunConfig c;
      c.spec = a.spec;
      c.mode = harness::Mode::kNiLiCon;
      c.nilicon.commit_mode = core::CommitMode::kReplay;
      c.nilicon.epoch_policy = row >= 1 ? core::EpochPolicy::kAdaptive
                                        : core::EpochPolicy::kFixed;
      c.warmup = replay_warmup;
      c.measure = replay_measure;
      c.inject_fault = row == 2;
      cfgs.push_back(c);
    }
  }
  auto rs = run_all(cfgs);

  BenchJson json("epoch_adaptive");
  bool ok = true;
  int epoch_improved = 0;

  std::printf("%-9s | %-26s | %-30s | %-20s\n",
              "app", "epoch-commit p99 (1 client)", "replay wire rate (steady)",
              "replay p99 / stop");
  std::printf("---------------------------------------------------------------"
              "-----------------------------\n");

  const double stop_budget_ms = to_millis(core::epochctl::kStopBudget);
  for (std::size_t i = 0; i < apps_rows.size(); ++i) {
    const auto& a = apps_rows[i];
    const auto& ef = rs[i * 5 + 0];  // epoch commit, fixed
    const auto& ea = rs[i * 5 + 1];  // epoch commit, adaptive
    const auto& rf = rs[i * 5 + 2];  // replay commit, fixed
    const auto& ra = rs[i * 5 + 3];  // replay commit, adaptive
    const auto& rx = rs[i * 5 + 4];  // replay commit, adaptive, fault

    const std::string app = a.name;
    json.point(app + "_epoch_fixed_ms", ef.latencies_window_ms);
    json.point(app + "_epoch_adaptive_ms", ea.latencies_window_ms);
    json.point(app + "_replay_fixed_ms", rf.latencies_window_ms);
    json.point(app + "_replay_adaptive_ms", ra.latencies_window_ms);
    json.scalar(app + "_epoch_adaptive_final_ms",
                to_millis(ea.metrics.ctl_final_epoch_len));
    json.scalar(app + "_replay_adaptive_final_ms",
                to_millis(ra.metrics.ctl_final_epoch_len));
    const double rate_f = wire_rate(rf);
    const double rate_a = wire_rate(ra);
    const double wpr_f = wire_per_request(rf, replay_measure);
    const double wpr_a = wire_per_request(ra, replay_measure);
    const double ratio = wpr_a > 0 ? wpr_f / wpr_a : 0.0;
    json.scalar(app + "_replay_wire_rate_fixed_mbs", rate_f / 1e6);
    json.scalar(app + "_replay_wire_rate_adaptive_mbs", rate_a / 1e6);
    json.scalar(app + "_replay_wire_ratio", ratio);
    json.scalar(app + "_replay_retained_peak_bytes",
                static_cast<double>(ra.metrics.log_retained_bytes_peak));
    json.scalar(app + "_replay_stop_ms", ra.metrics.stop_time_ms.empty()
                                             ? 0.0
                                             : ra.metrics.stop_time_ms.mean());
    json.scalar(app + "_fault_replay_ms", to_millis(rx.recovery.replay_time));
    json.scalar(app + "_fault_unavail_ms",
                to_millis(rx.recovery.total_unavailability));

    std::printf("%-9s | %8.1f -> %8.1fms       | %7.2f -> %7.2f MB/s %5.2fx/req"
                " | %6.1fms %6.1fms\n",
                a.name, p99(ef), p99(ea), rate_f / 1e6, rate_a / 1e6, ratio,
                p99(ra),
                ra.metrics.stop_time_ms.empty()
                    ? 0.0
                    : ra.metrics.stop_time_ms.mean());

    // ---- Gates --------------------------------------------------------------
    // Epoch commit: adaptive must never regress p99 past 5%; count the
    // apps it strictly improves (>3% to stay off measurement noise).
    if (p99(ef) > 0 && p99(ea) > 1.05 * p99(ef)) {
      std::printf("GATE FAIL: %s epoch-commit p99 regressed %.1f -> %.1fms\n",
                  a.name, p99(ef), p99(ea));
      ok = false;
    }
    if (p99(ef) > 0 && p99(ea) < 0.97 * p99(ef)) ++epoch_improved;

    // Adaptive stop time must respect the controller's budget in both
    // modes (whole-run mean, which includes the small ramp epochs).
    for (const auto* r : {&ea, &ra}) {
      if (!r->metrics.stop_time_ms.empty() &&
          r->metrics.stop_time_ms.mean() > stop_budget_ms) {
        std::printf("GATE FAIL: %s adaptive stop %.2fms > budget %.0fms\n",
                    a.name, r->metrics.stop_time_ms.mean(), stop_budget_ms);
        ok = false;
      }
    }

    // Replay commit on locality apps: the headline wire win at equal p99.
    if (a.locality) {
      if (ratio < 3.0) {
        std::printf("GATE FAIL: %s replay wire bytes/request ratio %.2fx "
                    "< 3.0x\n",
                    a.name, ratio);
        ok = false;
      }
      if (p99(rf) > 0 && p99(ra) > 1.05 * p99(rf)) {
        std::printf("GATE FAIL: %s replay p99 %.1fms > 1.05x fixed %.1fms\n",
                    a.name, p99(ra), p99(rf));
        ok = false;
      }
      // Long epochs only pay if checkpoint-commit truncation keeps the
      // backup's retained log bounded (segments must actually be pruned).
      if (ra.metrics.log_pruned_segments == 0) {
        std::printf("GATE FAIL: %s replay run pruned no log segments\n",
                    a.name);
        ok = false;
      }
      if (ra.metrics.log_retained_bytes_peak >
          core::epochctl::kLogRetainedBudget) {
        std::printf("GATE FAIL: %s retained log peak %llu > budget %llu\n",
                    a.name,
                    static_cast<unsigned long long>(
                        ra.metrics.log_retained_bytes_peak),
                    static_cast<unsigned long long>(
                        core::epochctl::kLogRetainedBudget));
        ok = false;
      }
    }

    // Fault probe: mid-adaptation failover must recover, with the log
    // replay inside 2x the recovery budget the controller planned for.
    if (!rx.fault_injected || !rx.recovered) {
      std::printf("GATE FAIL: %s fault row did not recover\n", a.name);
      ok = false;
    } else if (rx.recovery.replay_time > 2 * core::epochctl::kReplayBudget) {
      std::printf("GATE FAIL: %s failover replay %.1fms > 2x budget %.1fms\n",
                  a.name, to_millis(rx.recovery.replay_time),
                  to_millis(core::epochctl::kReplayBudget));
      ok = false;
    }
  }

  if (epoch_improved < 2) {
    std::printf("GATE FAIL: epoch-commit p99 improved on %d apps (< 2)\n",
                epoch_improved);
    ok = false;
  }
  json.scalar("epoch_p99_improved_apps", epoch_improved);

  std::printf("\nEpoch commit: the controller shrinks into idle headroom on\n"
              "request-response apps (p99 tracks the commit cadence) and the\n"
              "drain/busy gates hold capacity-bound apps at the baseline.\n"
              "Replay commit: epochs stretch to the 2s target and dirty-set\n"
              "saturation cuts the steady page wire rate >= 3x on the\n"
              "locality apps, with the retained event log truncated on every\n"
              "checkpoint commit and failover replay inside budget.\n");
  footer();
  json.write();
  if (!ok) {
    std::printf("\nBENCH GATES FAILED\n");
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
