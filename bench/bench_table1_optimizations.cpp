// Table I: impact of NiLiCon's performance optimizations, applied
// cumulatively, on the streamcluster overhead.
//
// Each row enables one more optimization (real alternative code paths —
// list vs radix page store, 100ms freezer sleep vs polling, proxy copies,
// fresh vs cached infrequent state, firewall vs plug input blocking,
// smaps vs netlink, synchronous vs staged shipping, pipe vs shared-memory
// page transfer).
#include <array>
#include <cstdio>

#include "apps/catalog.hpp"
#include "bench/common.hpp"
#include "harness/experiment.hpp"
#include "util/bytes.hpp"

namespace {
using namespace nlc;
using namespace nlc::bench;

constexpr std::array<double, 7> kPaperOverhead = {19.40, 6.19, 0.84, 0.65,
                                                  0.53,  0.37, 0.31};
}  // namespace

int main(int argc, char** argv) {
  expect_no_args(argc, argv);
  header("Table I: impact of NiLiCon's optimizations (streamcluster)",
         "NiLiCon paper, Table I");
  BenchJson json("table1_optimizations");

  apps::AppSpec spec = apps::streamcluster_spec();
  // The basic configuration runs ~20x slower than real time; a modest work
  // quota keeps the row affordable while the overhead ratio is stable.
  Time work = full_mode() ? nlc::seconds(4) : nlc::milliseconds(1500);

  // One parallel batch: the stock baseline plus the 8 cumulative rows (all
  // independent simulations; results come back in submission order).
  std::vector<harness::RunConfig> cfgs;
  {
    harness::RunConfig stock_cfg;
    stock_cfg.spec = spec;
    stock_cfg.mode = harness::Mode::kStock;
    stock_cfg.batch_work = work;
    cfgs.push_back(stock_cfg);
  }
  for (int rowi = 0; rowi < 8; ++rowi) {
    harness::RunConfig cfg;
    cfg.spec = spec;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.nilicon = core::Options::table1_row(rowi);
    cfg.batch_work = work;
    cfgs.push_back(cfg);
  }
  std::vector<harness::RunResult> rs = run_all(cfgs);

  double stock_s = to_seconds(rs[0].batch_runtime);
  std::printf("stock runtime: %.3fs (work quota %.1fs x 4 threads)\n\n",
              stock_s, to_seconds(work));
  std::printf("%-45s | %-22s\n", "configuration", "overhead (paper)");
  std::printf("--------------------------------------------------------------"
              "--------\n");

  for (int rowi = 0; rowi < 8; ++rowi) {
    const auto& r = rs[static_cast<std::size_t>(rowi) + 1];
    double overhead = to_seconds(r.batch_runtime) / stock_s - 1.0;
    json.point(core::Options::table1_row_name(rowi), overhead);
    if (rowi < 7) {
      std::printf("%-45s | %7.0f%% (%6.0f%%)\n",
                  core::Options::table1_row_name(rowi), overhead * 100.0,
                  kPaperOverhead[static_cast<std::size_t>(rowi)] * 100.0);
    } else {
      // Row 7 is our extension, not in the paper's table. streamcluster's
      // working set is accounting-only, so the overhead should match row 6;
      // the wire-byte effect is measured on the KV workload below.
      std::printf("%-45s | %7.0f%% (   n/a)\n",
                  core::Options::table1_row_name(rowi), overhead * 100.0);
    }
  }
  std::printf("\nShape check: a steep monotone staircase; caching the\n"
              "infrequently-modified state is the single largest win.\n");

  // ---- Delta-compression ablation (extension) -----------------------------
  // streamcluster dirties accounting pages (version-only), which the delta
  // stage cannot shrink. The wire-byte win shows on a content workload:
  // redis in KV-validation mode, where SETs write real 900-byte values into
  // 4 KiB record pages, so successive epochs re-ship mostly-unchanged pages.
  header("Extension: dirty-page delta compression (redis, KV content)",
         "extension beyond the paper");
  apps::AppSpec kv = apps::redis_spec();
  std::printf("%-32s | %14s | %14s | %s\n", "configuration",
              "wire bytes/ep", "dirty pages/ep", "compression");
  std::printf("--------------------------------------------------------------"
              "--------\n");
  std::vector<harness::RunConfig> delta_cfgs;
  for (bool delta : {false, true}) {
    harness::RunConfig cfg;
    cfg.spec = kv;
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.nilicon = core::Options::table1_row(delta ? 7 : 6);
    cfg.kv_validation = true;
    cfg.measure = full_mode() ? nlc::seconds(8) : nlc::seconds(3);
    delta_cfgs.push_back(cfg);
  }
  std::vector<harness::RunResult> drs = run_all(delta_cfgs);
  double base_bytes = 0;
  for (std::size_t i = 0; i < drs.size(); ++i) {
    bool delta = i == 1;
    const auto& r = drs[i];
    double bytes = r.metrics.state_bytes.mean();
    if (!delta) base_bytes = bytes;
    double ratio = r.metrics.compression_ratio.count() > 0
                       ? r.metrics.compression_ratio.mean()
                       : 1.0;
    json.point(delta ? "kv_wire_bytes_delta" : "kv_wire_bytes_base",
               r.metrics.state_bytes);
    std::printf("%-32s | %12.0f B | %14.0f | wire/raw %.3f\n",
                delta ? "+ Delta-compress dirty pages" : "All paper opts",
                bytes, r.metrics.dirty_pages.mean(), ratio);
    if (delta && base_bytes > 0) {
      json.scalar("kv_wire_reduction", 1.0 - bytes / base_bytes);
      std::printf("\nper-epoch wire bytes reduced %.1f%% "
                  "(%.0f MiB kept off the replication link)\n",
                  (1.0 - bytes / base_bytes) * 100.0,
                  static_cast<double>(r.metrics.wire_bytes_saved) /
                      static_cast<double>(nlc::kMiB));
    }
  }
  footer();
  json.write();
  return 0;
}
