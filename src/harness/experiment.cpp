#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>

#include "apps/batch_app.hpp"
#include "apps/diskstress.hpp"
#include "apps/server_app.hpp"
#include "check/audit.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "harness/parallel.hpp"
#include "mc/micro_checkpoint.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nlc::harness {

using namespace nlc::literals;
using core::Cluster;
using sim::task;

namespace {

/// Pre-uploads `pages` KV records into the server's store (the §VII-B
/// Redis experiment uploads ~100 MB before the fault).
void prefill_kv(Cluster& cl, apps::ServerApp& app, std::uint64_t pages,
                std::uint64_t seed) {
  kern::Container* c = cl.primary_kernel->container(app.container());
  NLC_CHECK(c != nullptr);
  for (kern::Process* p : cl.primary_kernel->container_processes(
           app.container())) {
    for (const kern::Vma& v : p->mm().vmas()) {
      if (v.backing_file != apps::kKvLabel) continue;
      std::uint64_t n = std::min<std::uint64_t>(pages, v.npages);
      Rng rng(seed);
      // A slice of the records carries real bytes (content-validated);
      // the rest are accounting pages, which keeps a 100MB upload from
      // occupying 100MB of simulator RAM while preserving checkpoint,
      // transfer and restore costs.
      constexpr std::uint64_t kContentSlice = 128;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i < kContentSlice) {
          apps::kv_write_cell(p->mm(), v.start + i, rng.next(),
                              apps::kKvValueLen);
        } else {
          p->mm().touch(v.start + i);
        }
      }
      return;
    }
  }
}

struct ServerRunState {
  std::unique_ptr<apps::ServerApp> restored_app;
  std::unique_ptr<apps::BatchApp> restored_batch;
  std::unique_ptr<apps::DiskStressApp> restored_diskstress;
};

}  // namespace

RunResult run_experiment(const RunConfig& cfg) {
  NLC_CHECK_MSG(!cfg.inject_fault || fault_kind_fits(cfg),
                std::string("fault kind ") + fault_kind_name(cfg.fault_kind) +
                    " needs NiLiCon mode with more than one replica");
  RunResult res;
  // The cluster's replica set and wiring topology are construction-time
  // properties (protect() cross-checks them against the Options).
  core::ClusterConfig ccfg;
  if (cfg.mode == Mode::kNiLiCon) {
    ccfg.replicas = cfg.nilicon.replicas;
    ccfg.topology = cfg.nilicon.topology;
  }
  // MC plumbing (only used in MC mode). Declared before cl: the cluster's
  // destructor destroys the suspended coroutine frames, and the MC epoch
  // loop may be parked on the driver's own ack event.
  std::unique_ptr<mc::McDriver> mc_driver;
  Cluster cl(ccfg);
  Rng rng(cfg.seed);

  // Declared after cl so the auditor detaches from the still-live cluster
  // components on destruction.
  std::unique_ptr<check::InvariantAuditor> auditor;

  kern::Container& cont = cl.create_service_container(cfg.spec.name);
  kern::ContainerId cid = cont.id();

  if (cfg.mode == Mode::kNiLiCon &&
      cfg.nilicon.audit_level != core::AuditLevel::kOff) {
    cl.on_agents_created = [&cl, &auditor, &cfg, cid] {
      auditor = std::make_unique<check::InvariantAuditor>(cl, cid,
                                                          cfg.nilicon);
      auditor->attach();
    };
  }

  apps::AppEnv primary_env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp,
                           core::kServiceIp, cfg.seed ^ 0xA11};

  std::unique_ptr<apps::ServerApp> server;
  std::unique_ptr<apps::BatchApp> batch;
  std::unique_ptr<apps::DiskStressApp> diskstress;
  auto state = std::make_shared<ServerRunState>();

  apps::AppSpec batch_spec = cfg.spec;  // batch variant with the work quota
  batch_spec.batch_cpu_per_thread = cfg.batch_work;
  if (cfg.spec.interactive) {
    server = std::make_unique<apps::ServerApp>(primary_env, cfg.spec);
    server->setup(cid);
    if (cfg.prefill_kv_pages > 0) {
      prefill_kv(cl, *server, cfg.prefill_kv_pages, cfg.seed ^ 0xF111);
    }
  } else {
    batch = std::make_unique<apps::BatchApp>(primary_env, batch_spec);
    batch->setup(cid);
  }
  if (cfg.with_diskstress) {
    diskstress = std::make_unique<apps::DiskStressApp>(primary_env,
                                                       cfg.seed ^ 0xD155);
    diskstress->setup(cid);
  }

  if (cfg.mode == Mode::kMc) {
    mc::McOptions mo;
    mo.guest_noise_pages = cfg.spec.mc_guest_noise_pages;
    mo.seed = cfg.seed;
    // MC runs at N = 1 over the backup's NiLiCon state and ack channels.
    const Cluster::BackupReplica& backup = *cl.backups.front();
    mc_driver = std::make_unique<mc::McDriver>(
        mo, *cl.primary_kernel, cl.primary_tcp, cid, *backup.state_channel,
        *backup.ack_channel, cl.metrics);
    cl.sim.spawn(backup.domain.get(), mc_driver->backup_responder());
  }

  // Client population.
  clients::ClientConfig cc;
  cc.local_ip = core::kClientIp;
  cc.server_ip = core::kServiceIp;
  cc.port = cfg.spec.port;
  cc.connections = cfg.client_connections.value_or(
      cfg.spec.saturation_clients);
  cc.request_bytes = cfg.spec.request_bytes;
  cc.pipeline = cfg.client_pipeline.value_or(cfg.spec.client_pipeline);
  cc.kv_mode = cfg.kv_validation;
  if (cc.kv_mode && cfg.spec.kv_pages > 0) {
    // Key ranges must be disjoint per connection AND map to distinct pages
    // (one page per key): clamp the per-connection keyspace. Two
    // connections sharing a page would overwrite each other's values.
    const auto connections = static_cast<std::uint64_t>(cc.connections);
    NLC_CHECK_MSG(connections <= cfg.spec.kv_pages,
                  "KV validation with " + std::to_string(connections) +
                      " client connections needs a KV page each, but the "
                      "store has " +
                      std::to_string(cfg.spec.kv_pages));
    cc.keys_per_connection = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cc.keys_per_connection,
                                cfg.spec.kv_pages / connections));
  }
  clients::ClosedLoopClient client(cl.sim, cl.client_domain, cl.client_tcp,
                                   cc, cfg.seed ^ 0xC11E);

  // Shared measurement bookkeeping filled by the orchestrator.
  struct Window {
    Time start = 0, end = 0;
    std::uint64_t completed_at_start = 0;
    Time cpu_at_start = 0, backup_busy_at_start = 0;
    std::uint64_t wire_at_start = 0, epochs_at_start = 0;
    Time fault_time = -1;
    std::uint64_t completed_at_fault = 0;
  };
  auto win = std::make_shared<Window>();

  // Fault dispatch: which host(s) die at the injection point.
  auto do_fault = [&cl, &cfg] {
    switch (cfg.fault_kind) {
      case FaultKind::kPrimary:
        cl.fail_primary();
        break;
      case FaultKind::kBackup:
        cl.fail_backup(kFaultBackupReplica);
        break;
      case FaultKind::kRack:
        // Correlated loss of the primary's rack, with every backup the
        // alternating placement put beside it.
        cl.fail_rack(Cluster::rack_of(0));
        break;
      case FaultKind::kDouble:
        cl.fail_backup(kFaultBackupReplica);
        cl.sim.call_after(nlc::milliseconds(50), [&cl] { cl.fail_primary(); });
        break;
    }
  };

  auto orchestrator = [&]() -> task<> {
    // Protection first (small initial sync), then load.
    if (cfg.mode == Mode::kNiLiCon) {
      co_await cl.protect(cid, cfg.nilicon);
      // Every replica gets the reattachment hook: with N > 1 the arbiter
      // decides at fault time which backup restores, so the hook must be
      // armed everywhere with that replica's own kernel/TCP environment.
      for (int i = 0; i < cl.replica_count(); ++i) {
        apps::AppEnv renv{&cl.sim, &cl.backup_kernel_of(i),
                          &cl.backup_tcp_of(i), core::kServiceIp,
                          cfg.seed ^ 0xB22};
        cl.backup(i).set_on_restored(
            [&, state, renv](const core::FailoverContext& ctx) {
              if (cfg.spec.interactive) {
                state->restored_app = apps::ServerApp::attach_restored(
                    renv, cfg.spec, ctx);
                state->restored_app->set_dilation(1.0);  // unprotected now
              } else {
                state->restored_batch = apps::BatchApp::attach_restored(
                    renv, batch_spec, ctx);
              }
              if (cfg.with_diskstress) {
                state->restored_diskstress =
                    apps::DiskStressApp::attach_restored(renv, ctx);
                res.diskstress_post_failover_mismatches =
                    state->restored_diskstress->verify_all();
              }
            });
      }
      if (server) server->set_dilation(cfg.spec.dilation_nilicon);
      if (batch) batch->set_dilation(cfg.spec.dilation_nilicon);
    } else if (cfg.mode == Mode::kMc) {
      co_await mc_driver->start();
      if (server) server->set_dilation(cfg.spec.dilation_mc);
      if (batch) batch->set_dilation(cfg.spec.dilation_mc);
    }

    if (cfg.spec.interactive) {
      client.start();
      co_await client.wait_connected();
      co_await cl.sim.sleep_for(cfg.warmup);

      win->start = cl.sim.now();
      win->end = win->start + cfg.measure;
      win->completed_at_start = client.completed();
      win->cpu_at_start = cont.cpu().usage();
      win->backup_busy_at_start = cl.metrics.backup_busy;
      win->wire_at_start = cl.metrics.bytes_shipped;
      win->epochs_at_start = cl.metrics.epochs_completed;

      if (cfg.inject_fault) {
        double frac = 0.1 + 0.8 * rng.uniform01();
        Time when = win->start + static_cast<Time>(
                                     frac * static_cast<double>(cfg.measure));
        cl.sim.call_after(when - cl.sim.now(), [&cl, win, &client, &do_fault] {
          win->fault_time = cl.sim.now();
          win->completed_at_fault = client.completed();
          do_fault();
        });
      }
      co_await cl.sim.sleep_for(cfg.measure);
      win->end = cl.sim.now();
      client.stop();
      // Allow in-flight requests to drain, then stop the world.
      co_await cl.sim.sleep_for(2_s);
    } else {
      batch->start();
      win->start = cl.sim.now();
      win->cpu_at_start = cont.cpu().usage();
      win->backup_busy_at_start = cl.metrics.backup_busy;
      win->wire_at_start = cl.metrics.bytes_shipped;
      win->epochs_at_start = cl.metrics.epochs_completed;
      if (cfg.inject_fault) {
        // Middle 80% of the expected runtime.
        double frac = 0.1 + 0.8 * rng.uniform01();
        Time when = win->start +
                    static_cast<Time>(frac *
                                      static_cast<double>(cfg.batch_work));
        cl.sim.call_after(when - cl.sim.now(),
                          [win, &cl, &do_fault] {
                            win->fault_time = cl.sim.now();
                            do_fault();
                          });
      }
      // The original workers die with the primary on a fault run; the
      // restored instance (if any) finishes the remaining quota.
      while (!batch->done() &&
             !(state->restored_batch && state->restored_batch->done())) {
        if (batch->done()) break;
        co_await cl.sim.sleep_for(20_ms);
        if (!cfg.inject_fault && batch->done()) break;
      }
      win->end = cl.sim.now();
    }
    if (cl.primary_agent) cl.primary_agent->stop();
    if (mc_driver) mc_driver->stop();
    for (auto& r : cl.backups) {
      if (r->agent) r->agent->disarm();
    }
    cl.sim.stop();
  };
  cl.sim.spawn(orchestrator());
  cl.sim.run();

  res.trace = cl.tracer;
  if (auditor) {
    auditor->final_audit();
    res.audited = true;
    res.audit = auditor->stats();
  }

  // ---- Collect ------------------------------------------------------------
  Time window = win->end - win->start;
  NLC_CHECK(window > 0);
  if (cfg.spec.interactive) {
    res.requests_completed = client.completed() - win->completed_at_start;
    res.throughput_rps = client.throughput(win->start, win->end);
    res.latencies_ms = client.latencies_ms();
    if (!res.latencies_ms.empty()) {
      res.mean_latency_ms = res.latencies_ms.mean();
    }
    for (const auto& [sent, lat] : client.latency_trace()) {
      if (sent >= win->start && sent < win->end) {
        res.latencies_window_ms.add(to_millis(lat));
      }
    }
  } else if (batch->done()) {
    res.batch_runtime = batch->runtime();
    res.batch_ideal = batch->ideal_runtime();
  } else {
    // Finished on the backup after a failover: wall time from the original
    // start to the restored instance's completion.
    res.batch_runtime = win->end - win->start;
    res.batch_ideal = batch->ideal_runtime();
  }
  res.metrics = cl.metrics;
  res.wire_bytes_window = cl.metrics.bytes_shipped - win->wire_at_start;
  res.epochs_window = cl.metrics.epochs_completed - win->epochs_at_start;
  // With N > 1 the arbiter may have promoted any surviving replica; the
  // end-of-run kernel (and the recovery metrics) are the winner's.
  core::BackupAgent* survivor = nullptr;
  int survivor_index = 0;
  for (std::size_t i = 0; i < cl.backups.size(); ++i) {
    core::BackupAgent* agent = cl.backups[i]->agent.get();
    if (agent != nullptr && agent->recovered()) {
      survivor = agent;
      survivor_index = static_cast<int>(i);
    }
  }
  kern::Kernel* end_kernel = (cfg.inject_fault && survivor != nullptr)
                                 ? &cl.backup_kernel_of(survivor_index)
                                 : cl.primary_kernel.get();
  kern::Container* end_cont = end_kernel->container(cid);
  Time cpu_end = 0;
  if (cfg.inject_fault && survivor != nullptr) {
    // Active-core accounting spans hosts after a failover; report the
    // pre-fault primary usage rate instead.
    cpu_end = win->fault_time > 0 ? cont.cpu().usage() : 0;
    Time span = win->fault_time > 0 ? win->fault_time - win->start : window;
    if (span > 0) {
      res.active_cores =
          static_cast<double>(cpu_end - win->cpu_at_start) /
          static_cast<double>(span);
    }
  } else if (end_cont != nullptr) {
    res.active_cores =
        static_cast<double>(end_cont->cpu().usage() - win->cpu_at_start) /
        static_cast<double>(window);
  }
  res.backup_cores =
      static_cast<double>(cl.metrics.backup_busy - win->backup_busy_at_start) /
      static_cast<double>(window);

  if (cfg.inject_fault) {
    res.fault_injected = win->fault_time > 0;
    if (survivor != nullptr) {
      res.recovered = true;
      res.recovery = survivor->recovery_metrics();
    } else if (const core::BackupAgent* head =
                   cl.backups.front()->agent.get()) {
      res.recovered = false;
      res.recovery = head->recovery_metrics();
    }
    res.requests_after_fault = client.completed() - win->completed_at_fault;
    if (diskstress) res.diskstress_errors = diskstress->errors();
    if (state->restored_diskstress) {
      res.diskstress_errors += state->restored_diskstress->errors() -
                               res.diskstress_post_failover_mismatches;
    }

    // Client-observed interruption: latency spike over the pre-fault median.
    Samples pre;
    Time max_post = 0;
    for (const auto& [sent, lat] : client.latency_trace()) {
      if (sent + lat < win->fault_time) {
        pre.add(static_cast<double>(lat));
      } else {
        max_post = std::max(max_post, lat);
      }
    }
    if (!pre.empty() && max_post > 0) {
      res.interruption =
          max_post - static_cast<Time>(pre.percentile(50));
    }
  }
  res.kv_errors = client.kv_errors();
  res.broken_connections = client.broken_connections();
  res.protocol_errors = client.protocol_errors();
  res.sim_events = cl.sim.events_processed();
  return res;
}

double measure_overhead(const RunConfig& protected_cfg) {
  RunConfig stock_cfg = protected_cfg;
  stock_cfg.mode = Mode::kStock;
  stock_cfg.inject_fault = false;
  // The stock baseline and the protected run are independent simulations:
  // run them as two trials on the shared runner.
  TrialRunner runner;
  std::vector<RunResult> rs =
      runner.run(2, [&](TrialContext& ctx) {
        RunResult r =
            run_experiment(ctx.index == 0 ? stock_cfg : protected_cfg);
        ctx.sim_events = r.sim_events;
        return r;
      });
  RunResult& stock = rs[0];
  RunResult& prot = rs[1];
  if (protected_cfg.spec.interactive) {
    NLC_CHECK(stock.throughput_rps > 0);
    return 1.0 - prot.throughput_rps / stock.throughput_rps;
  }
  NLC_CHECK(stock.batch_runtime > 0);
  return static_cast<double>(prot.batch_runtime) /
             static_cast<double>(stock.batch_runtime) -
         1.0;
}

}  // namespace nlc::harness
