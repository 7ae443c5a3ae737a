#include "mc/micro_checkpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nlc::mc {

McDriver::McDriver(McOptions opts, kern::Kernel& kernel, net::TcpStack& tcp,
                   kern::ContainerId cid, core::StateChannel& state_out,
                   core::AckChannel& ack_in,
                   core::ReplicationMetrics& metrics)
    : opts_(opts), kernel_(&kernel), tcp_(&tcp), cid_(cid),
      state_out_(&state_out), ack_in_(&ack_in), metrics_(&metrics),
      rng_(opts.seed ^ 0x4D43ull),
      ack_event_(std::make_unique<sim::Event>(kernel.simulation())) {}

net::IpAddr McDriver::service_ip() const {
  return static_cast<net::IpAddr>(kernel_->container(cid_)->service_ip());
}

sim::task<> McDriver::start() {
  sim::Simulation& sim = kernel_->simulation();
  // The guest kernel's own memory activity: a pseudo-process inside the
  // "VM" whose pages the hypervisor sees dirtied every epoch.
  guest_noise_pages_mapped_ = std::max<std::uint64_t>(
      opts_.guest_noise_pages * 4, 256);
  kern::Process& gk = kernel_->create_process(cid_, "guest-kernel");
  guest_kernel_pid_ = gk.pid();
  kern::Vma noise =
      gk.mm().map(guest_noise_pages_mapped_, kern::VmaKind::kAnon,
                  "[guest-kernel]");
  guest_noise_start_ = noise.start;

  tcp_->plug(service_ip()).engage();
  co_await checkpoint_once(/*initial=*/true);
  sim.spawn(kernel_->domain(), ack_loop());
  sim.spawn(kernel_->domain(), epoch_loop());
}

sim::task<> McDriver::epoch_loop() {
  sim::Simulation& sim = kernel_->simulation();
  while (running_) {
    co_await sim.sleep_for(kMcEpochLength);
    if (!running_) break;
    NLC_CHECK(epoch_ >= 1);
    if (epoch_ >= 2) co_await wait_acked(epoch_ - 2);
    co_await checkpoint_once(false);
  }
}

sim::task<> McDriver::wait_acked(std::uint64_t epoch) {
  while (!gate_.quorate(epoch)) {
    ack_event_->reset();
    co_await ack_event_->wait();
  }
}

sim::task<> McDriver::checkpoint_once(bool initial) {
  sim::Simulation& sim = kernel_->simulation();
  std::uint64_t epoch = epoch_;
  Time stop_begin = sim.now();

  // Guest kernel activity since the last epoch (network stack buffers,
  // timers, page cache) — dirtied just before the pause observes it.
  if (opts_.guest_noise_pages > 0) {
    kern::Process* gk = kernel_->process(guest_kernel_pid_);
    std::uint64_t base = static_cast<std::uint64_t>(rng_.uniform(
        0, static_cast<std::int64_t>(guest_noise_pages_mapped_ -
                                     opts_.guest_noise_pages)));
    gk->mm().touch_range(guest_noise_start_ + base, opts_.guest_noise_pages);
  }

  // Pause the VM; incoming packets queue in the host tap ring.
  kernel_->freeze_container(cid_);
  tcp_->ingress(service_ip()).set_mode(net::IngressFilter::Mode::kBuffer);

  // The hypervisor reads guest memory directly: collect the dirty set.
  std::uint64_t dirty = 0;
  for (kern::Process* p : kernel_->container_processes(cid_)) {
    if (initial) {
      dirty += p->mm().mapped_pages();
    } else {
      dirty += p->mm().dirty_count();
    }
    p->mm().clear_soft_dirty();
  }
  Time stop_cost = costs_.stop_base +
                   static_cast<Time>(dirty) * costs_.copy_per_page;
  co_await sim.sleep_for(stop_cost);

  // Resume; ship asynchronously (MC buffers and transmits post-resume).
  tcp_->ingress(service_ip()).set_mode(net::IngressFilter::Mode::kPass);
  std::uint64_t marker = tcp_->plug(service_ip()).insert_marker();
  pending_markers_[epoch] = {marker, stop_begin};
  kernel_->thaw_container(cid_);

  Time stop = sim.now() - stop_begin;
  std::uint64_t bytes = dirty * nlc::kPageSize + costs_.device_state_bytes;
  if (!initial) {
    metrics_->stop_time_ms.add(to_millis(stop));
    metrics_->state_bytes.add(static_cast<double>(bytes));
    metrics_->dirty_pages.add(static_cast<double>(dirty));
    metrics_->epoch_len_ms.add(to_millis(kMcEpochLength));
    ++metrics_->epochs_completed;
    metrics_->bytes_shipped += bytes;
  }

  core::EpochStateMsg msg;
  msg.epoch = epoch;
  msg.wire_bytes = bytes;
  msg.image.epoch = epoch;
  msg.image.container = cid_;
  // MC ships raw pages; reuse the image's page vector for the count only
  // (contents live in guest memory, not needed by the MC backup model).
  msg.image.pages.resize(dirty);
  state_out_->send(std::move(msg), bytes);
  ++epoch_;
}

sim::task<> McDriver::ack_loop() {
  while (true) {
    core::AckMsg ack = co_await ack_in_->recv();
    const core::CommitGate::Advance adv = gate_.ack(0, ack.epoch);
    ack_event_->set();
    for (std::uint64_t e = adv.begin; e < adv.end; ++e) {
      auto it = pending_markers_.find(e);
      if (it == pending_markers_.end()) continue;
      tcp_->plug(service_ip()).release_to_marker(it->second.first);
      metrics_->commit_latency_ms.add(
          to_millis(kernel_->simulation().now() - it->second.second));
      pending_markers_.erase(it);
    }
  }
}

sim::task<> McDriver::backup_responder() {
  while (true) {
    core::EpochStateMsg msg = co_await state_out_->recv();
    sim::Simulation& sim = kernel_->simulation();
    Time cost = costs_.backup_base +
                static_cast<Time>(msg.image.pages.size()) *
                    costs_.backup_per_page;
    co_await sim.sleep_for(cost);
    metrics_->backup_busy += cost;
    ack_in_->send(core::AckMsg{msg.epoch}, 64);
  }
}

}  // namespace nlc::mc
