// DRBD-style replicated block device with Remus epoch barriers (§II-A, §IV).
//
// The primary's writes are applied to the local disk immediately and
// shipped asynchronously over the replication link. The backup BUFFERS the
// received writes in memory, segmented by epoch barriers. When the primary
// agent ends an epoch it sends a barrier; when the backup agent has both
// (a) all disk writes up to the barrier and (b) the container state of that
// epoch, the epoch commits: the buffered writes are applied to the backup
// disk. On failover, writes of the uncommitted epoch are discarded, so the
// backup disk holds exactly the state of the last committed checkpoint.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "blockdev/disk.hpp"
#include "net/channel.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "trace/stream.hpp"
#include "util/assert.hpp"

namespace nlc::blk {

struct DiskWrite {
  kern::InodeNum ino = 0;
  std::uint64_t page = 0;
  std::vector<std::byte> data;
};

struct Barrier {
  std::uint64_t epoch = 0;
};

using DrbdMessage = std::variant<DiskWrite, Barrier>;

/// Primary-side DRBD: local write-through + async replication.
class DrbdPrimary : public kern::BlockStore {
 public:
  explicit DrbdPrimary(Disk& local) : local_(&local) {}

  void write_block(kern::InodeNum ino, std::uint64_t page,
                   std::span<const std::byte> data) override {
    NLC_CHECK_MSG(!channels_.empty(), "DRBD write before any add_channel");
    local_->write_block(ino, page, data);
    const std::uint64_t wire = data.size() + kWriteHeaderBytes;
    DiskWrite w{ino, page, {data.begin(), data.end()}};
    // Star fan-out (DESIGN.md §16): every directly-fed replica gets its own
    // copy of the write stream; the channels share the primary's
    // replication NIC, so the copies contend there.
    for (std::size_t i = 0; i + 1 < channels_.size(); ++i) {
      channels_[i]->send(DrbdMessage{w}, wire);
    }
    channels_.back()->send(DrbdMessage{std::move(w)}, wire);
  }

  std::optional<std::vector<std::byte>> read_block(
      kern::InodeNum ino, std::uint64_t page) const override {
    return local_->read_block(ino, page);
  }

  /// End-of-epoch barrier (sent by the primary agent at each pause).
  void send_barrier(std::uint64_t epoch) {
    NLC_CHECK_MSG(!channels_.empty(), "DRBD barrier before any add_channel");
    for (net::Channel<DrbdMessage>* ch : channels_) {
      ch->send(DrbdMessage{Barrier{epoch}}, kBarrierBytes);
    }
  }

  /// Adds a directly fed replica's write channel, in replica order: every
  /// star replica, or a chain's head.
  void add_channel(net::Channel<DrbdMessage>& ch) {
    channels_.push_back(&ch);
  }

  Disk& local_disk() { return *local_; }

  static constexpr std::uint64_t kWriteHeaderBytes = 64;
  static constexpr std::uint64_t kBarrierBytes = 32;

 private:
  Disk* local_;
  std::vector<net::Channel<DrbdMessage>*> channels_;
};

/// Backup-side DRBD: receives writes, buffers per epoch, commits on demand.
class DrbdBackup {
 public:
  DrbdBackup(sim::Simulation& s, Disk& local,
             net::Channel<DrbdMessage>& from_primary)
      : sim_(&s), local_(&local), channel_(&from_primary),
        barrier_arrived_(s) {}

  /// Receiver loop; spawn on the backup host.
  sim::task<> run() {
    while (true) {
      DrbdMessage m = co_await channel_->recv();
      if (forward_ != nullptr) {
        // Chain topology (DESIGN.md §16): store-and-forward a copy to the
        // next replica down the chain before consuming the message, with
        // the same wire accounting the primary used.
        const auto* fw = std::get_if<DiskWrite>(&m);
        forward_->send(DrbdMessage{m},
                       fw != nullptr
                           ? fw->data.size() + DrbdPrimary::kWriteHeaderBytes
                           : DrbdPrimary::kBarrierBytes);
      }
      if (auto* w = std::get_if<DiskWrite>(&m)) {
        pending_.push_back(std::move(*w));
      } else {
        last_barrier_ = std::get<Barrier>(m).epoch;
        epochs_.push_back(EpochWrites{*last_barrier_, std::move(pending_)});
        pending_.clear();
        if (obs_) {
          obs_.instant(trace::Track::kDrbd, trace::Stage::kDrbdBuffer,
                       sim_->now(), epochs_.back().writes.size());
          obs_.instant(trace::Track::kDrbd, trace::Stage::kDrbdBarrier,
                       sim_->now(), *last_barrier_);
          emit_buffered();
        }
        barrier_arrived_.set();
      }
    }
  }

  /// Awaits arrival of the barrier for `epoch` (all of that epoch's writes
  /// are then buffered).
  sim::task<> wait_barrier(std::uint64_t epoch) {
    // Empty until the first barrier (epochs are 0-based): epoch 0 must not
    // be acknowledged before its disk writes are buffered here, or a crash
    // right after the epoch-0 commit would lose them.
    while (!last_barrier_ || *last_barrier_ < epoch) {
      barrier_arrived_.reset();
      co_await barrier_arrived_.wait();
    }
  }

  /// Applies all buffered writes up to and including `epoch`.
  void commit(std::uint64_t epoch) {
    while (!epochs_.empty() && epochs_.front().epoch <= epoch) {
      for (const DiskWrite& w : epochs_.front().writes) {
        local_->write_block(w.ino, w.page, w.data);
        ++writes_committed_;
      }
      committed_epoch_ = epochs_.front().epoch;
      obs_.instant(trace::Track::kDrbd, trace::Stage::kDrbdCommit,
                   sim_->now(), committed_epoch_);
      epochs_.pop_front();
    }
    if (obs_) emit_buffered();
  }

  /// Failover: drops every buffered write of uncommitted epochs (including
  /// writes not yet closed by a barrier).
  void discard_uncommitted() {
    std::uint64_t dropped = buffered_writes();
    epochs_.clear();
    pending_.clear();
    obs_.instant(trace::Track::kDrbd, trace::Stage::kDrbdDiscard, sim_->now(),
                 dropped);
    obs_.counter(trace::Track::kDrbd, trace::Stage::kDrbdBufferedWrites,
                 sim_->now(), 0);
  }

  /// Chain topology: forward every received message down this channel.
  void set_forward(net::Channel<DrbdMessage>* down) { forward_ = down; }

  /// Attaches (or clears) the protocol event stream (observer only).
  void set_stream(trace::Stream* s) { obs_.attach(s); }

  Disk& local_disk() { return *local_; }
  std::uint64_t committed_epoch() const { return committed_epoch_; }
  std::optional<std::uint64_t> last_barrier() const { return last_barrier_; }
  std::uint64_t buffered_writes() const {
    std::uint64_t n = pending_.size();
    for (const auto& e : epochs_) n += e.writes.size();
    return n;
  }
  std::uint64_t writes_committed() const { return writes_committed_; }

 private:
  struct EpochWrites {
    std::uint64_t epoch;
    std::vector<DiskWrite> writes;
  };

  void emit_buffered() const {
    obs_.counter(trace::Track::kDrbd, trace::Stage::kDrbdBufferedWrites,
                 sim_->now(), buffered_writes());
  }

  sim::Simulation* sim_;
  Disk* local_;
  net::Channel<DrbdMessage>* channel_;
  net::Channel<DrbdMessage>* forward_ = nullptr;
  trace::Observer obs_;
  sim::Event barrier_arrived_;
  std::vector<DiskWrite> pending_;
  std::deque<EpochWrites> epochs_;
  std::optional<std::uint64_t> last_barrier_;
  std::uint64_t committed_epoch_ = 0;
  std::uint64_t writes_committed_ = 0;
};

}  // namespace nlc::blk
