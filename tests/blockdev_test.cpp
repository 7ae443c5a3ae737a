#include <gtest/gtest.h>

#include <cstring>

#include "blockdev/disk.hpp"
#include "blockdev/drbd.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace nlc::blk {
namespace {

using namespace nlc::literals;
using sim::task;

std::vector<std::byte> block_of(char fill) {
  return std::vector<std::byte>(64, static_cast<std::byte>(fill));
}

TEST(DiskTest, WriteReadRoundTrip) {
  Disk d;
  auto data = block_of('A');
  d.write_block(5, 0, data);
  auto back = d.read_block(5, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  EXPECT_FALSE(d.read_block(5, 1).has_value());
  EXPECT_EQ(d.writes(), 1u);
}

TEST(DiskTest, SameContentComparison) {
  Disk a, b;
  a.write_block(1, 0, block_of('x'));
  EXPECT_FALSE(a.same_content(b));
  b.write_block(1, 0, block_of('x'));
  EXPECT_TRUE(a.same_content(b));
}

struct DrbdRig {
  sim::Simulation s;
  sim::DomainPtr primary_dom = std::make_shared<sim::Domain>("primary");
  sim::DomainPtr backup_dom = std::make_shared<sim::Domain>("backup");
  net::Link link{s, net::kTenGigabit, 20_us};
  net::Channel<DrbdMessage> chan{s, link, backup_dom.get()};
  Disk primary_disk, backup_disk;
  DrbdPrimary primary{primary_disk};
  DrbdBackup backup{s, backup_disk, chan};

  DrbdRig() {
    primary.add_channel(chan);
    s.spawn(backup_dom.get(), backup.run());
  }
  ~DrbdRig() { s.shutdown(); }
};

TEST(DrbdTest, WritesBufferedUntilCommit) {
  DrbdRig r;
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
  }(r));
  r.s.run();
  // Arrived and buffered, not applied.
  EXPECT_EQ(r.backup.buffered_writes(), 1u);
  EXPECT_FALSE(r.backup_disk.read_block(1, 0).has_value());
  r.backup.commit(1);
  EXPECT_TRUE(r.primary_disk.same_content(r.backup_disk));
  EXPECT_EQ(r.backup.committed_epoch(), 1u);
}

TEST(DrbdTest, PrimaryAppliesLocallyImmediately) {
  DrbdRig r;
  r.primary.write_block(3, 7, block_of('z'));
  EXPECT_TRUE(r.primary_disk.read_block(3, 7).has_value());
  auto back = r.primary.read_block(3, 7);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)[0], static_cast<std::byte>('z'));
}

TEST(DrbdTest, WriteOrBarrierWithoutReplicaChannelTripsTheCheck) {
  // A primary with no replica channel would replicate to nobody: the write
  // must fail before it lands on the local disk.
  Disk local;
  DrbdPrimary primary{local};
  EXPECT_THROW(primary.write_block(1, 0, block_of('a')), InvariantError);
  EXPECT_THROW(primary.send_barrier(0), InvariantError);
  EXPECT_FALSE(local.read_block(1, 0).has_value());
}

TEST(DrbdTest, DiscardUncommittedProtectsBackupDisk) {
  DrbdRig r;
  // Epoch 1 committed, epoch 2 in flight at failure.
  r.primary.write_block(1, 0, block_of('1'));
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
    rr.backup.commit(1);
  }(r));
  r.s.run();
  r.primary.write_block(1, 0, block_of('2'));  // uncommitted epoch 2
  r.primary.send_barrier(2);
  r.s.run();
  r.backup.discard_uncommitted();
  auto back = r.backup_disk.read_block(1, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)[0], static_cast<std::byte>('1'));  // epoch-1 content
}

TEST(DrbdTest, MultiEpochCommitInOrder) {
  DrbdRig r;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    r.primary.write_block(e, 0, block_of(static_cast<char>('0' + e)));
    r.primary.send_barrier(e);
  }
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(3);
  }(r));
  r.s.run();
  r.backup.commit(2);
  EXPECT_EQ(r.backup.committed_epoch(), 2u);
  EXPECT_TRUE(r.backup_disk.read_block(2, 0).has_value());
  EXPECT_FALSE(r.backup_disk.read_block(3, 0).has_value());
  r.backup.commit(3);
  EXPECT_TRUE(r.primary_disk.same_content(r.backup_disk));
}

TEST(DrbdTest, BarrierWithNoWrites) {
  DrbdRig r;
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
  }(r));
  r.s.run();
  r.backup.commit(1);
  EXPECT_EQ(r.backup.committed_epoch(), 1u);
  EXPECT_EQ(r.backup.writes_committed(), 0u);
}

TEST(DrbdTest, WriteAfterBarrierLandsInNextEpoch) {
  DrbdRig r;
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.primary.write_block(2, 0, block_of('b'));
  r.primary.send_barrier(2);
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(2);
  }(r));
  r.s.run();
  r.backup.commit(1);
  EXPECT_TRUE(r.backup_disk.read_block(1, 0).has_value());
  EXPECT_FALSE(r.backup_disk.read_block(2, 0).has_value());
}

TEST(DrbdTest, ReplicationStopsWhenBackupDead) {
  DrbdRig r;
  r.backup_dom->kill();
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.s.run();
  EXPECT_EQ(r.backup.buffered_writes(), 0u);
  // Primary disk unaffected.
  EXPECT_TRUE(r.primary_disk.read_block(1, 0).has_value());
}

/// Filesystem + DRBD integration: writeback on the primary reaches the
/// backup disk only after commit.
TEST(DrbdTest, FilesystemWritebackFlowsThroughReplication) {
  DrbdRig r;
  kern::Filesystem fs(r.primary);
  auto ino = fs.create("/db");
  const char msg[] = "durable";
  std::vector<std::byte> data(sizeof msg - 1);
  std::memcpy(data.data(), msg, data.size());
  fs.write(ino, 0, data, 1);
  fs.sync_all();
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom.get(), [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
    rr.backup.commit(1);
  }(r));
  r.s.run();

  // A filesystem mounted over the backup disk reads the same bytes.
  kern::Filesystem backup_fs(r.backup_disk);
  auto ino2 = backup_fs.create("/db");
  auto back = backup_fs.read(ino2, 0, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace nlc::blk
