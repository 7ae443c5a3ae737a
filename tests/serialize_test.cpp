#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blockdev/disk.hpp"
#include "criu/checkpoint.hpp"
#include "criu/serialize.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/arena.hpp"

namespace nlc::criu {
namespace {

CheckpointImage sample_image() {
  CheckpointImage img;
  img.epoch = 42;
  img.container = 7;
  img.container_name = "web";
  img.service_ip = 0x0A0000FE;
  img.net_ns_id = 0x40000001;
  img.full = true;

  kern::Namespace ns;
  ns.type = kern::NamespaceType::kNet;
  ns.ns_id = 0x40000001;
  ns.config_bytes = 4096;
  ns.version = 3;
  auto inf = std::make_shared<InfrequentState>();
  inf->namespaces.push_back(ns);
  inf->cgroup = {"/sys/fs/cgroup/web", 100000, 1 << 30, 2};
  inf->mounts.push_back({"proc", "/proc", "proc", 0});
  inf->devices.push_back({"/dev/null", 1, 3});
  inf->mmap_files.push_back("/lib/libc.so.6");
  inf->version = 9;
  img.infrequent = std::move(inf);

  ProcessRecord p;
  p.pid = 101;
  p.comm = "server";
  p.sigmask = 0xFF00;
  ThreadRecord t;
  t.tid = 201;
  t.regs.gpr[3] = 0x1234;
  t.regs.rip = 0x400000;
  t.policy = kern::SchedPolicy::kFifo;
  t.priority = 5;
  p.threads.push_back(t);
  kern::Vma v;
  v.id = 1;
  v.start = 0x1000;
  v.npages = 64;
  v.kind = kern::VmaKind::kAnon;
  v.backing_file = "[heap]";
  p.vmas.push_back(v);
  p.plain_fds[3] = kern::FdEntry{.kind = kern::FdKind::kFile, .inode = 55};
  img.processes.push_back(p);

  SocketRecord sr;
  sr.pid = 101;
  sr.fd = 4;
  sr.repair.local = {0x0A0000FE, 80};
  sr.repair.remote = {0x0A000001, 40001};
  sr.repair.snd_una = 1000;
  sr.repair.snd_nxt = 1500;
  sr.repair.rcv_nxt = 2200;
  net::Segment seg;
  seg.seq = 1000;
  seg.len = 500;
  seg.tag = 77;
  seg.payload = std::make_shared<const std::vector<std::byte>>(
      500, std::byte{0x3C});
  sr.repair.write_queue.push_back(seg);
  img.sockets.push_back(sr);
  img.listeners.push_back({0, 0, {0x0A0000FE, 80}});

  img.fs_cache.inodes.push_back(
      kern::DncInodeEntry{{200, "/data/db", 8192, 0600, 1000, 1000, 123}});
  kern::DncPageEntry pe;
  pe.ino = 200;
  pe.page_index = 1;
  pe.data.assign(kPageSize, std::byte{0x7E});
  img.fs_cache.pages.push_back(pe);

  PageRecord pr;
  pr.page = 0x1005;
  pr.version = 12;
  pr.content = util::arena_make_shared<kern::PageBytes>(kPageSize, std::byte{0x42});
  pr.wire_size = 916;  // delta-compressed on the wire
  img.pages.push_back(pr);
  PageRecord accounting;
  accounting.page = 0x1006;
  accounting.version = 13;
  img.pages.push_back(accounting);
  return img;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  CheckpointImage img = sample_image();
  auto bytes = serialize_image(img);
  CheckpointImage back = deserialize_image(bytes);

  EXPECT_EQ(back.epoch, img.epoch);
  EXPECT_EQ(back.container, img.container);
  EXPECT_EQ(back.container_name, img.container_name);
  EXPECT_EQ(back.service_ip, img.service_ip);
  EXPECT_EQ(back.net_ns_id, img.net_ns_id);
  EXPECT_EQ(back.full, img.full);

  ASSERT_EQ(back.infrequent->namespaces.size(), 1u);
  EXPECT_EQ(back.infrequent->namespaces[0], img.infrequent->namespaces[0]);
  EXPECT_EQ(back.infrequent->cgroup, img.infrequent->cgroup);
  EXPECT_EQ(back.infrequent->mounts, img.infrequent->mounts);
  EXPECT_EQ(back.infrequent->devices, img.infrequent->devices);
  EXPECT_EQ(back.infrequent->mmap_files, img.infrequent->mmap_files);
  EXPECT_EQ(back.infrequent->version, 9u);

  ASSERT_EQ(back.processes.size(), 1u);
  EXPECT_EQ(back.processes[0].pid, 101);
  EXPECT_EQ(back.processes[0].comm, "server");
  EXPECT_EQ(back.processes[0].sigmask, 0xFF00u);
  ASSERT_EQ(back.processes[0].threads.size(), 1u);
  EXPECT_EQ(back.processes[0].threads[0].regs, img.processes[0].threads[0].regs);
  EXPECT_EQ(back.processes[0].threads[0].policy, kern::SchedPolicy::kFifo);
  ASSERT_EQ(back.processes[0].vmas.size(), 1u);
  EXPECT_EQ(back.processes[0].vmas[0].backing_file, "[heap]");
  EXPECT_EQ(back.processes[0].plain_fds.at(3).inode, 55u);

  ASSERT_EQ(back.sockets.size(), 1u);
  EXPECT_EQ(back.sockets[0].repair.snd_nxt, 1500u);
  ASSERT_EQ(back.sockets[0].repair.write_queue.size(), 1u);
  ASSERT_NE(back.sockets[0].repair.write_queue[0].payload, nullptr);
  EXPECT_EQ((*back.sockets[0].repair.write_queue[0].payload)[0],
            std::byte{0x3C});
  ASSERT_EQ(back.listeners.size(), 1u);
  EXPECT_EQ(back.listeners[0].local.port, 80);

  ASSERT_EQ(back.fs_cache.inodes.size(), 1u);
  EXPECT_EQ(back.fs_cache.inodes[0].attr.path, "/data/db");
  ASSERT_EQ(back.fs_cache.pages.size(), 1u);
  EXPECT_EQ(back.fs_cache.pages[0].data[0], std::byte{0x7E});

  ASSERT_EQ(back.pages.size(), 2u);
  ASSERT_TRUE(back.pages[0].has_content());
  EXPECT_EQ((*back.pages[0].content)[100], std::byte{0x42});
  EXPECT_EQ(back.pages[0].wire_size, 916u);
  EXPECT_FALSE(back.pages[1].has_content());
  EXPECT_EQ(back.pages[1].wire_size, kPageSize);
}

TEST(SerializeTest, EmptyImageRoundTrips) {
  CheckpointImage img;
  auto bytes = serialize_image(img);
  CheckpointImage back = deserialize_image(bytes);
  EXPECT_EQ(back.epoch, 0u);
  EXPECT_TRUE(back.processes.empty());
  EXPECT_TRUE(back.pages.empty());
}

TEST(SerializeTest, BadMagicRejected) {
  auto bytes = serialize_image(sample_image());
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(deserialize_image(bytes), InvariantError);
}

TEST(SerializeTest, TruncationRejected) {
  auto bytes = serialize_image(sample_image());
  for (std::size_t cut :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
    std::span<const std::byte> trunc(bytes.data(), cut);
    EXPECT_THROW(deserialize_image(trunc), InvariantError) << cut;
  }
}

TEST(SerializeTest, TrailingGarbageRejected) {
  auto bytes = serialize_image(sample_image());
  bytes.push_back(std::byte{0xAA});
  EXPECT_THROW(deserialize_image(bytes), InvariantError);
}

TEST(SerializeTest, FramingCorruptionRejected) {
  CheckpointImage img = sample_image();
  auto bytes = serialize_image(img);
  // Flip a byte inside a section-length field region; either a framing
  // check or a bounds check must fire (never silent misparse into success
  // with different content).
  auto mutated = bytes;
  mutated[40] = static_cast<std::byte>(
      static_cast<std::uint8_t>(mutated[40]) ^ 0xFF);
  bool threw = false;
  CheckpointImage back;
  try {
    back = deserialize_image(mutated);
  } catch (const InvariantError&) {
    threw = true;
  }
  if (!threw) {
    // Parsed, but the corruption must not vanish: re-serializing the
    // parsed image must reproduce the mutated bytes, not the original
    // (round-trip fidelity means no byte is silently ignored).
    auto reserialized = serialize_image(back);
    EXPECT_NE(reserialized, bytes);
    EXPECT_EQ(reserialized, mutated);
  }
}

/// Integration: a real harvested image round-trips bit-faithfully enough
/// to restore from (sizes and counts preserved).
TEST(SerializeTest, HarvestedImageRoundTrips) {
  sim::Simulation s;
  blk::Disk disk;
  kern::Kernel kernel(s, nullptr, "h", disk);
  net::Network net(s);
  auto host = net.add_host("h", nullptr);
  net::TcpStack tcp(s, nullptr, net, host);
  kern::Container& c = kernel.create_container("rt");
  kern::Process& p = kernel.create_process(c.id(), "app");
  p.mm().map(32, kern::VmaKind::kAnon);
  kernel.mmap_file(p.pid(), 8, "/lib/x.so");
  kernel.freeze_container(c.id());
  CheckpointEngine eng(kernel, tcp);
  HarvestOptions opts;
  opts.incremental = false;
  auto hr = eng.harvest(c.id(), 0, nullptr, opts);

  auto bytes = serialize_image(hr.image);
  CheckpointImage back = deserialize_image(bytes);
  EXPECT_EQ(back.pages.size(), hr.image.pages.size());
  EXPECT_EQ(back.processes.size(), hr.image.processes.size());
  EXPECT_EQ(back.infrequent->mmap_files, hr.image.infrequent->mmap_files);
  EXPECT_EQ(back.byte_size(), hr.image.byte_size());
}

/// Two images replaying one cached snapshot serialize it in full, each
/// the same bytes as an image holding its own copy; each parsed image
/// gets a snapshot of its own.
TEST(SerializeTest, SharedSnapshotRoundTripsInEachImage) {
  CheckpointImage a = sample_image();
  CheckpointImage b = sample_image();
  b.epoch = 43;
  b.infrequent = a.infrequent;
  ASSERT_EQ(a.infrequent.get(), b.infrequent.get());

  CheckpointImage own_copy = sample_image();
  own_copy.epoch = 43;
  ASSERT_NE(own_copy.infrequent.get(), a.infrequent.get());
  const std::vector<std::byte> bytes_b = serialize_image(b);
  EXPECT_EQ(bytes_b, serialize_image(own_copy));
  EXPECT_EQ(b.byte_size(), own_copy.byte_size());

  const std::vector<std::byte> bytes_a = serialize_image(a);
  CheckpointImage back_a = deserialize_image(bytes_a);
  CheckpointImage back_b = deserialize_image(bytes_b);
  EXPECT_NE(back_a.infrequent.get(), back_b.infrequent.get());
  EXPECT_EQ(back_b.infrequent->mounts, a.infrequent->mounts);
  EXPECT_EQ(serialize_image(back_a), bytes_a);
  EXPECT_EQ(serialize_image(back_b), bytes_b);
}

/// A default-constructed image holds the one shared empty snapshot, never
/// null, and serializes and sizes it like any other.
TEST(SerializeTest, DefaultImageHoldsTheEmptySnapshot) {
  CheckpointImage a;
  CheckpointImage b;
  ASSERT_NE(a.infrequent, nullptr);
  EXPECT_EQ(a.infrequent.get(), b.infrequent.get());
  EXPECT_EQ(a.infrequent->byte_size(), InfrequentState{}.byte_size());
  CheckpointImage back = deserialize_image(serialize_image(a));
  EXPECT_EQ(back.byte_size(), a.byte_size());
  EXPECT_EQ(serialize_image(back), serialize_image(a));
}

}  // namespace
}  // namespace nlc::criu
