#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/qdisc.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"

namespace nlc::net {
namespace {

using namespace nlc::literals;
using sim::task;

constexpr IpAddr kClientIp = 0x0A000001;
constexpr IpAddr kPrimaryIp = 0x0A000002;
constexpr IpAddr kBackupIp = 0x0A000003;
constexpr IpAddr kServiceIp = 0x0A0000FE;  // container virtual IP

TEST(LinkTest, SerializationDelayMatchesBandwidth) {
  sim::Simulation s;
  Link link(s, kGigabit, 50_us);
  // 1 Gb/s => 125 MB/s => 1250 bytes take 10us.
  EXPECT_EQ(link.serialization_delay(1250), 10_us);
}

TEST(LinkTest, FifoWithBackToBackTransmissions) {
  sim::Simulation s;
  Link link(s, kGigabit, 0);
  EXPECT_EQ(link.transmit(1250), 10_us);
  EXPECT_EQ(link.transmit(1250), 20_us);  // serialized after the first
  EXPECT_EQ(link.busy_until(), 20_us);
  // Once the link idles, a transmit starts at now().
  s.call_after(50_us, [&] { EXPECT_EQ(link.transmit(1250), 60_us); });
  s.run();
  EXPECT_EQ(link.busy_until(), 60_us);
}

TEST(LinkTest, LatencyAddsAfterSerialization) {
  sim::Simulation s;
  Link link(s, kTenGigabit, 100_us);
  EXPECT_EQ(link.transmit(12500), 10_us + 100_us);  // 12.5KB @ 10Gb/s = 10us
  // The latency overlaps the next packet's serialization.
  EXPECT_EQ(link.transmit(12500), 20_us + 100_us);
}

TEST(LinkTest, DownedLinkSwallowsTransmits) {
  sim::Simulation s;
  Link link(s, kGigabit, 0);
  link.set_down(true);
  EXPECT_EQ(link.transmit(1250), kNever);
  EXPECT_EQ(link.busy_until(), 0);
  link.set_down(false);
  EXPECT_EQ(link.transmit(1250), 10_us);
}

// ------------------------------------------------------------ PlugQdisc --

TEST(PlugQdiscTest, DisengagedPassesThrough) {
  int sent = 0;
  PlugQdisc q([&](const Packet&) { ++sent; });
  q.enqueue(Packet{});
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(q.pending_packets(), 0u);
}

TEST(PlugQdiscTest, EngagedBuffersUntilMarkerRelease) {
  std::vector<std::uint64_t> sent;
  PlugQdisc q([&](const Packet& p) { sent.push_back(p.tag); });
  q.engage();
  Packet p;
  p.tag = 1;
  q.enqueue(p);
  p.tag = 2;
  q.enqueue(p);
  auto m1 = q.insert_marker();
  p.tag = 3;
  q.enqueue(p);  // belongs to the next epoch
  EXPECT_TRUE(sent.empty());
  q.release_to_marker(m1);
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(q.pending_packets(), 1u);
}

TEST(PlugQdiscTest, SequentialEpochReleases) {
  std::vector<std::uint64_t> sent;
  PlugQdisc q([&](const Packet& p) { sent.push_back(p.tag); });
  q.engage();
  Packet p;
  p.tag = 1;
  q.enqueue(p);
  auto m1 = q.insert_marker();
  p.tag = 2;
  q.enqueue(p);
  auto m2 = q.insert_marker();
  q.release_to_marker(m1);
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{1}));
  q.release_to_marker(m2);
  EXPECT_EQ(sent, (std::vector<std::uint64_t>{1, 2}));
}

TEST(PlugQdiscTest, DiscardAllDropsUncommittedOutput) {
  int sent = 0;
  PlugQdisc q([&](const Packet&) { ++sent; });
  q.engage();
  q.enqueue(Packet{});
  q.discard_all();
  EXPECT_EQ(sent, 0);
  EXPECT_EQ(q.pending_packets(), 0u);
}

// --------------------------------------------------------- IngressFilter --

TEST(IngressFilterTest, BufferModeHoldsAndFlushes) {
  std::vector<std::uint64_t> got;
  IngressFilter f([&](const Packet& p) { got.push_back(p.tag); });
  f.set_mode(IngressFilter::Mode::kBuffer);
  Packet p;
  p.tag = 7;
  f.input(p);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(f.held_packets(), 1u);
  f.set_mode(IngressFilter::Mode::kPass);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{7}));
}

TEST(IngressFilterTest, DropModeDiscards) {
  int got = 0;
  IngressFilter f([&](const Packet&) { ++got; });
  f.set_mode(IngressFilter::Mode::kDrop);
  f.input(Packet{});
  f.set_mode(IngressFilter::Mode::kPass);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.dropped_total(), 1u);
}

// ------------------------------------------------------------ Test rig ----

/// Client host + primary host (+ optional backup host), with the paper's
/// link speeds.
struct Rig {
  sim::Simulation s;
  sim::DomainPtr client_dom = std::make_shared<sim::Domain>("client");
  sim::DomainPtr primary_dom = std::make_shared<sim::Domain>("primary");
  sim::DomainPtr backup_dom = std::make_shared<sim::Domain>("backup");
  Network net{s};
  HostId client_host = net.add_host("client", client_dom.get());
  HostId primary_host = net.add_host("primary", primary_dom.get());
  HostId backup_host = net.add_host("backup", backup_dom.get());
  TcpStack client{s, client_dom, net, client_host};
  TcpStack primary{s, primary_dom, net, primary_host};
  TcpStack backup{s, backup_dom, net, backup_host};

  Rig() {
    net.add_link(client_host, primary_host, kGigabit, 100_us);
    net.add_link(client_host, backup_host, kGigabit, 100_us);
    net.add_link(primary_host, backup_host, kTenGigabit, 20_us);
    client.add_address(kClientIp);
    primary.add_address(kPrimaryIp);
    backup.add_address(kBackupIp);
    primary.add_address(kServiceIp);  // container IP lives on primary
  }
};

TEST(TcpTest, ConnectAcceptRoundTrip) {
  Rig r;
  SocketId server_sock = 0, client_sock = 0;
  r.primary.listen({kServiceIp, 80});
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
  }(r, server_sock));
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& cs) -> task<> {
    cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
  }(r, client_sock));
  r.s.run();
  ASSERT_NE(client_sock, 0u);
  ASSERT_NE(server_sock, 0u);
  EXPECT_EQ(r.client.state(client_sock), TcpState::kEstablished);
  EXPECT_EQ(r.primary.state(server_sock), TcpState::kEstablished);
}

TEST(TcpTest, DataRoundTripWithTagAndPayload) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  std::optional<Segment> got;
  r.s.spawn(r.primary_dom.get(),
            [](Rig& rr, std::optional<Segment>& g) -> task<> {
    SocketId ss = co_await rr.primary.accept({kServiceIp, 80});
    g = co_await rr.primary.recv(ss);
    rr.primary.send(ss, 500, /*tag=*/99);
  }(r, got));
  std::optional<Segment> reply;
  r.s.spawn(r.client_dom.get(),
            [](Rig& rr, std::optional<Segment>& rep) -> task<> {
    SocketId cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    auto payload = std::make_shared<std::vector<std::byte>>(
        100, std::byte{0x5A});
    rr.client.send(cs, 100, /*tag=*/42, payload);
    rep = co_await rr.client.recv(cs);
  }(r, reply));
  r.s.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 42u);
  EXPECT_EQ(got->len, 100u);
  ASSERT_NE(got->payload, nullptr);
  EXPECT_EQ((*got->payload)[0], std::byte{0x5A});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->tag, 99u);
}

TEST(TcpTest, MultipleSegmentsInOrder) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  std::vector<std::uint64_t> tags;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, std::vector<std::uint64_t>& t)
                -> task<> {
    SocketId ss = co_await rr.primary.accept({kServiceIp, 80});
    for (int i = 0; i < 3; ++i) {
      auto seg = co_await rr.primary.recv(ss);
      t.push_back(seg->tag);
    }
  }(r, tags));
  r.s.spawn(r.client_dom.get(), [](Rig& rr) -> task<> {
    SocketId cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    rr.client.send(cs, 10, 1);
    rr.client.send(cs, 10, 2);
    rr.client.send(cs, 10, 3);
  }(r));
  r.s.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TcpTest, PeekLeavesSegmentInReadQueue) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
    auto seg = co_await rr.primary.peek(ss);
    EXPECT_EQ(seg->tag, 5u);
  }(r, server_sock));
  r.s.spawn(r.client_dom.get(), [](Rig& rr) -> task<> {
    SocketId cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    rr.client.send(cs, 10, 5);
  }(r));
  r.s.run();
  EXPECT_EQ(r.primary.read_queue_bytes(server_sock), 10u);
  r.primary.consume(server_sock);
  EXPECT_EQ(r.primary.read_queue_bytes(server_sock), 0u);
}

TEST(TcpTest, ConnectToDeadPortGetsReset) {
  Rig r;
  SocketId cs = 1;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& out) -> task<> {
    out = co_await rr.client.connect(kClientIp, {kServiceIp, 9999});
  }(r, cs));
  r.s.run();
  EXPECT_EQ(cs, 0u);
  EXPECT_EQ(r.primary.rsts_sent(), 1u);
}

TEST(TcpTest, AckClearsWriteQueue) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
    rr.primary.send(ss, 1000, 1);
  }(r, server_sock));
  r.s.spawn(r.client_dom.get(), [](Rig& rr) -> task<> {
    SocketId cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    co_await rr.client.recv(cs);
  }(r));
  r.s.run();
  EXPECT_EQ(r.primary.bytes_unacked(server_sock), 0u);
}

TEST(TcpTest, DroppedSynIsRetransmittedWithBackoff) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  // Firewall-style drop at the service for the first second (stock CRIU
  // input blocking: SYN lost, client retries after 1s).
  r.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kDrop);
  r.s.call_after(500_ms, [&] {
    r.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kPass);
  });
  SocketId cs = 0;
  Time connected_at = -1;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& out, Time& at) -> task<> {
    out = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    at = rr.s.now();
  }(r, cs, connected_at));
  r.s.run();
  ASSERT_NE(cs, 0u);
  EXPECT_GE(connected_at, 1_s);  // full SYN timeout burned
  EXPECT_GE(r.client.retransmissions(), 1u);
}

TEST(TcpTest, BufferedIngressAddsOnlyQueueingDelay) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  r.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kBuffer);
  r.s.call_after(5_ms, [&] {
    r.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kPass);
  });
  SocketId cs = 0;
  Time connected_at = -1;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& out, Time& at) -> task<> {
    out = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    at = rr.s.now();
  }(r, cs, connected_at));
  r.s.run();
  ASSERT_NE(cs, 0u);
  EXPECT_LT(connected_at, 10_ms);  // no SYN timeout, just the 5ms hold
  EXPECT_EQ(r.client.retransmissions(), 0u);
}

TEST(TcpTest, LostDataRecoveredByRetransmission) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  std::vector<std::uint64_t> tags;
  r.s.spawn(r.primary_dom.get(),
            [](Rig& rr, SocketId& ss, std::vector<std::uint64_t>& t)
                -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
    for (int i = 0; i < 2; ++i) {
      auto seg = co_await rr.primary.recv(ss);
      t.push_back(seg->tag);
    }
  }(r, server_sock, tags));
  r.s.spawn(r.client_dom.get(), [](Rig& rr) -> task<> {
    SocketId cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    rr.client.send(cs, 10, 1);
    // Drop the second segment at the service ingress.
    rr.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kDrop);
    rr.client.send(cs, 10, 2);
    co_await rr.s.sleep_for(10_ms);
    rr.primary.ingress(kServiceIp).set_mode(IngressFilter::Mode::kPass);
  }(r));
  r.s.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_GE(r.client.retransmissions(), 1u);
}

// --------------------------------------------------- repair / failover ----

/// Establishes a client<->primary connection, moves the server socket to
/// the backup via repair dump/restore, and rebinds the service IP — the
/// TCP half of a NiLiCon failover.
TEST(TcpRepairTest, FailoverPreservesConnection) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
    auto seg = co_await rr.primary.recv(ss);
    rr.primary.send(ss, 100, seg->tag + 1000);
  }(r, server_sock));

  SocketId client_sock = 0;
  std::vector<std::uint64_t> replies;
  r.s.spawn(r.client_dom.get(),
            [](Rig& rr, SocketId& cs, std::vector<std::uint64_t>& rep)
                -> task<> {
    cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    rr.client.send(cs, 10, 1);
    auto first = co_await rr.client.recv(cs);
    rep.push_back(first->tag);
  }(r, client_sock, replies));
  r.s.run();
  ASSERT_EQ(replies, (std::vector<std::uint64_t>{1001}));

  // Checkpoint the server socket, kill the primary, restore on backup.
  TcpRepairState st = r.primary.repair_dump(server_sock);
  r.primary_dom->kill();
  SocketId restored = r.backup.repair_restore(st, /*rto_fixed=*/true);
  r.backup.takeover_address(kServiceIp);  // gratuitous ARP

  // The client sends another request; it must reach the backup socket and
  // get a response, with the connection intact.
  std::vector<std::uint64_t> tags2;
  r.s.spawn(r.backup_dom.get(),
            [](Rig& rr, SocketId ss, std::vector<std::uint64_t>& t)
                -> task<> {
    auto seg = co_await rr.backup.recv(ss);
    t.push_back(seg->tag);
    rr.backup.send(ss, 100, seg->tag + 1000);
  }(r, restored, tags2));
  std::optional<Segment> reply2;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId cs,
                             std::optional<Segment>& rep) -> task<> {
    rr.client.send(cs, 10, 2);
    rep = co_await rr.client.recv(cs);
  }(r, client_sock, reply2));
  r.s.run();
  EXPECT_EQ(tags2, (std::vector<std::uint64_t>{2}));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(reply2->tag, 1002u);
  EXPECT_EQ(r.client.state(client_sock), TcpState::kEstablished);
}

/// The §V-E scenario: at failover the server had sent data the client never
/// received. The restored socket must retransmit it after its RTO; with the
/// paper's fix that is 200ms instead of >= 1s.
TEST(TcpRepairTest, RestoredSocketRetransmitsUnackedData) {
  for (bool rto_fixed : {false, true}) {
    Rig r;
    r.primary.listen({kServiceIp, 80});
    SocketId server_sock = 0;
    r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
      ss = co_await rr.primary.accept({kServiceIp, 80});
      co_await rr.primary.recv(ss);
    }(r, server_sock));
    SocketId client_sock = 0;
    r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& cs) -> task<> {
      cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
      rr.client.send(cs, 10, 1);
    }(r, client_sock));
    r.s.run();

    // Server "sends" a response while partitioned: give the repair state a
    // write-queue entry the client has never seen.
    TcpRepairState st = r.primary.repair_dump(server_sock);
    Segment lost;
    lost.seq = st.snd_nxt;
    lost.len = 100;
    lost.tag = 777;
    st.write_queue.push_back(lost);
    st.snd_nxt += 100;

    r.primary_dom->kill();
    Time t0 = r.s.now();
    SocketId restored = r.backup.repair_restore(st, rto_fixed);
    r.backup.takeover_address(kServiceIp);

    std::optional<Segment> got;
    Time got_at = -1;
    r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId cs,
                               std::optional<Segment>& g, Time& at)
                  -> task<> {
      g = co_await rr.client.recv(cs);
      at = rr.s.now();
    }(r, client_sock, got, got_at));
    r.s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, 777u);
    if (rto_fixed) {
      EXPECT_LT(got_at - t0, 300_ms);
      EXPECT_GE(got_at - t0, 200_ms);
    } else {
      EXPECT_GE(got_at - t0, 1_s);  // stock: >= 1s RTO
    }
    EXPECT_EQ(r.backup.bytes_unacked(restored), 0u);  // client ACKed
  }
}

/// Duplicate data after failover: client retransmits a request the
/// committed checkpoint already contained; the restored socket must ACK
/// without re-queueing it.
TEST(TcpRepairTest, DuplicateSegmentAfterFailoverIsAckedNotRequeued) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
  }(r, server_sock));
  SocketId client_sock = 0;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& cs) -> task<> {
    cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
    rr.client.send(cs, 10, 1);
  }(r, client_sock));
  r.s.run();

  // Checkpoint with the segment still unread in the read queue.
  TcpRepairState st = r.primary.repair_dump(server_sock);
  ASSERT_EQ(st.read_queue.size(), 1u);
  r.primary_dom->kill();
  SocketId restored = r.backup.repair_restore(st, true);
  r.backup.takeover_address(kServiceIp);

  // Force a client retransmission of the same segment (it was ACKed by the
  // primary, but pretend the ACK was lost: resend manually).
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId cs) -> task<> {
    co_await rr.s.sleep_for(1_ms);
    // Simulate retransmission by sending a packet with the original seq.
    (void)cs;
    co_return;
  }(r, client_sock));
  r.s.run();
  EXPECT_EQ(r.backup.read_queue_bytes(restored), 10u);  // exactly one copy
}

/// §III: a packet arriving between netns restore and socket restore causes
/// an RST that breaks the connection — unless ingress is blocked.
TEST(TcpRepairTest, RecoveryWithoutInputBlockingBreaksConnection) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
  }(r, server_sock));
  SocketId client_sock = 0;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& cs) -> task<> {
    cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
  }(r, client_sock));
  r.s.run();
  TcpRepairState st = r.primary.repair_dump(server_sock);
  r.primary_dom->kill();

  // Netns (address) is restored BEFORE the socket, with no input blocking:
  r.backup.takeover_address(kServiceIp);
  // Client data arrives in the window -> RST.
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId cs) -> task<> {
    rr.client.send(cs, 10, 1);
    co_return;
  }(r, client_sock));
  r.s.run();
  EXPECT_EQ(r.client.state(client_sock), TcpState::kReset);
  EXPECT_GE(r.backup.rsts_sent(), 1u);

  // Restoring the socket now is too late; the connection is broken. This
  // is exactly why NiLiCon disconnects the bridge during recovery.
  (void)st;
}

/// Same scenario but with recovery-time input blocking: no RST, connection
/// survives.
TEST(TcpRepairTest, RecoveryWithInputBlockingPreservesConnection) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  SocketId server_sock = 0;
  r.s.spawn(r.primary_dom.get(), [](Rig& rr, SocketId& ss) -> task<> {
    ss = co_await rr.primary.accept({kServiceIp, 80});
  }(r, server_sock));
  SocketId client_sock = 0;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& cs) -> task<> {
    cs = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
  }(r, client_sock));
  r.s.run();
  TcpRepairState st = r.primary.repair_dump(server_sock);
  r.primary_dom->kill();

  r.backup.takeover_address(kServiceIp);
  r.backup.ingress(kServiceIp).set_mode(IngressFilter::Mode::kDrop);
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId cs) -> task<> {
    rr.client.send(cs, 10, 1);
    co_return;
  }(r, client_sock));
  r.s.run_until(r.s.now() + 50_ms);

  SocketId restored = r.backup.repair_restore(st, true);
  r.backup.ingress(kServiceIp).set_mode(IngressFilter::Mode::kPass);
  r.s.run();
  // Client retransmits the request after its RTO; backup receives it.
  EXPECT_EQ(r.client.state(client_sock), TcpState::kEstablished);
  EXPECT_EQ(r.backup.read_queue_bytes(restored), 10u);
  EXPECT_EQ(r.backup.rsts_sent(), 0u);
}

// -------------------------------------------------------------- Channel ----

TEST(ChannelTest, OrderedDeliveryWithWireTime) {
  sim::Simulation s;
  auto dom = std::make_shared<sim::Domain>("backup");
  Link link(s, kTenGigabit, 20_us);
  Channel<int> ch(s, link, dom.get());
  std::vector<std::pair<int, Time>> got;
  s.spawn(dom.get(), [](Channel<int>& c, sim::Simulation& ss,
                  std::vector<std::pair<int, Time>>& g) -> task<> {
    for (int i = 0; i < 2; ++i) {
      int v = co_await c.recv();
      g.emplace_back(v, ss.now());
    }
  }(ch, s, got));
  ch.send(1, 125'000);  // 100us at 10Gb/s
  ch.send(2, 125'000);
  s.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[0].second, 120_us);
  EXPECT_EQ(got[1].second, 220_us);
}

TEST(ChannelTest, MessageToDeadHostDiscarded) {
  sim::Simulation s;
  auto dom = std::make_shared<sim::Domain>("backup");
  Link link(s, kTenGigabit, 20_us);
  Channel<int> ch(s, link, dom.get());
  int got = 0;
  s.spawn(dom.get(), [](Channel<int>& c, int& g) -> task<> {
    g = co_await c.recv();
  }(ch, got));
  dom->kill();
  ch.send(42, 100);
  s.run();
  EXPECT_EQ(got, 0);
  s.shutdown();
}

TEST(ChannelTest, DeadHostDropsOnlyWhatArrivesWhileDead) {
  sim::Simulation s;
  auto dom = std::make_shared<sim::Domain>("backup");
  Link link(s, kTenGigabit, 20_us);
  Channel<int> ch(s, link, dom.get());
  std::vector<int> got;
  s.spawn(dom.get(), [](Channel<int>& c, std::vector<int>& g) -> task<> {
    for (;;) g.push_back(co_await c.recv());
  }(ch, got));
  dom->kill();
  const Time first = ch.send(1, 125'000);  // 120 us
  const Time second = ch.send(2, 125'000);  // 220 us
  s.call_at((first + second) / 2, [&] { dom->revive(); });
  s.run();
  // 1 arrived at a dead host and was dropped; 2 reached the receiver.
  EXPECT_EQ(got, (std::vector<int>{2}));
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(s.events_processed(), 3u);  // revive, delivery of 2, wake-up
  s.shutdown();
}

// --------------------------------------------------------------- Network ----

TEST(NetworkTest, UnboundDestinationBlackholed) {
  Rig r;
  Packet p;
  p.src = {kClientIp, 1000};
  p.dst = {0xDEAD, 80};
  r.net.transmit(kClientIp, p);
  r.s.run();
  EXPECT_EQ(r.net.packets_blackholed(), 1u);
}

TEST(NetworkTest, RebindMovesDelivery) {
  Rig r;
  EXPECT_EQ(r.net.ip_host(kServiceIp), r.primary_host);
  r.backup.takeover_address(kServiceIp);
  EXPECT_EQ(r.net.ip_host(kServiceIp), r.backup_host);
}

TEST(NetworkTest, PacketToDeadHostVanishes) {
  Rig r;
  r.primary.listen({kServiceIp, 80});
  r.primary_dom->kill();
  SocketId cs = 1;
  r.s.spawn(r.client_dom.get(), [](Rig& rr, SocketId& out) -> task<> {
    out = co_await rr.client.connect(kClientIp, {kServiceIp, 80});
  }(r, cs));
  r.s.run();
  // All SYN retries burned, no RST ever: connect fails with 0.
  EXPECT_EQ(cs, 0u);
  EXPECT_EQ(r.primary.rsts_sent(), 0u);
}

}  // namespace
}  // namespace nlc::net
