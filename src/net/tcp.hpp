// Simulated TCP with the features NiLiCon depends on (§II-B, §III, §V-E):
//
//  * connection establishment with SYN retransmission and exponential
//    backoff (this is where firewall-based input blocking hurts: a dropped
//    SYN costs seconds);
//  * byte-accurate sequence/acknowledgment tracking with go-back-N
//    retransmission — after a failover the backup's restored socket and the
//    client's live socket resynchronize purely through this mechanism;
//  * segment-oriented delivery: each send() is one segment with an optional
//    application tag and payload, approximating request/response protocols
//    (a SOCK_STREAM carrying length-prefixed records);
//  * RST generation when a packet reaches a host with no matching socket —
//    the failure mode NiLiCon's recovery-time input blocking exists to
//    prevent;
//  * socket repair mode: dump/restore of sequence state and of both queues
//    (write queue = sent-but-unacknowledged, read queue = received-but-
//    unread), plus the paper's 2-line RTO clamp for repaired sockets.
//
// Egress passes a per-IP PlugQdisc (output commit); ingress passes a per-IP
// IngressFilter (checkpoint/recovery input blocking).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "net/qdisc.hpp"
#include "net/types.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "trace/stream.hpp"

namespace nlc::net {

using SocketId = std::uint64_t;

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kReset,
};

struct Segment {
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
  std::uint64_t tag = 0;
  std::shared_ptr<const std::vector<std::byte>> payload;
};

/// Everything TCP_REPAIR exposes for checkpoint/restore.
struct TcpRepairState {
  Endpoint local;
  Endpoint remote;
  std::uint64_t snd_una = 0;
  std::uint64_t snd_nxt = 0;
  std::uint64_t rcv_nxt = 0;
  bool peer_fin = false;
  std::vector<Segment> write_queue;  // transmitted, not acknowledged
  std::vector<Segment> read_queue;   // received, not read by the process

  std::uint64_t queue_bytes() const {
    std::uint64_t n = 0;
    for (const auto& s : write_queue) n += s.len;
    for (const auto& s : read_queue) n += s.len;
    return n;
  }
  /// Wire size of this record in a checkpoint (queues + fixed header).
  std::uint64_t byte_size() const { return queue_bytes() + 96; }
};

struct TcpTuning {
  /// Established-flow retransmission timeout (Linux's RTO floor).
  Time rto_established = nlc::milliseconds(200);
  /// Initial SYN retransmission timeout (doubles per attempt).
  Time rto_syn = nlc::seconds(1);
  /// RTO of a socket restored via repair mode *without* the paper's fix:
  /// no RTT estimate, so at least one second (§V-E).
  Time rto_repaired_stock = nlc::seconds(1);
  /// With NiLiCon's 2-line kernel change: clamped to the 200 ms minimum.
  Time rto_repaired_fixed = nlc::milliseconds(200);
  int max_syn_retries = 6;
  Time rto_max = nlc::seconds(8);
};

class TcpStack : public PacketSink {
 public:
  TcpStack(sim::Simulation& s, sim::DomainPtr domain, Network& net,
           HostId host, TcpTuning tuning = {});
  ~TcpStack() override;

  /// Binds `ip` to this stack's host and creates its egress plug and
  /// ingress filter (both transparent until engaged).
  void add_address(IpAddr ip);
  /// Drops the binding (container disconnected from the bridge).
  void remove_address(IpAddr ip);
  /// Re-binds an address previously served elsewhere (gratuitous ARP).
  void takeover_address(IpAddr ip);

  PlugQdisc& plug(IpAddr ip);
  IngressFilter& ingress(IpAddr ip);

  // --- Application API (coroutines) --------------------------------------

  void listen(Endpoint local);
  void unlisten(Endpoint local);
  sim::task<SocketId> accept(Endpoint local);
  /// Connects from `local` (port 0 = ephemeral). Returns 0 on failure
  /// (reset or SYN retries exhausted).
  sim::task<SocketId> connect(IpAddr local_ip, Endpoint remote);

  /// Queues one segment of `len` bytes. Non-blocking (no send window).
  void send(SocketId id, std::uint32_t len, std::uint64_t tag = 0,
            std::shared_ptr<const std::vector<std::byte>> payload = nullptr);

  /// Waits for the next segment and removes it from the read queue.
  /// nullopt = connection reset or closed by peer.
  sim::task<std::optional<Segment>> recv(SocketId id);

  /// Waits for the next segment but leaves it in the read queue. Paired
  /// with consume(): a server that checkpoints mid-request keeps the
  /// request in the (checkpointed) read queue until it has produced the
  /// response, so a restored backup reprocesses it. See DESIGN.md §5.
  sim::task<std::optional<Segment>> peek(SocketId id);
  void consume(SocketId id);

  void close(SocketId id);  // FIN
  void abort(SocketId id);  // RST

  // --- Introspection ------------------------------------------------------

  TcpState state(SocketId id) const;
  bool valid(SocketId id) const { return sockets_.contains(id); }
  Endpoint local_endpoint(SocketId id) const;
  Endpoint remote_endpoint(SocketId id) const;
  std::uint64_t bytes_unacked(SocketId id) const;
  std::uint64_t read_queue_bytes(SocketId id) const;
  std::vector<SocketId> sockets_on_ip(IpAddr ip) const;
  std::vector<Endpoint> listeners_on_ip(IpAddr ip) const;
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t rsts_sent() const { return rsts_sent_; }

  // --- Repair mode (checkpoint/restore) -----------------------------------

  /// Dumps repair state of one established socket.
  TcpRepairState repair_dump(SocketId id) const;
  /// Restores a socket from repair state. The socket is live immediately;
  /// `rto_fixed` selects the paper's 200 ms clamp vs the stock 1 s. If the
  /// write queue is non-empty the retransmission timer is armed (the data
  /// may have been lost with the primary).
  ///
  /// `ack_runahead` (replay commit mode, DESIGN.md §14): the peer may
  /// legitimately acknowledge bytes beyond the restored snd_nxt — output
  /// released on a log ack after this checkpoint was cut. Such acks are
  /// held and applied as deterministic re-execution regenerates the bytes;
  /// regenerated segments the peer already acknowledged are not
  /// retransmitted.
  SocketId repair_restore(const TcpRepairState& st, bool rto_fixed,
                          bool ack_runahead = false);

  // --- Replay commit mode (DESIGN.md §14) ----------------------------------

  /// Installs (or clears, with nullptr) a receive-time tap on every
  /// established socket local to `ip`: called once per in-order data
  /// segment, before the segment is acknowledged to the peer, so the
  /// primary can make the input durable in its event log ahead of any
  /// dependent output release. Observer only.
  using InputTap = std::function<void(SocketId, Endpoint local,
                                      Endpoint remote, const Segment&)>;
  void set_input_tap(IpAddr ip, InputTap tap);

  /// Failover re-injection of a logged input into the repaired socket for
  /// (local, remote). Idempotent by sequence number: segments the restored
  /// checkpoint already contains are skipped. Returns true if the segment
  /// entered the read queue.
  bool inject_repaired_input(Endpoint local, Endpoint remote,
                             const Segment& seg);

  /// Attaches (or clears) the protocol event stream for this stack and
  /// every egress plug it owns; `track` places the events on the primary-
  /// or backup-side net lane. Observer only.
  void set_stream(trace::Stream* s, trace::Track track);

 private:
  struct Socket {
    SocketId id = 0;
    TcpState state = TcpState::kClosed;
    Endpoint local;
    Endpoint remote;
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint64_t rcv_nxt = 0;
    /// Replay-mode repaired socket: highest peer ack seen beyond snd_nxt,
    /// applied as re-execution regenerates the acknowledged bytes.
    std::uint64_t peer_ack_high = 0;
    bool ack_runahead = false;
    bool peer_fin = false;
    bool fin_sent = false;
    std::deque<Segment> write_queue;
    std::deque<Segment> read_queue;
    Time rto = 0;
    Time rto_base = 0;
    int syn_attempts = 0;
    sim::TimerHandle retrans_timer;
    std::unique_ptr<sim::Event> rx_event;      // read queue / EOF / reset
    std::unique_ptr<sim::Event> connect_event; // SYN_SENT completion
  };

  struct Listener {
    Endpoint local;
    std::unique_ptr<sim::Mailbox<SocketId>> pending;
  };

  // PacketSink
  void deliver(const Packet& p) override;

  void handle_packet(const Packet& p);
  void handle_for_socket(Socket& s, const Packet& p);
  void process_ack(Socket& s, std::uint64_t ack);
  void send_packet(Packet p);
  void send_control(const Socket& s, TcpFlag flag);
  void send_rst(const Packet& cause);
  void arm_retransmit(Socket& s);
  void retransmit_now(Socket& s);
  void signal_rx(Socket& s);
  void promote_syn_rcvd(Socket& s);
  Socket& sock(SocketId id);
  const Socket& sock(SocketId id) const;
  Socket& create_socket();

  sim::Simulation* sim_;
  sim::DomainPtr domain_;
  Network* net_;
  HostId host_;
  TcpTuning tuning_;
  std::map<SocketId, std::unique_ptr<Socket>> sockets_;
  std::map<std::pair<Endpoint, Endpoint>, SocketId> by_tuple_;  // local,remote
  std::map<Endpoint, Listener> listeners_;
  std::map<IpAddr, std::unique_ptr<PlugQdisc>> plugs_;
  std::map<IpAddr, std::unique_ptr<IngressFilter>> filters_;
  std::map<IpAddr, InputTap> input_taps_;
  SocketId next_id_ = 1;
  Port next_ephemeral_ = 40000;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t rsts_sent_ = 0;
  trace::Observer obs_;
  trace::Track track_ = trace::Track::kNetPrimary;
};

}  // namespace nlc::net
