#include "net/tcp.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace nlc::net {

TcpStack::TcpStack(sim::Simulation& s, sim::DomainPtr domain, Network& net,
                   HostId host, TcpTuning tuning)
    : sim_(&s), domain_(std::move(domain)), net_(&net), host_(host),
      tuning_(tuning) {}

TcpStack::~TcpStack() = default;

void TcpStack::add_address(IpAddr ip) {
  net_->bind_ip(ip, host_, this);
  if (!plugs_.contains(ip)) {
    plugs_[ip] = std::make_unique<PlugQdisc>(
        [this](Packet p) {
          const IpAddr src = p.src.ip;
          net_->transmit(src, std::move(p));
        },
        sim_);
    plugs_[ip]->set_stream(obs_.stream(), track_);
  }
  if (!filters_.contains(ip)) {
    filters_[ip] = std::make_unique<IngressFilter>(
        [this](const Packet& p) { handle_packet(p); });
  }
}

void TcpStack::remove_address(IpAddr ip) { net_->unbind_ip(ip); }

void TcpStack::takeover_address(IpAddr ip) { add_address(ip); }

void TcpStack::set_stream(trace::Stream* s, trace::Track track) {
  obs_.attach(s);
  track_ = track;
  for (auto& [ip, plug] : plugs_) plug->set_stream(s, track);
}

PlugQdisc& TcpStack::plug(IpAddr ip) {
  auto it = plugs_.find(ip);
  NLC_CHECK_MSG(it != plugs_.end(), "no plug for address");
  return *it->second;
}

IngressFilter& TcpStack::ingress(IpAddr ip) {
  auto it = filters_.find(ip);
  NLC_CHECK_MSG(it != filters_.end(), "no ingress filter for address");
  return *it->second;
}

// --------------------------------------------------------------- sockets --

TcpStack::Socket& TcpStack::create_socket() {
  auto s = std::make_unique<Socket>();
  s->id = next_id_++;
  s->rx_event = std::make_unique<sim::Event>(*sim_);
  s->connect_event = std::make_unique<sim::Event>(*sim_);
  s->rto_base = tuning_.rto_established;
  s->rto = tuning_.rto_established;
  Socket& ref = *s;
  sockets_[ref.id] = std::move(s);
  return ref;
}

TcpStack::Socket& TcpStack::sock(SocketId id) {
  auto it = sockets_.find(id);
  NLC_CHECK_MSG(it != sockets_.end(), "unknown socket");
  return *it->second;
}

const TcpStack::Socket& TcpStack::sock(SocketId id) const {
  auto it = sockets_.find(id);
  NLC_CHECK_MSG(it != sockets_.end(), "unknown socket");
  return *it->second;
}

void TcpStack::listen(Endpoint local) {
  NLC_CHECK_MSG(!listeners_.contains(local), "already listening");
  Listener l;
  l.local = local;
  l.pending = std::make_unique<sim::Mailbox<SocketId>>(*sim_);
  listeners_[local] = std::move(l);
}

void TcpStack::unlisten(Endpoint local) { listeners_.erase(local); }

sim::task<SocketId> TcpStack::accept(Endpoint local) {
  auto it = listeners_.find(local);
  NLC_CHECK_MSG(it != listeners_.end(), "accept without listen");
  co_return co_await it->second.pending->recv();
}

sim::task<SocketId> TcpStack::connect(IpAddr local_ip, Endpoint remote) {
  Socket& s = create_socket();
  s.local = Endpoint{local_ip, next_ephemeral_++};
  s.remote = remote;
  s.state = TcpState::kSynSent;
  s.snd_una = s.snd_nxt = 1000 + s.id * 100000;
  s.rto = tuning_.rto_syn;
  s.syn_attempts = 1;
  by_tuple_[{s.local, s.remote}] = s.id;

  Packet syn;
  syn.src = s.local;
  syn.dst = s.remote;
  syn.flag = TcpFlag::kSyn;
  syn.seq = s.snd_nxt;
  send_packet(syn);
  s.snd_nxt += 1;  // SYN consumes one sequence number
  arm_retransmit(s);

  SocketId id = s.id;
  co_await s.connect_event->wait();
  Socket& after = sock(id);
  co_return after.state == TcpState::kEstablished ? id : 0;
}

void TcpStack::send(SocketId id, std::uint32_t len, std::uint64_t tag,
                    std::shared_ptr<const std::vector<std::byte>> payload) {
  Socket& s = sock(id);
  NLC_CHECK_MSG(s.state == TcpState::kEstablished, "send on non-ESTABLISHED");
  NLC_CHECK(len > 0);
  // The queue keeps the payload handle for retransmission; the packet
  // below takes the only other copy and is moved from there on.
  s.write_queue.push_back(Segment{s.snd_nxt, len, tag, std::move(payload)});
  const Segment& seg = s.write_queue.back();
  s.snd_nxt += len;

  // Replay-mode re-execution: bytes the peer acknowledged before the
  // failover are regenerated, not retransmitted — consume the held ack
  // instead of sending a duplicate the peer would discard anyway.
  if (s.ack_runahead && seg.seq + seg.len <= s.peer_ack_high) {
    process_ack(s, seg.seq + seg.len);
    return;
  }

  Packet p;
  p.src = s.local;
  p.dst = s.remote;
  p.flag = TcpFlag::kData;
  p.seq = seg.seq;
  p.ack = s.rcv_nxt;
  p.len = seg.len;
  p.tag = seg.tag;
  p.payload = seg.payload;
  send_packet(std::move(p));
  arm_retransmit(s);
}

sim::task<std::optional<Segment>> TcpStack::recv(SocketId id) {
  auto r = co_await peek(id);
  if (r.has_value()) consume(id);
  co_return r;
}

sim::task<std::optional<Segment>> TcpStack::peek(SocketId id) {
  while (true) {
    Socket& s = sock(id);
    if (!s.read_queue.empty()) co_return s.read_queue.front();
    if (s.state == TcpState::kReset || s.state == TcpState::kClosed ||
        s.peer_fin) {
      co_return std::nullopt;
    }
    s.rx_event->reset();
    co_await s.rx_event->wait();
  }
}

void TcpStack::consume(SocketId id) {
  Socket& s = sock(id);
  NLC_CHECK_MSG(!s.read_queue.empty(), "consume on empty read queue");
  s.read_queue.pop_front();
}

void TcpStack::close(SocketId id) {
  Socket& s = sock(id);
  if (s.state != TcpState::kEstablished || s.fin_sent) return;
  s.fin_sent = true;
  send_control(s, TcpFlag::kFin);
  s.snd_nxt += 1;
}

void TcpStack::abort(SocketId id) {
  Socket& s = sock(id);
  if (s.state == TcpState::kEstablished || s.state == TcpState::kSynSent) {
    send_control(s, TcpFlag::kRst);
  }
  s.state = TcpState::kClosed;
  s.retrans_timer.cancel();
  signal_rx(s);
}

// ---------------------------------------------------------- introspection --

TcpState TcpStack::state(SocketId id) const { return sock(id).state; }

Endpoint TcpStack::local_endpoint(SocketId id) const { return sock(id).local; }
Endpoint TcpStack::remote_endpoint(SocketId id) const {
  return sock(id).remote;
}

std::uint64_t TcpStack::bytes_unacked(SocketId id) const {
  const Socket& s = sock(id);
  std::uint64_t n = 0;
  for (const auto& seg : s.write_queue) n += seg.len;
  return n;
}

std::uint64_t TcpStack::read_queue_bytes(SocketId id) const {
  const Socket& s = sock(id);
  std::uint64_t n = 0;
  for (const auto& seg : s.read_queue) n += seg.len;
  return n;
}

std::vector<SocketId> TcpStack::sockets_on_ip(IpAddr ip) const {
  std::vector<SocketId> out;
  for (const auto& [id, s] : sockets_) {
    if (s->local.ip == ip && s->state == TcpState::kEstablished) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<Endpoint> TcpStack::listeners_on_ip(IpAddr ip) const {
  std::vector<Endpoint> out;
  for (const auto& [ep, l] : listeners_) {
    if (ep.ip == ip) out.push_back(ep);
  }
  return out;
}

// ------------------------------------------------------------ repair mode --

TcpRepairState TcpStack::repair_dump(SocketId id) const {
  const Socket& s = sock(id);
  NLC_CHECK_MSG(s.state == TcpState::kEstablished,
                "repair dump of non-ESTABLISHED socket");
  TcpRepairState st;
  st.local = s.local;
  st.remote = s.remote;
  st.snd_una = s.snd_una;
  st.snd_nxt = s.snd_nxt;
  st.rcv_nxt = s.rcv_nxt;
  st.peer_fin = s.peer_fin;
  st.write_queue.assign(s.write_queue.begin(), s.write_queue.end());
  st.read_queue.assign(s.read_queue.begin(), s.read_queue.end());
  return st;
}

SocketId TcpStack::repair_restore(const TcpRepairState& st, bool rto_fixed,
                                  bool ack_runahead) {
  Socket& s = create_socket();
  s.local = st.local;
  s.remote = st.remote;
  s.state = TcpState::kEstablished;
  s.snd_una = st.snd_una;
  s.snd_nxt = st.snd_nxt;
  s.rcv_nxt = st.rcv_nxt;
  s.ack_runahead = ack_runahead;
  s.peer_fin = st.peer_fin;
  s.write_queue.assign(st.write_queue.begin(), st.write_queue.end());
  s.read_queue.assign(st.read_queue.begin(), st.read_queue.end());
  // A repaired socket has no RTT estimate: stock kernels fall back to a
  // >= 1 s timeout; the paper's kernel change clamps it to the 200 ms
  // minimum (§V-E).
  s.rto_base = tuning_.rto_established;
  s.rto = rto_fixed ? tuning_.rto_repaired_fixed : tuning_.rto_repaired_stock;
  by_tuple_[{s.local, s.remote}] = s.id;
  if (!s.write_queue.empty()) arm_retransmit(s);
  if (!s.read_queue.empty()) s.rx_event->set();
  obs_.instant(track_, trace::Stage::kSocketRepair, sim_->now(), s.id);
  return s.id;
}

void TcpStack::set_input_tap(IpAddr ip, InputTap tap) {
  if (tap) {
    input_taps_[ip] = std::move(tap);
  } else {
    input_taps_.erase(ip);
  }
}

bool TcpStack::inject_repaired_input(Endpoint local, Endpoint remote,
                                     const Segment& seg) {
  auto t = by_tuple_.find({local, remote});
  if (t == by_tuple_.end()) return false;  // connection not in checkpoint
  Socket& s = sock(t->second);
  if (s.state != TcpState::kEstablished) return false;
  if (seg.seq + seg.len <= s.rcv_nxt) return false;  // already restored
  NLC_CHECK_MSG(seg.seq == s.rcv_nxt,
                "replay injection left a gap in the receive stream");
  s.rcv_nxt += seg.len;
  s.read_queue.push_back(seg);
  signal_rx(s);
  return true;
}

// ------------------------------------------------------------- data plane --

void TcpStack::send_packet(Packet p) {
  const IpAddr src = p.src.ip;
  auto it = plugs_.find(src);
  if (it != plugs_.end()) {
    it->second->enqueue(std::move(p));
  } else {
    net_->transmit(src, std::move(p));
  }
}

void TcpStack::send_control(const Socket& s, TcpFlag flag) {
  Packet p;
  p.src = s.local;
  p.dst = s.remote;
  p.flag = flag;
  p.seq = s.snd_nxt;
  p.ack = s.rcv_nxt;
  send_packet(p);
}

void TcpStack::send_rst(const Packet& cause) {
  if (cause.flag == TcpFlag::kRst) return;  // never answer RST with RST
  Packet p;
  p.src = cause.dst;
  p.dst = cause.src;
  p.flag = TcpFlag::kRst;
  p.seq = cause.ack;
  p.ack = cause.seq + cause.len;
  ++rsts_sent_;
  send_packet(p);
}

void TcpStack::deliver(const Packet& p) {
  auto it = filters_.find(p.dst.ip);
  if (it != filters_.end()) {
    it->second->input(p);
  } else {
    handle_packet(p);
  }
}

void TcpStack::handle_packet(const Packet& p) {
  auto t = by_tuple_.find({p.dst, p.src});
  if (t != by_tuple_.end()) {
    handle_for_socket(sock(t->second), p);
    return;
  }
  if (p.flag == TcpFlag::kSyn) {
    auto l = listeners_.find(p.dst);
    if (l == listeners_.end()) {
      // Also allow wildcard listeners on port only (any local ip).
      l = listeners_.find(Endpoint{0, p.dst.port});
    }
    if (l != listeners_.end()) {
      Socket& s = create_socket();
      s.local = p.dst;
      s.remote = p.src;
      s.state = TcpState::kSynRcvd;
      s.snd_una = s.snd_nxt = 2000 + s.id * 100000;
      s.rcv_nxt = p.seq + 1;
      by_tuple_[{s.local, s.remote}] = s.id;

      Packet reply;
      reply.src = s.local;
      reply.dst = s.remote;
      reply.flag = TcpFlag::kSynAck;
      reply.seq = s.snd_nxt;
      reply.ack = s.rcv_nxt;
      send_packet(reply);
      s.snd_nxt += 1;
      return;
    }
  }
  // No socket, no listener: kernel sends RST (the §III failure scenario).
  send_rst(p);
}

void TcpStack::process_ack(Socket& s, std::uint64_t ack) {
  if (ack <= s.snd_una) return;
  if (s.ack_runahead && ack > s.snd_nxt) {
    // Repaired socket, replay commit mode: the peer acknowledges output
    // released on a log ack after the restored checkpoint. Deterministic
    // re-execution will regenerate exactly those bytes; hold the excess
    // and apply what the restored stream can absorb now.
    if (ack > s.peer_ack_high) s.peer_ack_high = ack;
    ack = s.snd_nxt;
    if (ack <= s.snd_una) return;
  }
  NLC_CHECK_MSG(ack <= s.snd_nxt, "ACK beyond snd_nxt");
  s.snd_una = ack;
  while (!s.write_queue.empty() &&
         s.write_queue.front().seq + s.write_queue.front().len <= ack) {
    s.write_queue.pop_front();
  }
  s.retrans_timer.cancel();
  s.rto = s.rto_base;  // successful round trip resets backoff
  if (!s.write_queue.empty()) arm_retransmit(s);
}

void TcpStack::handle_for_socket(Socket& s, const Packet& p) {
  switch (p.flag) {
    case TcpFlag::kRst:
      s.state = TcpState::kReset;
      s.retrans_timer.cancel();
      signal_rx(s);
      s.connect_event->set();
      return;

    case TcpFlag::kSyn:
      // Duplicate SYN for an existing SYN_RCVD socket: re-send SYNACK.
      if (s.state == TcpState::kSynRcvd) {
        Packet reply;
        reply.src = s.local;
        reply.dst = s.remote;
        reply.flag = TcpFlag::kSynAck;
        reply.seq = s.snd_nxt - 1;
        reply.ack = s.rcv_nxt;
        send_packet(reply);
      }
      return;

    case TcpFlag::kSynAck:
      if (s.state == TcpState::kSynSent) {
        s.rcv_nxt = p.seq + 1;
        process_ack(s, p.ack);
        s.state = TcpState::kEstablished;
        s.rto_base = tuning_.rto_established;
        s.rto = tuning_.rto_established;
        s.retrans_timer.cancel();
        send_control(s, TcpFlag::kAck);
        s.connect_event->set();
      } else if (s.state == TcpState::kEstablished) {
        // Duplicate SYNACK (our ACK got dropped/buffered): re-ACK.
        send_control(s, TcpFlag::kAck);
      }
      return;

    case TcpFlag::kAck:
      if (s.state == TcpState::kSynRcvd) promote_syn_rcvd(s);
      process_ack(s, p.ack);
      return;

    case TcpFlag::kData: {
      // A data packet carries an implicit ACK: it also completes a pending
      // handshake whose final ACK was lost (e.g. dropped by firewall-based
      // input blocking).
      if (s.state == TcpState::kSynRcvd && p.ack > s.snd_una) {
        promote_syn_rcvd(s);
      }
      process_ack(s, p.ack);
      if (s.state != TcpState::kEstablished) return;
      if (p.seq == s.rcv_nxt) {
        s.rcv_nxt += p.len;
        Segment seg{p.seq, p.len, p.tag, p.payload};
        // Receive-time input tap (replay commit mode): the event log must
        // see the input before the ack below enters the egress plug, so
        // any released output provably has its inputs shipped.
        auto tap = input_taps_.find(s.local.ip);
        if (tap != input_taps_.end()) {
          tap->second(s.id, s.local, s.remote, seg);
        }
        s.read_queue.push_back(std::move(seg));
        signal_rx(s);
        send_control(s, TcpFlag::kAck);
      } else if (p.seq < s.rcv_nxt) {
        // Duplicate (e.g. post-failover retransmission of data we already
        // have): re-ACK so the sender advances.
        send_control(s, TcpFlag::kAck);
      }
      // Out-of-order future segment: dropped; go-back-N retransmission
      // from the sender will fill the gap.
      return;
    }

    case TcpFlag::kFin:
      if (p.seq == s.rcv_nxt) {
        s.peer_fin = true;
        s.rcv_nxt += 1;
        send_control(s, TcpFlag::kAck);
        signal_rx(s);
      } else if (p.seq < s.rcv_nxt) {
        send_control(s, TcpFlag::kAck);
      }
      return;
  }
}

void TcpStack::signal_rx(Socket& s) { s.rx_event->set(); }

void TcpStack::promote_syn_rcvd(Socket& s) {
  s.state = TcpState::kEstablished;
  auto l = listeners_.find(s.local);
  if (l == listeners_.end()) {
    l = listeners_.find(Endpoint{0, s.local.port});
  }
  if (l != listeners_.end()) l->second.pending->send(s.id);
}

void TcpStack::arm_retransmit(Socket& s) {
  if (s.retrans_timer.active()) return;
  SocketId id = s.id;
  // The socket owns its retrans_timer handle (cancelled with it), the
  // callback re-resolves the socket by id, and the domain gate drops the
  // wakeup after a host kill.
  // NLC_LINT_OK(detached-this): timer handle owned and cancelled, id-keyed
  s.retrans_timer = sim_->call_after(s.rto, domain_.get(), [this, id] {
    auto it = sockets_.find(id);
    if (it == sockets_.end()) return;
    retransmit_now(*it->second);
  });
}

void TcpStack::retransmit_now(Socket& s) {
  if (s.state == TcpState::kSynSent) {
    if (s.syn_attempts > tuning_.max_syn_retries) {
      s.state = TcpState::kClosed;
      s.connect_event->set();
      return;
    }
    ++s.syn_attempts;
    ++retransmissions_;
    obs_.instant(track_, trace::Stage::kRetransmit, sim_->now(), s.id);
    Packet syn;
    syn.src = s.local;
    syn.dst = s.remote;
    syn.flag = TcpFlag::kSyn;
    syn.seq = s.snd_una;
    send_packet(syn);
    s.rto = std::min(s.rto * 2, tuning_.rto_max);
    arm_retransmit(s);
    return;
  }
  if (s.state != TcpState::kEstablished || s.write_queue.empty()) return;
  // One instant per RTO firing (arg = socket), not per segment.
  obs_.instant(track_, trace::Stage::kRetransmit, sim_->now(), s.id);
  // Go-back-N: retransmit every unacknowledged segment in order.
  for (const Segment& seg : s.write_queue) {
    ++retransmissions_;
    Packet p;
    p.src = s.local;
    p.dst = s.remote;
    p.flag = TcpFlag::kData;
    p.seq = seg.seq;
    p.ack = s.rcv_nxt;
    p.len = seg.len;
    p.tag = seg.tag;
    p.payload = seg.payload;
    send_packet(std::move(p));
  }
  s.rto = std::min(s.rto * 2, tuning_.rto_max);
  arm_retransmit(s);
}

}  // namespace nlc::net
