#include "criu/serialize.hpp"

#include <cstring>
#include <memory>

#include "util/arena.hpp"
#include "util/assert.hpp"

namespace nlc::criu {

namespace {

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void b(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void bytes(std::span<const std::byte> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  /// Reserves a 32-bit length slot; returns its position.
  std::size_t begin_section() {
    u32(0);
    return buf_.size();
  }
  /// Patches the slot with the bytes written since begin_section().
  void end_section(std::size_t mark) {
    auto len = static_cast<std::uint32_t>(buf_.size() - mark);
    std::memcpy(buf_.data() + mark - 4, &len, 4);
  }

  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> d) : data_(d) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  bool b() { return u8() != 0; }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::byte> bytes() {
    std::uint32_t n = u32();
    need(n);
    std::vector<std::byte> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }

  /// Reads a section length and returns the position where it must end.
  std::size_t begin_section() {
    std::uint32_t n = u32();
    need(n);
    return pos_ + n;
  }
  void end_section(std::size_t expected_end) {
    NLC_CHECK_MSG(pos_ == expected_end, "image section framing corrupt");
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) {
    NLC_CHECK_MSG(pos_ + n <= data_.size(), "image truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

void put_repair(Writer& w, const net::TcpRepairState& r) {
  w.u32(r.local.ip);
  w.u16(r.local.port);
  w.u32(r.remote.ip);
  w.u16(r.remote.port);
  w.u64(r.snd_una);
  w.u64(r.snd_nxt);
  w.u64(r.rcv_nxt);
  w.b(r.peer_fin);
  auto put_queue = [&w](const std::vector<net::Segment>& q) {
    w.u32(static_cast<std::uint32_t>(q.size()));
    for (const net::Segment& s : q) {
      w.u64(s.seq);
      w.u32(s.len);
      w.u64(s.tag);
      if (s.payload) {
        w.b(true);
        w.bytes(*s.payload);
      } else {
        w.b(false);
      }
    }
  };
  put_queue(r.write_queue);
  put_queue(r.read_queue);
}

net::TcpRepairState get_repair(Reader& rd) {
  net::TcpRepairState r;
  r.local.ip = rd.u32();
  r.local.port = rd.u16();
  r.remote.ip = rd.u32();
  r.remote.port = rd.u16();
  r.snd_una = rd.u64();
  r.snd_nxt = rd.u64();
  r.rcv_nxt = rd.u64();
  r.peer_fin = rd.b();
  auto get_queue = [&rd](std::vector<net::Segment>& q) {
    std::uint32_t n = rd.u32();
    q.resize(n);
    for (net::Segment& s : q) {
      s.seq = rd.u64();
      s.len = rd.u32();
      s.tag = rd.u64();
      if (rd.b()) {
        s.payload =
            std::make_shared<const std::vector<std::byte>>(rd.bytes());
      }
    }
  };
  get_queue(r.write_queue);
  get_queue(r.read_queue);
  return r;
}

void put_vma(Writer& w, const kern::Vma& v) {
  w.u64(v.id);
  w.u64(v.start);
  w.u64(v.npages);
  w.u8(static_cast<std::uint8_t>(v.kind));
  w.str(v.backing_file);
  w.u64(v.version);
}

kern::Vma get_vma(Reader& rd) {
  kern::Vma v;
  v.id = rd.u64();
  v.start = rd.u64();
  v.npages = rd.u64();
  v.kind = static_cast<kern::VmaKind>(rd.u8());
  v.backing_file = rd.str();
  v.version = rd.u64();
  return v;
}

void put_page(Writer& w, const PageRecord& p) {
  w.u64(p.page);
  w.u64(p.version);
  w.u32(p.wire_size);
  if (p.has_content()) {
    w.b(true);
    w.bytes(*p.content);
  } else {
    w.b(false);
  }
}

}  // namespace

std::vector<std::byte> serialize_image(const CheckpointImage& img) {
  Writer w;
  w.u32(kImageMagic);
  w.u16(kImageVersion);
  w.u64(img.epoch);
  w.u32(static_cast<std::uint32_t>(img.container));
  w.str(img.container_name);
  w.u64(img.service_ip);
  w.u64(img.net_ns_id);
  w.b(img.full);

  // --- infrequent state ----------------------------------------------------
  std::size_t sec = w.begin_section();
  const InfrequentState& inf = *img.infrequent;
  w.u32(static_cast<std::uint32_t>(inf.namespaces.size()));
  for (const kern::Namespace& ns : inf.namespaces) {
    w.u8(static_cast<std::uint8_t>(ns.type));
    w.u64(ns.ns_id);
    w.u64(ns.config_bytes);
    w.u64(ns.version);
  }
  w.str(inf.cgroup.path);
  w.u64(inf.cgroup.cpu_quota_us);
  w.u64(inf.cgroup.mem_limit_bytes);
  w.u64(inf.cgroup.version);
  w.u32(static_cast<std::uint32_t>(inf.mounts.size()));
  for (const kern::Mount& m : inf.mounts) {
    w.str(m.source);
    w.str(m.target);
    w.str(m.fstype);
    w.u64(m.flags);
  }
  w.u32(static_cast<std::uint32_t>(inf.devices.size()));
  for (const kern::DeviceFile& d : inf.devices) {
    w.str(d.path);
    w.u32(d.major);
    w.u32(d.minor);
  }
  w.u32(static_cast<std::uint32_t>(inf.mmap_files.size()));
  for (const std::string& f : inf.mmap_files) w.str(f);
  w.u64(inf.version);
  w.end_section(sec);

  // --- processes ------------------------------------------------------------
  sec = w.begin_section();
  w.u32(static_cast<std::uint32_t>(img.processes.size()));
  for (const ProcessRecord& p : img.processes) {
    w.u32(static_cast<std::uint32_t>(p.pid));
    w.str(p.comm);
    w.u64(p.sigmask);
    w.u32(static_cast<std::uint32_t>(p.threads.size()));
    for (const ThreadRecord& t : p.threads) {
      w.u32(static_cast<std::uint32_t>(t.tid));
      for (std::uint64_t g : t.regs.gpr) w.u64(g);
      w.u64(t.regs.rip);
      w.u64(t.regs.rsp);
      w.u64(t.sigmask);
      w.u8(static_cast<std::uint8_t>(t.policy));
      w.u32(static_cast<std::uint32_t>(t.priority));
    }
    w.u32(static_cast<std::uint32_t>(p.vmas.size()));
    for (const kern::Vma& v : p.vmas) put_vma(w, v);
    w.u32(static_cast<std::uint32_t>(p.plain_fds.size()));
    for (const auto& [fd, e] : p.plain_fds) {
      w.u32(static_cast<std::uint32_t>(fd));
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u64(e.inode);
      w.u64(e.offset);
      w.u64(e.socket);
      w.str(e.device);
      w.u32(e.flags);
    }
  }
  w.end_section(sec);

  // --- sockets & listeners ---------------------------------------------------
  sec = w.begin_section();
  w.u32(static_cast<std::uint32_t>(img.sockets.size()));
  for (const SocketRecord& s : img.sockets) {
    w.u32(static_cast<std::uint32_t>(s.pid));
    w.u32(static_cast<std::uint32_t>(s.fd));
    put_repair(w, s.repair);
  }
  w.u32(static_cast<std::uint32_t>(img.listeners.size()));
  for (const ListenerRecord& l : img.listeners) {
    w.u32(static_cast<std::uint32_t>(l.pid));
    w.u32(static_cast<std::uint32_t>(l.fd));
    w.u32(l.local.ip);
    w.u16(l.local.port);
  }
  w.end_section(sec);

  // --- fs cache ---------------------------------------------------------------
  sec = w.begin_section();
  w.u32(static_cast<std::uint32_t>(img.fs_cache.inodes.size()));
  for (const kern::DncInodeEntry& ie : img.fs_cache.inodes) {
    w.u64(ie.attr.ino);
    w.str(ie.attr.path);
    w.u64(ie.attr.size);
    w.u32(ie.attr.mode);
    w.u32(ie.attr.uid);
    w.u32(ie.attr.gid);
    w.u64(ie.attr.mtime_ns);
  }
  w.u32(static_cast<std::uint32_t>(img.fs_cache.pages.size()));
  for (const kern::DncPageEntry& pe : img.fs_cache.pages) {
    w.u64(pe.ino);
    w.u64(pe.page_index);
    w.bytes(pe.data);
  }
  w.end_section(sec);

  // --- pages -------------------------------------------------------------------
  sec = w.begin_section();
  w.u32(static_cast<std::uint32_t>(img.pages.size()));
  for (const PageRecord& p : img.pages) put_page(w, p);
  w.end_section(sec);

  return w.take();
}

CheckpointImage deserialize_image(std::span<const std::byte> data) {
  Reader rd(data);
  NLC_CHECK_MSG(rd.u32() == kImageMagic, "bad image magic");
  NLC_CHECK_MSG(rd.u16() == kImageVersion, "unsupported image version");

  CheckpointImage img;
  img.epoch = rd.u64();
  img.container = static_cast<kern::ContainerId>(rd.u32());
  img.container_name = rd.str();
  img.service_ip = rd.u64();
  img.net_ns_id = rd.u64();
  img.full = rd.b();

  std::size_t end = rd.begin_section();
  {
    auto inf = std::make_shared<InfrequentState>();
    std::uint32_t n = rd.u32();
    inf->namespaces.resize(n);
    for (kern::Namespace& ns : inf->namespaces) {
      ns.type = static_cast<kern::NamespaceType>(rd.u8());
      ns.ns_id = rd.u64();
      ns.config_bytes = rd.u64();
      ns.version = rd.u64();
    }
    inf->cgroup.path = rd.str();
    inf->cgroup.cpu_quota_us = rd.u64();
    inf->cgroup.mem_limit_bytes = rd.u64();
    inf->cgroup.version = rd.u64();
    inf->mounts.resize(rd.u32());
    for (kern::Mount& m : inf->mounts) {
      m.source = rd.str();
      m.target = rd.str();
      m.fstype = rd.str();
      m.flags = rd.u64();
    }
    inf->devices.resize(rd.u32());
    for (kern::DeviceFile& d : inf->devices) {
      d.path = rd.str();
      d.major = rd.u32();
      d.minor = rd.u32();
    }
    inf->mmap_files.resize(rd.u32());
    for (std::string& f : inf->mmap_files) f = rd.str();
    inf->version = rd.u64();
    img.infrequent = std::move(inf);
  }
  rd.end_section(end);

  end = rd.begin_section();
  {
    img.processes.resize(rd.u32());
    for (ProcessRecord& p : img.processes) {
      p.pid = static_cast<kern::Pid>(rd.u32());
      p.comm = rd.str();
      p.sigmask = rd.u64();
      p.threads.resize(rd.u32());
      for (ThreadRecord& t : p.threads) {
        t.tid = static_cast<kern::Tid>(rd.u32());
        for (std::uint64_t& g : t.regs.gpr) g = rd.u64();
        t.regs.rip = rd.u64();
        t.regs.rsp = rd.u64();
        t.sigmask = rd.u64();
        t.policy = static_cast<kern::SchedPolicy>(rd.u8());
        t.priority = static_cast<int>(rd.u32());
      }
      std::uint32_t nvma = rd.u32();
      p.vmas.reserve(nvma);
      for (std::uint32_t i = 0; i < nvma; ++i) p.vmas.push_back(get_vma(rd));
      std::uint32_t nfd = rd.u32();
      for (std::uint32_t i = 0; i < nfd; ++i) {
        auto fd = static_cast<kern::Fd>(rd.u32());
        kern::FdEntry e;
        e.kind = static_cast<kern::FdKind>(rd.u8());
        e.inode = rd.u64();
        e.offset = rd.u64();
        e.socket = rd.u64();
        e.device = rd.str();
        e.flags = rd.u32();
        p.plain_fds[fd] = e;
      }
    }
  }
  rd.end_section(end);

  end = rd.begin_section();
  {
    img.sockets.resize(rd.u32());
    for (SocketRecord& s : img.sockets) {
      s.pid = static_cast<kern::Pid>(rd.u32());
      s.fd = static_cast<kern::Fd>(rd.u32());
      s.repair = get_repair(rd);
    }
    img.listeners.resize(rd.u32());
    for (ListenerRecord& l : img.listeners) {
      l.pid = static_cast<kern::Pid>(rd.u32());
      l.fd = static_cast<kern::Fd>(rd.u32());
      l.local.ip = rd.u32();
      l.local.port = rd.u16();
    }
  }
  rd.end_section(end);

  end = rd.begin_section();
  {
    img.fs_cache.inodes.resize(rd.u32());
    for (kern::DncInodeEntry& ie : img.fs_cache.inodes) {
      ie.attr.ino = rd.u64();
      ie.attr.path = rd.str();
      ie.attr.size = rd.u64();
      ie.attr.mode = rd.u32();
      ie.attr.uid = rd.u32();
      ie.attr.gid = rd.u32();
      ie.attr.mtime_ns = rd.u64();
    }
    img.fs_cache.pages.resize(rd.u32());
    for (kern::DncPageEntry& pe : img.fs_cache.pages) {
      pe.ino = rd.u64();
      pe.page_index = rd.u64();
      pe.data = rd.bytes();
    }
  }
  rd.end_section(end);

  end = rd.begin_section();
  {
    img.pages.resize(rd.u32());
    for (PageRecord& p : img.pages) {
      p.page = rd.u64();
      p.version = rd.u64();
      p.wire_size = rd.u32();
      if (rd.b()) {
        const std::vector<std::byte> raw = rd.bytes();
        p.content =
            util::arena_make_shared<kern::PageBytes>(raw.begin(), raw.end());
      }
    }
  }
  rd.end_section(end);
  NLC_CHECK_MSG(rd.exhausted(), "trailing bytes after image");
  return img;
}

}  // namespace nlc::criu
