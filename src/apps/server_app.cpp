#include "apps/server_app.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "util/assert.hpp"

namespace nlc::apps {

using namespace nlc::literals;

ServerApp::ServerApp(AppEnv env, AppSpec spec)
    : env_(env), spec_(std::move(spec)), rng_(env.seed) {}

void ServerApp::setup(kern::ContainerId cid) {
  cid_ = cid;
  kern::Container* cont = env_.kernel->container(cid);
  NLC_CHECK_MSG(cont != nullptr, "setup on unknown container");
  cont->cpu().set_core_limit(spec_.cores);

  std::uint64_t heap_pages =
      std::max<std::uint64_t>(1, spec_.mapped_pages /
                                     static_cast<std::uint64_t>(
                                         spec_.processes));
  for (int i = 0; i < spec_.processes; ++i) {
    kern::Process& p = env_.kernel->create_process(cid_, spec_.name);
    pids_.push_back(p.pid());
    for (int t = 0; t < spec_.threads_per_process; ++t) {
      env_.kernel->create_thread(p.pid());
    }
    kern::Vma heap = p.mm().map(heap_pages, kern::VmaKind::kAnon, kHeapLabel);
    heaps_.push_back(Region{p.pid(), heap.start, heap.npages});
    p.mm().map(64, kern::VmaKind::kStack);
    for (int f = 0; f < spec_.mmap_files; ++f) {
      env_.kernel->mmap_file(
          p.pid(), 24, "/usr/lib/lib" + std::to_string(f) + ".so");
    }
    for (int f = 0; f < spec_.plain_fds; ++f) {
      p.install_fd(kern::FdEntry{.kind = kern::FdKind::kFile,
                                 .inode = 10'000u + static_cast<unsigned>(f)});
    }
  }
  if (spec_.kv_pages > 0) {
    kern::Process& p0 = *env_.kernel->process(pids_[0]);
    kern::Vma kv = p0.mm().map(spec_.kv_pages, kern::VmaKind::kAnon,
                               kKvLabel);
    kv_ = Region{p0.pid(), kv.start, kv.npages};
  }
  if (spec_.disk_bytes_per_request > 0) {
    data_file_ = env_.kernel->fs().create("/data/" + spec_.name + ".db");
  }

  net::Endpoint ep{env_.service_ip, spec_.port};
  env_.tcp->listen(ep);
  env_.sim->spawn(env_.kernel->domain(), accept_loop(ep));
  env_.sim->spawn(env_.kernel->domain(), keepalive_loop());
  if (spec_.disk_bytes_per_request > 0) {
    env_.sim->spawn(env_.kernel->domain(), writeback_loop());
  }
}

void ServerApp::attach_existing(kern::ContainerId cid) {
  cid_ = cid;
  for (kern::Process* p : env_.kernel->container_processes(cid)) {
    // Keep-alive helper processes are rebuilt separately.
    if (p->comm != spec_.name) continue;
    pids_.push_back(p->pid());
    for (const kern::Vma& v : p->mm().vmas()) {
      if (v.backing_file == kHeapLabel) {
        heaps_.push_back(Region{p->pid(), v.start, v.npages});
      } else if (v.backing_file == kKvLabel) {
        kv_ = Region{p->pid(), v.start, v.npages};
      }
    }
  }
  NLC_CHECK_MSG(!pids_.empty(), "restored container has no app processes");
  if (spec_.disk_bytes_per_request > 0) {
    data_file_ = env_.kernel->fs().lookup("/data/" + spec_.name + ".db");
    NLC_CHECK_MSG(data_file_ != 0, "restored fs lacks the app data file");
  }
}

std::unique_ptr<ServerApp> ServerApp::attach_restored(
    AppEnv backup_env, AppSpec spec, const core::FailoverContext& ctx) {
  auto app = std::make_unique<ServerApp>(backup_env, std::move(spec));
  app->attach_existing(ctx.container);
  kern::Container* cont = backup_env.kernel->container(ctx.container);
  NLC_CHECK(cont != nullptr);
  cont->cpu().set_core_limit(app->spec_.cores);

  // Re-arm accept loops for every restored listener.
  for (const net::Endpoint& ep :
       backup_env.tcp->listeners_on_ip(backup_env.service_ip)) {
    backup_env.sim->spawn(backup_env.kernel->domain(), app->accept_loop(ep));
  }
  // Resume a handler for every repaired connection.
  for (kern::Pid pid : app->pids_) {
    kern::Process* p = backup_env.kernel->process(pid);
    for (const auto& [fd, entry] : p->fds()) {
      if (entry.kind == kern::FdKind::kSocket && entry.socket != 0 &&
          backup_env.tcp->valid(entry.socket)) {
        backup_env.sim->spawn(backup_env.kernel->domain(),
                              app->handler(pid, entry.socket, fd));
      }
    }
  }
  backup_env.sim->spawn(backup_env.kernel->domain(), app->keepalive_loop());
  if (app->spec_.disk_bytes_per_request > 0) {
    backup_env.sim->spawn(backup_env.kernel->domain(),
                          app->writeback_loop());
  }
  return app;
}

sim::task<> ServerApp::accept_loop(net::Endpoint ep) {
  while (true) {
    net::SocketId sock = co_await env_.tcp->accept(ep);
    kern::Pid pid = pids_[static_cast<std::size_t>(next_proc_) %
                          pids_.size()];
    next_proc_ = (next_proc_ + 1) % static_cast<int>(pids_.size());
    kern::Process* p = env_.kernel->process(pid);
    kern::Fd fd = p->install_fd(
        kern::FdEntry{.kind = kern::FdKind::kSocket, .socket = sock});
    env_.sim->spawn(env_.kernel->domain(), handler(pid, sock, fd));
  }
}

void ServerApp::dirty_pages(const Region& r, std::uint64_t count, Rng& rng) {
  kern::Process* p = env_.kernel->process(r.pid);
  if (p == nullptr || r.npages == 0) return;
  std::uint64_t fold = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto off = static_cast<std::uint64_t>(
        rng.uniform(0, static_cast<std::int64_t>(r.npages) - 1));
    fold = splitmix64(fold ^ off);
    p->mm().touch(r.start + off);
  }
  // One log entry summarising the whole draw sequence: the fold pins the
  // exact offsets without a per-page entry on the wire.
  if (count > 0) {
    if (kern::NondetSink* s = nondet_sink()) s->on_rng_draw(fold);
  }
}

namespace {
// KV cell layout within its page: value length, value seed, occupied flag,
// then the value bytes. Header bytes 11..15 stay zero.
constexpr std::uint32_t kCellLen = 0;
constexpr std::uint32_t kCellSeed = 2;
constexpr std::uint32_t kCellOccupied = 10;
constexpr std::uint32_t kCellValue = 16;
}  // namespace

void kv_write_cell(kern::AddressSpace& mm, kern::PageNum page,
                   std::uint64_t seed, std::uint16_t len) {
  NLC_CHECK(len <= kPageSize - kCellValue);
  // Only the first kCellValue + len bytes are written and stored, so the
  // rest of the buffer is left uninitialized.
  std::array<std::byte, kPageSize> cell;
  std::memset(cell.data(), 0, kCellValue);
  std::memcpy(cell.data() + kCellLen, &len, 2);
  std::memcpy(cell.data() + kCellSeed, &seed, 8);
  cell[kCellOccupied] = std::byte{1};
  kv_fill_value(seed, cell.data() + kCellValue, len);
  mm.write(page, 0, std::span(cell.data(), kCellValue + len));
}

std::shared_ptr<std::vector<std::byte>> ServerApp::apply_kv(
    const std::vector<std::byte>& payload) {
  kern::Process* p = env_.kernel->process(kv_.pid);
  NLC_CHECK_MSG(p != nullptr && kv_.npages > 0,
                "KV request against an app without a KV region");
  std::vector<KvOp> ops = kv_decode(payload);
  for (KvOp& op : ops) {
    kern::PageNum page = kv_.start + op.key % kv_.npages;
    if (op.op == KvOpType::kSet) {
      kv_write_cell(p->mm(), page, op.seed, op.len);
      op.found = true;
      continue;
    }
    kern::PagePayload cell = p->mm().content(page);
    op.found = cell != nullptr && (*cell)[kCellOccupied] == std::byte{1};
    if (op.found) {
      std::memcpy(&op.len, cell->data() + kCellLen, 2);
      std::memcpy(&op.seed, cell->data() + kCellSeed, 8);
      NLC_CHECK(kCellValue + op.len <= kPageSize);
      // Checked where it is read, so each GET sees the bytes its page holds
      // when it runs: the stored seed comes back only over its own value.
      op.reply_seed =
          kv_value_matches(op.seed, cell->data() + kCellValue, op.len)
              ? op.seed
              : ~op.seed;
    }
  }
  return kv_encode(ops);
}

sim::task<> ServerApp::serve_one(
    kern::Pid pid, const net::Segment& request,
    std::shared_ptr<std::vector<std::byte>>* reply,
    std::uint64_t* reply_len) {
  kern::Container* cont = env_.kernel->container(cid_);
  NLC_CHECK(cont != nullptr);
  const Region* heap = nullptr;
  for (const Region& r : heaps_) {
    if (r.pid == pid) heap = &r;
  }
  NLC_CHECK_MSG(heap != nullptr, "handler process lost its heap");

  bool heavy = false;
  if (spec_.heavy_request_fraction > 0.0) {
    heavy = rng_.chance(spec_.heavy_request_fraction);
    if (kern::NondetSink* s = nondet_sink()) {
      s->on_rng_draw(heavy ? 1 : 0);
    }
  }
  double scale = heavy ? spec_.heavy_factor : 1.0;
  Time cpu = static_cast<Time>(static_cast<double>(spec_.service_cpu) *
                               scale * dilation_);
  auto pages = static_cast<std::uint64_t>(
      static_cast<double>(spec_.pages_per_request) * scale);

  // Spread CPU and page dirtying over ~2 ms quanta so a pause lands in the
  // middle of realistic partial work.
  Time quantum = 2_ms;
  auto quanta = static_cast<std::uint64_t>((cpu + quantum - 1) / quantum);
  if (quanta == 0) quanta = 1;
  Time remaining = cpu;
  std::uint64_t pages_left = pages;
  for (std::uint64_t q = 0; q < quanta; ++q) {
    std::uint64_t chunk = pages_left / (quanta - q);
    dirty_pages(*heap, chunk, rng_);
    pages_left -= chunk;
    Time slice = std::min(remaining, quantum);
    co_await cont->cpu().consume(slice);
    remaining -= slice;
  }
  // KV mutation pages (dirtying the KV region without content, load mode).
  if (spec_.kv_writes_per_request > 0 && kv_.npages > 0 &&
      request.payload == nullptr) {
    dirty_pages(kv_, spec_.kv_writes_per_request, rng_);
  }
  // Validation mode: real content operations.
  if (request.payload != nullptr && kv_.npages > 0) {
    *reply = apply_kv(*request.payload);
    *reply_len = (*reply)->size();
  }
  // Filesystem persistence.
  if (spec_.disk_bytes_per_request > 0 && data_file_ != 0) {
    std::vector<std::byte> blob(
        static_cast<std::size_t>(
            static_cast<double>(spec_.disk_bytes_per_request) * scale),
        std::byte{0x5C});
    std::uint64_t off = disk_cursor_ % kDataFileBytes;
    disk_cursor_ += blob.size();
    env_.kernel->fs().write(data_file_, off, blob,
                            static_cast<std::uint64_t>(env_.sim->now()));
  }
}

sim::task<> ServerApp::handler(kern::Pid pid, net::SocketId sock,
                               kern::Fd fd) {
  while (true) {
    auto request = co_await env_.tcp->peek(sock);
    if (!request.has_value()) break;  // peer closed or connection reset

    std::shared_ptr<std::vector<std::byte>> reply;
    std::uint64_t reply_len = spec_.response_bytes;
    co_await serve_one(pid, *request, &reply, &reply_len);

    // Commit point: drop the request from the (checkpointed) read queue
    // and emit the response in the same quiescent step. The log entry
    // pins this request's identity and consumption order (DESIGN.md §14).
    if (kern::NondetSink* s = nondet_sink()) {
      s->on_net_input(sock, request->tag,
                      request->payload != nullptr
                          ? kv_content_hash(request->payload->data(),
                                            request->payload->size())
                          : 0);
    }
    env_.tcp->consume(sock);
    env_.tcp->send(sock, static_cast<std::uint32_t>(reply_len),
                   request->tag, std::move(reply));
    ++requests_completed_;
  }
  if (kern::Process* p = env_.kernel->process(pid)) p->close_fd(fd);
}

sim::task<> ServerApp::keepalive_loop() {
  // §IV: a tiny process wakes every 30 ms and executes ~1000 instructions
  // so cpuacct.usage keeps increasing while the service is idle.
  kern::Process& ka = env_.kernel->create_process(cid_, "keepalive");
  ka.mm().map(4, kern::VmaKind::kAnon);
  kern::Container* cont = env_.kernel->container(cid_);
  std::uint64_t ticks = 0;
  while (true) {
    co_await env_.sim->sleep_for(30_ms);
    if (kern::NondetSink* s = nondet_sink()) s->on_timer(0, ticks);
    ++ticks;
    co_await cont->cpu().consume(nlc::nanoseconds(400));
  }
}

sim::task<> ServerApp::writeback_loop() {
  std::uint64_t ticks = 0;
  while (true) {
    co_await env_.sim->sleep_for(100_ms);
    if (kern::NondetSink* s = nondet_sink()) s->on_timer(1, ticks);
    ++ticks;
    env_.kernel->fs().writeback(512);
  }
}

}  // namespace nlc::apps
