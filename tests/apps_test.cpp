#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "apps/batch_app.hpp"
#include "apps/catalog.hpp"
#include "apps/diskstress.hpp"
#include "apps/kv.hpp"
#include "apps/server_app.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"

namespace nlc::apps {
namespace {

using namespace nlc::literals;
using core::Cluster;
using core::kClientIp;
using core::kServiceIp;
using sim::task;

// ------------------------------------------------------------- KV codec ----

TEST(KvCodecTest, EncodeDecodeRoundTrip) {
  std::vector<KvOp> ops;
  ops.push_back({KvOpType::kSet, 42, 0xABCDEF, 900, false, 0});
  ops.push_back({KvOpType::kGet, 43, 0, 0, true, 0x1234});
  auto buf = kv_encode(ops);
  auto back = kv_decode(*buf);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].op, KvOpType::kSet);
  EXPECT_EQ(back[0].key, 42u);
  EXPECT_EQ(back[0].seed, 0xABCDEFu);
  EXPECT_EQ(back[0].len, 900);
  EXPECT_EQ(back[1].op, KvOpType::kGet);
  EXPECT_TRUE(back[1].found);
  EXPECT_EQ(back[1].reply_seed, 0x1234u);
}

TEST(KvCodecTest, ValueBytesDeterministic) {
  auto a = kv_value_bytes(7, 100);
  auto b = kv_value_bytes(7, 100);
  EXPECT_EQ(a, b);
  auto c = kv_value_bytes(8, 100);
  EXPECT_NE(a, c);
}

TEST(KvCodecTest, WordWiseValueBytesMatchPerByteDefinition) {
  std::vector<std::uint16_t> lens;
  for (std::uint16_t len = 0; len <= 64; ++len) lens.push_back(len);
  lens.push_back(900);
  lens.push_back(4080);
  for (std::uint64_t seed : {0ull, 7ull, 0x5EEDull, ~0ull}) {
    for (std::uint16_t len : lens) {
      auto bytes = kv_value_bytes(seed, len);
      ASSERT_EQ(bytes.size(), len);
      for (std::uint32_t i = 0; i < len; ++i) {
        ASSERT_EQ(bytes[i], kv_value_byte(seed, i))
            << "seed " << seed << " len " << len << " byte " << i;
      }
    }
  }
}

TEST(KvCodecTest, ContentHashOfValueIsPinned) {
  // The replay log fingerprints each consumed request payload with this
  // hash (DESIGN.md §14), so a change to it moves every logged input.
  auto v = kv_value_bytes(0x5EED, 900);
  EXPECT_EQ(kv_content_hash(v.data(), v.size()), 0xfbc5a24748976fecull);
}

TEST(KvCodecTest, ValueMatchesOnlyItsOwnFill) {
  // Empty; a tail alone (1, 7); one word without and with a tail (8, 9);
  // many words with a tail (900) and without (4080, a full cell).
  for (std::uint16_t len : {0, 1, 7, 8, 9, 900, 4080}) {
    for (std::uint64_t seed : {0x0ull, 0x5EEDull, ~0ull}) {
      std::vector<std::byte> v = kv_value_bytes(seed, len);
      EXPECT_TRUE(kv_value_matches(seed, v.data(), len))
          << "seed " << seed << " len " << len;
      // An empty value has no bytes to disagree with any seed.
      EXPECT_EQ(kv_value_matches(seed + 1, v.data(), len), len == 0)
          << "seed " << seed << " len " << len;
      for (std::uint32_t at = 0; at < len; ++at) {
        v[at] ^= std::byte{1} << (at % 8);
        ASSERT_FALSE(kv_value_matches(seed, v.data(), len))
            << "seed " << seed << " len " << len << " flipped byte " << at;
        v[at] ^= std::byte{1} << (at % 8);
      }
    }
  }
}

TEST(KvCodecTest, ContentHashDiscriminates) {
  auto a = kv_value_bytes(1, 64);
  auto b = kv_value_bytes(2, 64);
  EXPECT_NE(kv_content_hash(a.data(), a.size()),
            kv_content_hash(b.data(), b.size()));
}

TEST(KvCodecTest, CorruptPayloadRejected) {
  std::vector<std::byte> garbage(kKvOpWireSize + 1);
  EXPECT_THROW(kv_decode(garbage), InvariantError);
  // Byte 0 carries the op kind, byte 1 the found flag.
  const std::vector<KvOp> ops{{KvOpType::kSet, 1, 2, 3, false, 0},
                              {KvOpType::kGet, 4, 5, 6, true, 7}};
  for (std::uint8_t bad_op : {0, 3}) {
    auto buf = *kv_encode(ops);
    buf[kKvOpWireSize] = std::byte{bad_op};
    EXPECT_THROW(kv_decode(buf), InvariantError) << "op byte " << +bad_op;
  }
  auto buf = *kv_encode(ops);
  buf[kKvOpWireSize + 1] = std::byte{2};
  EXPECT_THROW(kv_decode(buf), InvariantError) << "found byte 2";
}

TEST(KvCodecTest, EveryIsaWritesAndChecksTheSameBytes) {
  std::vector<KvIsa> isas;
  for (KvIsa isa : {KvIsa::kBaseline, KvIsa::kAvx2, KvIsa::kAvx512dq}) {
    if (kv_isa_supported(isa)) {
      isas.push_back(isa);
    } else {
      std::printf("[ SKIPPED  ] %s variant: this build or CPU cannot run it\n",
                  kv_isa_name(isa));
    }
  }
  ASSERT_EQ(isas.front(), KvIsa::kBaseline);
  constexpr std::size_t kMaxLen = kPageSize - 16;  // a full cell's value
  constexpr std::size_t kGuard = 64;
  constexpr std::byte kCanary{0xA5};
  // The last three seeds wrap the word counter inside the vector loop.
  for (std::uint64_t seed :
       {0ull, 7ull, 0x5EEDull, ~0ull, ~0ull - 3, ~0ull - 200}) {
    std::vector<std::byte> ref(kMaxLen);
    for (std::uint32_t i = 0; i < kMaxLen; ++i) {
      ref[i] = kv_value_byte(seed, i);
    }
    std::vector<std::byte> buf(kMaxLen + kGuard);
    for (KvIsa isa : isas) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        std::byte* end = buf.data() + len;
        std::fill(buf.data(), end + kGuard, kCanary);
        kv_fill_value(seed, buf.data(), len, isa);
        ASSERT_EQ(std::memcmp(buf.data(), ref.data(), len), 0)
            << kv_isa_name(isa) << " seed " << seed << " len " << len;
        ASSERT_TRUE(std::all_of(end, end + kGuard,
                                [&](std::byte b) { return b == kCanary; }))
            << kv_isa_name(isa) << " wrote past len " << len;
        ASSERT_TRUE(kv_value_matches(seed, buf.data(), len, isa))
            << kv_isa_name(isa) << " seed " << seed << " len " << len;
      }
    }
    // Two passes of the widest vector loop, then 0..7 whole words, then no
    // tail or a 5-byte one; plus the same without a vector pass.
    for (std::size_t vector_words : {0, 16}) {
      for (std::size_t words = 0; words < 8; ++words) {
        for (std::size_t tail : {0, 5}) {
          const std::size_t len = 8 * (vector_words + words) + tail;
          std::vector<std::byte> v(ref.data(), ref.data() + len);
          std::vector<std::size_t> flips;
          for (std::size_t w = 0; w < len / 8; ++w) {
            flips.push_back(8 * w + w % 8);
          }
          for (std::size_t at = len / 8 * 8; at < len; ++at) {
            flips.push_back(at);
          }
          for (std::size_t at : flips) {
            const std::byte bit{static_cast<unsigned char>(1u << (at % 7))};
            v[at] ^= bit;
            for (KvIsa isa : isas) {
              ASSERT_FALSE(kv_value_matches(seed, v.data(), len, isa))
                  << kv_isa_name(isa) << " seed " << seed << " len " << len
                  << " flipped byte " << at;
            }
            v[at] ^= bit;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ ServerApp ----

struct ServerRig {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             3};
  std::unique_ptr<ServerApp> app;
  kern::ContainerId cid;

  explicit ServerRig(AppSpec spec) {
    kern::Container& c = cl.create_service_container(spec.name);
    cid = c.id();
    app = std::make_unique<ServerApp>(env, spec);
    app->setup(cid);
  }
};

TEST(ServerAppTest, SetupBuildsDeclaredTopology) {
  AppSpec spec = lighttpd_spec();
  ServerRig rig(spec);
  auto procs = rig.cl.primary_kernel->container_processes(rig.cid);
  // 4 app processes + 1 keepalive.
  EXPECT_EQ(procs.size(), 5u);
  EXPECT_EQ(rig.cl.primary_kernel->total_file_mappings(rig.cid),
            static_cast<std::uint64_t>(spec.processes * spec.mmap_files));
  EXPECT_GE(rig.cl.primary_kernel->total_threads(rig.cid),
            static_cast<std::uint64_t>(spec.processes));
}

TEST(ServerAppTest, ServesPlainRequests) {
  ServerRig rig(netecho_spec());
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = rig.app->spec().port;
  cc.connections = 2;
  cc.request_bytes = 10;
  clients::ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                                   rig.cl.client_tcp, cc, 5);
  client.start();
  rig.cl.sim.run_until(500_ms);
  client.stop();
  EXPECT_GT(client.completed(), 100u);  // echo is fast when unprotected
  EXPECT_EQ(client.broken_connections(), 0u);
  EXPECT_EQ(rig.app->requests_completed(), client.completed());
}

TEST(ServerAppTest, KvSetGetRoundTrip) {
  AppSpec spec = netecho_spec();
  spec.kv_pages = 128;
  ServerRig rig(spec);
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = spec.port;
  cc.connections = 1;
  cc.kv_mode = true;
  cc.kv_ops_per_request = 8;
  cc.keys_per_connection = 64;
  clients::ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                                   rig.cl.client_tcp, cc, 6);
  client.start();
  rig.cl.sim.run_until(1_s);
  client.stop();
  EXPECT_GT(client.completed(), 50u);
  EXPECT_EQ(client.kv_errors(), 0u);
}

TEST(ServerAppTest, KvGetDetectsCorruptedStoredBytes) {
  // The server checks the bytes really stored in the page and echoes the
  // header's seed and length, so one bit changed behind the server's back
  // in every stored record must fail the client's check: in a value byte,
  // in the header's seed, or in its length (900 becomes 896).
  const std::array<std::pair<std::uint32_t, std::byte>, 3> flips = {{
      {16 + 100, std::byte{0x01}},  // a value byte
      {2, std::byte{0x01}},         // the header's seed
      {0, std::byte{0x04}},         // the header's length
  }};
  for (const auto& [at, mask] : flips) {
    AppSpec spec = netecho_spec();
    spec.kv_pages = 128;
    ServerRig rig(spec);
    clients::ClientConfig cc;
    cc.local_ip = kClientIp;
    cc.server_ip = kServiceIp;
    cc.port = spec.port;
    cc.connections = 1;
    cc.kv_mode = true;
    cc.kv_ops_per_request = 8;
    cc.keys_per_connection = 64;
    clients::ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                                     rig.cl.client_tcp, cc, 6);
    client.start();
    rig.cl.sim.run_until(500_ms);
    ASSERT_EQ(client.kv_errors(), 0u);

    // Flip the bit in every stored record (occupied flag at byte 10).
    std::uint64_t flipped = 0;
    for (kern::Process* p :
         rig.cl.primary_kernel->container_processes(rig.cid)) {
      for (const kern::Vma& v : p->mm().vmas()) {
        if (v.backing_file != kKvLabel) continue;
        for (kern::PageNum page = v.start; page < v.end(); ++page) {
          if (p->mm().read(page, 10, 1)[0] != std::byte{1}) continue;
          auto b = p->mm().read(page, at, 1);
          b[0] ^= mask;
          p->mm().write(page, at, b);
          ++flipped;
        }
      }
    }
    ASSERT_GT(flipped, 0u);
    rig.cl.sim.run_until(1_s);
    client.stop();
    EXPECT_GT(client.kv_errors(), 0u) << "flipped cell byte " << at;
  }
}

/// The server's KV store: the address space holding it and its pages.
struct KvStore {
  kern::AddressSpace* mm = nullptr;
  kern::Vma vma;

  kern::PageNum page(std::uint32_t key) const {
    return vma.start + key % vma.npages;
  }
};

KvStore kv_store(ServerRig& rig) {
  for (kern::Process* p :
       rig.cl.primary_kernel->container_processes(rig.cid)) {
    for (const kern::Vma& v : p->mm().vmas()) {
      if (v.backing_file == kKvLabel) return KvStore{&p->mm(), v};
    }
  }
  return {};
}

/// Sends one KV request to the rig's server on a fresh connection and
/// returns the decoded reply (empty if none arrived).
std::vector<KvOp> kv_request(ServerRig& rig, const std::vector<KvOp>& ops) {
  std::optional<net::Segment> reply;
  rig.cl.sim.spawn(
      rig.cl.client_domain.get(),
      [](ServerRig& r, std::shared_ptr<std::vector<std::byte>> payload,
         std::optional<net::Segment>& rep) -> task<> {
        net::SocketId cs = co_await r.cl.client_tcp.connect(
            kClientIp, {kServiceIp, r.app->spec().port});
        r.cl.client_tcp.send(cs, static_cast<std::uint32_t>(payload->size()),
                             /*tag=*/1, payload);
        rep = co_await r.cl.client_tcp.recv(cs);
      }(rig, kv_encode(ops), reply));
  rig.cl.sim.run_until(rig.cl.sim.now() + 200_ms);
  if (!reply || reply->payload == nullptr) return {};
  return kv_decode(*reply->payload);
}

KvOp kv_get(std::uint32_t key) { return {KvOpType::kGet, key, 0, 0, false, 0}; }

/// The client's check of a found GET: the stored seed echoed in both
/// fields, over the length last written.
bool get_passes(const KvOp& reply, std::uint64_t seed, std::uint16_t len) {
  return reply.found && reply.seed == seed && reply.reply_seed == seed &&
         reply.len == len;
}

TEST(ServerAppTest, KvGetSetGetInOneRequestSeesEachVersion) {
  // Each GET is checked when it runs, so the GET before the SET echoes the
  // old value's seed and the GET after it the new one's.
  AppSpec spec = netecho_spec();
  spec.kv_pages = 128;
  ServerRig rig(spec);
  KvStore kv = kv_store(rig);
  ASSERT_NE(kv.mm, nullptr);
  for (std::uint32_t key = 0; key < 8; ++key) {
    kv_write_cell(*kv.mm, kv.page(key), 100 + key, 900);
  }
  const std::uint64_t new_seed = 0xC0FFEE;
  const std::vector<KvOp> ops = {
      kv_get(1), kv_get(2), kv_get(0),
      {KvOpType::kSet, 0, new_seed, 900, false, 0},
      kv_get(0), kv_get(3), kv_get(4), kv_get(5), kv_get(6)};
  const std::vector<KvOp> reply = kv_request(rig, ops);
  ASSERT_EQ(reply.size(), ops.size());
  EXPECT_TRUE(get_passes(reply[2], 100, 900));  // before the SET
  EXPECT_TRUE(get_passes(reply[4], new_seed, 900));  // after it
  for (std::size_t i : {0, 1, 5, 6, 7, 8}) {
    EXPECT_TRUE(get_passes(reply[i], 100 + ops[i].key, 900)) << "op " << i;
  }
}

TEST(ServerAppTest, KvGetDetectsCorruptionAtEveryCellPosition) {
  // One byte flipped per run, in one of four records of different lengths:
  // in the value's first word, a middle word, the last full word or the
  // tail, or in the header's seed or length. Each flip fails exactly the
  // GET of its own record, and a found GET's reply_seed is always the
  // stored seed or its complement.
  AppSpec spec = netecho_spec();
  spec.kv_pages = 128;
  ServerRig rig(spec);
  KvStore kv = kv_store(rig);
  ASSERT_NE(kv.mm, nullptr);
  const std::array<std::uint16_t, 4> lens = {900, 8, 4080, 33};
  const std::vector<KvOp> ops = {kv_get(0), kv_get(1), kv_get(2), kv_get(3)};
  constexpr std::uint32_t kValue = 16;  // cell header: len@0, seed@2
  std::uint32_t runs = 0;
  for (std::uint32_t bad = 0; bad < lens.size(); ++bad) {
    const std::uint32_t len = lens[bad];
    const std::uint32_t words = len / 8;
    // (cell offset, bit mask) of each flip.
    std::vector<std::pair<std::uint32_t, std::uint8_t>> flips = {
        {kValue + 0, 0x01},                    // first word
        {kValue + (words / 2) * 8 + 3, 0x10},  // a middle word
        {kValue + (words - 1) * 8 + 7, 0x80},  // last full word
        {2 + 5, 0x04},                         // header seed
        // Header length: clearing its lowest set bit keeps it in range.
        {0, static_cast<std::uint8_t>(len & (~len + 1u) & 0xFF)},
    };
    if (len % 8 != 0) flips.push_back({kValue + len - 1, 0x02});  // tail
    for (const auto& [at, mask] : flips) {
      ASSERT_NE(mask, 0u);
      for (std::uint32_t key = 0; key < lens.size(); ++key) {
        kv_write_cell(*kv.mm, kv.page(key), 200 + key, lens[key]);
      }
      auto b = kv.mm->read(kv.page(bad), at, 1);
      b[0] ^= std::byte{mask};
      kv.mm->write(kv.page(bad), at, b);

      const std::vector<KvOp> reply = kv_request(rig, ops);
      ASSERT_EQ(reply.size(), ops.size());
      for (std::uint32_t key = 0; key < lens.size(); ++key) {
        ASSERT_TRUE(reply[key].found);
        EXPECT_TRUE(reply[key].reply_seed == reply[key].seed ||
                    reply[key].reply_seed == ~reply[key].seed);
        EXPECT_EQ(get_passes(reply[key], 200 + key, lens[key]), key != bad)
            << "record " << bad << " flipped at cell byte " << at
            << ", checked op " << key;
      }
      ++runs;
    }
  }
  EXPECT_EQ(runs, 4u * 5u + 2u);  // 900 and 33 have a tail
}

TEST(ServerAppTest, DirtyPagesTrackedUnderLoad) {
  ServerRig rig(netecho_spec());
  for (kern::Process* p :
       rig.cl.primary_kernel->container_processes(rig.cid)) {
    p->mm().clear_soft_dirty();
  }
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = rig.app->spec().port;
  cc.connections = 1;
  cc.request_bytes = 10;
  clients::ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                                   rig.cl.client_tcp, cc, 7);
  client.start();
  rig.cl.sim.run_until(200_ms);
  client.stop();
  std::uint64_t dirty = 0;
  for (kern::Process* p :
       rig.cl.primary_kernel->container_processes(rig.cid)) {
    dirty += p->mm().dirty_count();
  }
  EXPECT_GT(dirty, 0u);
}

TEST(ServerAppTest, DiskSpecWritesThroughFilesystem) {
  AppSpec spec = ssdb_spec();
  spec.service_cpu = 1_ms;  // keep the test fast
  ServerRig rig(spec);
  clients::ClientConfig cc;
  cc.local_ip = kClientIp;
  cc.server_ip = kServiceIp;
  cc.port = spec.port;
  cc.connections = 1;
  cc.request_bytes = 100;
  clients::ClosedLoopClient client(rig.cl.sim, rig.cl.client_domain,
                                   rig.cl.client_tcp, cc, 8);
  client.start();
  rig.cl.sim.run_until(400_ms);
  client.stop();
  EXPECT_GT(client.completed(), 0u);
  auto ino = rig.cl.primary_kernel->fs().lookup("/data/ssdb.db");
  ASSERT_NE(ino, 0u);
  EXPECT_GT(rig.cl.primary_kernel->fs().attr(ino)->size, 0u);
  // Writeback + DRBD primary applied locally.
  rig.cl.sim.run_until(rig.cl.sim.now() + 300_ms);
  EXPECT_GT(rig.cl.primary_disk.writes(), 0u);
}

// ------------------------------------------------------------- BatchApp ----

TEST(BatchAppTest, RunsToCompletionInIdealTimeWhenUnprotected) {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             4};
  AppSpec spec = swaptions_spec();
  spec.batch_cpu_per_thread = 500_ms;
  kern::Container& c = cl.create_service_container(spec.name);
  BatchApp app(env, spec);
  app.setup(c.id());
  app.start();
  cl.sim.spawn([](BatchApp& a, Cluster& cc) -> task<> {
    co_await a.wait_done();
    cc.sim.stop();
  }(app, cl));
  cl.sim.run();
  EXPECT_TRUE(app.done());
  // Dedicated cores, no protection: only the keepalive's ~us-scale core
  // sharing separates runtime from the work quota.
  EXPECT_NEAR(to_seconds(app.runtime()), 0.5, 0.001);
  EXPECT_EQ(app.recorded_progress(), 4 * 500_ms);
}

TEST(BatchAppTest, DilationStretchesRuntime) {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             4};
  AppSpec spec = swaptions_spec();
  spec.batch_cpu_per_thread = 500_ms;
  kern::Container& c = cl.create_service_container(spec.name);
  BatchApp app(env, spec);
  app.setup(c.id());
  app.set_dilation(1.2);
  app.start();
  cl.sim.spawn([](BatchApp& a, Cluster& cc) -> task<> {
    co_await a.wait_done();
    cc.sim.stop();
  }(app, cl));
  cl.sim.run();
  EXPECT_NEAR(to_seconds(app.runtime()), 0.6, 0.01);
}

TEST(BatchAppTest, WorkersDirtyPagesWithStreamingPattern) {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             4};
  AppSpec spec = streamcluster_spec();
  spec.batch_cpu_per_thread = 200_ms;
  kern::Container& c = cl.create_service_container(spec.name);
  BatchApp app(env, spec);
  app.setup(c.id());
  for (kern::Process* p : cl.primary_kernel->container_processes(c.id())) {
    p->mm().clear_soft_dirty();
  }
  app.start();
  cl.sim.run_until(30_ms);
  std::uint64_t dirty = 0;
  for (kern::Process* p : cl.primary_kernel->container_processes(c.id())) {
    dirty += p->mm().dirty_count();
  }
  // 4 threads x 13 pages/5ms quantum x ~6 quanta ≈ 312 (+ progress pages).
  EXPECT_GT(dirty, 250u);
  EXPECT_LT(dirty, 400u);
}

// ------------------------------------------------------------ DiskStress ----

TEST(DiskStressTest, SelfChecksPassWithoutFaults) {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             4};
  kern::Container& c = cl.create_service_container("stress");
  DiskStressApp app(env, 123);
  app.setup(c.id());
  cl.sim.run_until(400_ms);
  app.stop();
  EXPECT_GT(app.operations(), 500u);
  EXPECT_EQ(app.errors(), 0u);
  EXPECT_EQ(app.verify_all(), 0u);
}

TEST(DiskStressTest, DetectsCorruption) {
  Cluster cl;
  AppEnv env{&cl.sim, cl.primary_kernel.get(), &cl.primary_tcp, kServiceIp,
             4};
  kern::Container& c = cl.create_service_container("stress");
  DiskStressApp app(env, 123);
  app.setup(c.id());
  cl.sim.run_until(200_ms);
  app.stop();
  // Corrupt the file behind the app's back: verify_all must notice.
  auto ino = cl.primary_kernel->fs().lookup("/data/diskstress.dat");
  std::vector<std::byte> junk(64, std::byte{0xEE});
  for (std::uint64_t slot = 0; slot < DiskStressApp::kSlots; ++slot) {
    cl.primary_kernel->fs().write(ino, slot * DiskStressApp::kSlotBytes,
                                  junk, 1);
  }
  EXPECT_GT(app.verify_all(), 0u);
}

// --------------------------------------------------------------- Catalog ----

TEST(CatalogTest, SevenBenchmarksInTableOrder) {
  auto specs = paper_benchmarks();
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(specs[0].name, "swaptions");
  EXPECT_EQ(specs[1].name, "streamcluster");
  EXPECT_EQ(specs[2].name, "redis");
  EXPECT_EQ(specs[3].name, "ssdb");
  EXPECT_EQ(specs[4].name, "node");
  EXPECT_EQ(specs[5].name, "lighttpd");
  EXPECT_EQ(specs[6].name, "djcms");
}

TEST(CatalogTest, SpecInvariants) {
  for (const auto& s : paper_benchmarks()) {
    EXPECT_GE(s.dilation_nilicon, 1.0) << s.name;
    EXPECT_GE(s.dilation_mc, 1.0) << s.name;
    EXPECT_GT(s.mapped_pages, 0u) << s.name;
    if (s.interactive) {
      EXPECT_GT(s.service_cpu, 0) << s.name;
      EXPECT_GT(s.saturation_clients, 0) << s.name;
    } else {
      EXPECT_GT(s.pages_per_quantum, 0u) << s.name;
    }
  }
}

TEST(CatalogTest, KvStoresHaveKeySpace) {
  EXPECT_GT(redis_spec().kv_pages, 0u);
  EXPECT_GT(ssdb_spec().kv_pages, 0u);
  EXPECT_GT(ssdb_spec().disk_bytes_per_request, 0u);
}

}  // namespace
}  // namespace nlc::apps
