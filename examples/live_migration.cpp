// Live migration: the CRIU engine used the way CRIU itself is meant to be
// used (§II-B) — checkpoint a running container on one host, restore it on
// another, with no failure involved. Shows the lower-level public API
// underneath NiLiCon: CheckpointEngine, page stores, RestoreEngine.
//
//   $ ./build/examples/live_migration
#include <cstdio>
#include <cstring>

#include "core/cluster.hpp"
#include "criu/checkpoint.hpp"
#include "criu/pagestore.hpp"
#include "criu/restore.hpp"
#include "criu/serialize.hpp"
#include "util/bytes.hpp"

using namespace nlc;
using namespace nlc::literals;

int main() {
  core::Cluster cluster;

  // A container with a process that has real state worth preserving.
  kern::Container& c = cluster.create_service_container("migrate-me");
  kern::Process& p = cluster.primary_kernel->create_process(c.id(), "app");
  auto vma = p.mm().map(2'000, kern::VmaKind::kAnon);
  const char note[] = "state that must survive the migration";
  std::vector<std::byte> bytes(sizeof note - 1);
  std::memcpy(bytes.data(), note, bytes.size());
  p.mm().write(vma.start + 17, 100, bytes);
  cluster.primary_kernel->mmap_file(p.pid(), 50, "/lib/libc.so.6");

  // Checkpoint (freeze -> harvest -> thaw), like `criu dump`.
  criu::CheckpointEngine dump(*cluster.primary_kernel, cluster.primary_tcp);
  cluster.primary_kernel->freeze_container(c.id());
  criu::HarvestOptions opts;
  opts.incremental = false;
  auto result = dump.harvest(c.id(), 0, nullptr, opts);
  cluster.primary_kernel->thaw_container(c.id());
  std::printf("checkpointed %zu processes, %zu pages, %s on the wire "
              "(harvest cost %.1fms)\n",
              result.image.processes.size(), result.image.pages.size(),
              format_bytes(result.image.byte_size()).c_str(),
              to_millis(result.cost.total()));

  // Write real image files and read them back on the destination — the
  // wire format a cold migration would actually ship.
  std::vector<std::byte> image_bytes = criu::serialize_image(result.image);
  std::printf("image file: %s on disk (serialized, framed, validated)\n",
              format_bytes(image_bytes.size()).c_str());
  criu::CheckpointImage shipped = criu::deserialize_image(image_bytes);

  // Ship pages through the backup-side store (as the page server would).
  criu::RadixPageStore store;
  store.begin_checkpoint(0);
  for (const auto& rec : shipped.pages) store.store(rec);

  // Restore on the other host, like `criu restore`.
  criu::RestoreEngine restore(cluster.backup_kernel_of(0),
                              cluster.backup_tcp_of(0));
  criu::RestoreTimeline tl;
  cluster.sim.spawn([](core::Cluster&, criu::RestoreEngine& eng,
                       const criu::CheckpointImage& img,
                       criu::RadixPageStore& st,
                       criu::RestoreTimeline& out) -> sim::task<> {
    out = co_await eng.restore(img, st.all_pages(), {}, true);
  }(cluster, restore, shipped, store, tl));
  cluster.sim.run();

  std::printf("restored in %.0fms (namespaces %.0fms in, sockets %.0fms in, "
              "%llu pages)\n",
              to_millis(tl.total()), to_millis(tl.namespaces_done - tl.started),
              to_millis(tl.sockets_done - tl.started),
              static_cast<unsigned long long>(tl.pages_restored));

  // The state made it.
  kern::Process* q = cluster.backup_kernel_of(0).process(p.pid());
  auto back = q->mm().read(vma.start + 17, 100, bytes.size());
  bool ok = back == bytes;
  std::printf("memory check on the destination host: %s\n",
              ok ? "intact" : "CORRUPTED");
  return ok ? 0 : 1;
}
