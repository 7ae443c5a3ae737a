// Replication topologies (DESIGN.md §16): how epoch state and the nd-event
// log flow from the primary to the N backup replicas.
//
//   star  — the primary fans out to every replica over its single
//           replication NIC (all streams contend on the same 10 GbE
//           qdisc; acks return on per-replica links).
//   chain — the primary feeds replica 0 only; each replica
//           store-and-forwards downstream over a per-hop link. Acks still
//           go directly back to the primary, so the quorum gate sees
//           per-replica cursors either way.
//
// This header is intentionally dependency-light (an enum and one rule) so
// `core::Options` can carry a `Topology` knob without pulling in the
// simulation.
#pragma once

#include <cstdint>
#include <string>

namespace nlc::topo {

enum class Topology : std::uint8_t { kStar, kChain };

/// The replica that feeds replica `i`, or -1 when the primary feeds it
/// directly: every star replica and a chain's head.
inline int upstream_of(Topology t, int i) {
  return t == Topology::kChain && i > 0 ? i - 1 : -1;
}

const char* topology_name(Topology t);
/// Parses "star" / "chain"; returns false (and leaves *out alone) on
/// anything else.
bool parse_topology(const std::string& s, Topology* out);

}  // namespace nlc::topo
