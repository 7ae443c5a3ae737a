#include "topo/topology.hpp"

namespace nlc::topo {

const char* topology_name(Topology t) {
  return t == Topology::kChain ? "chain" : "star";
}

bool parse_topology(const std::string& s, Topology* out) {
  if (s == "star") {
    *out = Topology::kStar;
    return true;
  }
  if (s == "chain") {
    *out = Topology::kChain;
    return true;
  }
  return false;
}

}  // namespace nlc::topo
