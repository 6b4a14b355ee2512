#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace vmic::cluster {

/// Node-selection policies modelled on OpenNebula's scheduler (§3.4).
enum class SchedPolicy { packing, striping, load_aware };

constexpr const char* to_string(SchedPolicy p) noexcept {
  switch (p) {
    case SchedPolicy::packing: return "packing";
    case SchedPolicy::striping: return "striping";
    case SchedPolicy::load_aware: return "load_aware";
  }
  return "?";
}

/// Scheduler-visible node state.
struct NodeState {
  int id = 0;
  int running_vms = 0;
  int vm_capacity = 8;
  double load = 0.0;  ///< external load metric (load-aware policy)
  std::set<std::string> warm_vmis;  ///< VMIs with a warm cache on this node
};

/// True if node `a` is strictly preferred over `b` under `policy`.
inline bool prefers(SchedPolicy policy, const NodeState& a,
                    const NodeState& b) {
  switch (policy) {
    case SchedPolicy::packing:
      // Fullest non-full node first; ties to the lowest id.
      if (a.running_vms != b.running_vms) {
        return a.running_vms > b.running_vms;
      }
      return a.id < b.id;
    case SchedPolicy::striping:
      if (a.running_vms != b.running_vms) {
        return a.running_vms < b.running_vms;
      }
      return a.id < b.id;
    case SchedPolicy::load_aware:
      if (a.load != b.load) return a.load < b.load;
      return a.id < b.id;
  }
  return a.id < b.id;
}

/// Pick a node for a VM booting `vmi`. Returns the node index in `nodes`,
/// or -1 if no node has capacity.
///
/// `cache_aware` applies the paper's heuristic on top of any base policy:
/// "allocation of VMs to nodes with an existing warm cache ... can be used
/// in conjunction with any of the above desired strategies" (§3.4) — the
/// candidate set is first narrowed to warm-cache nodes when any exist.
inline int pick_node(const std::vector<NodeState>& nodes, SchedPolicy policy,
                     const std::string& vmi, bool cache_aware) {
  auto has_capacity = [](const NodeState& n) {
    return n.running_vms < n.vm_capacity;
  };

  int best = -1;
  bool best_warm = false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeState& n = nodes[i];
    if (!has_capacity(n)) continue;
    const bool warm = cache_aware && n.warm_vmis.count(vmi) != 0;
    if (best < 0) {
      best = static_cast<int>(i);
      best_warm = warm;
      continue;
    }
    // Warm-cache nodes dominate cold ones; within a tier, the base
    // policy decides.
    if (warm != best_warm) {
      if (warm) {
        best = static_cast<int>(i);
        best_warm = true;
      }
      continue;
    }
    if (prefers(policy, n, nodes[static_cast<std::size_t>(best)])) {
      best = static_cast<int>(i);
      best_warm = warm;
    }
  }
  return best;
}

}  // namespace vmic::cluster
