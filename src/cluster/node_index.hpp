#pragma once

// Incremental index over a scheduler's NodeState vector, replacing the
// O(nodes) linear scan in pick_node() with O(log n) bucket lookups. The
// engine drives it: whenever a node's running_vms / vm_capacity / load /
// warm set changes, the owner calls node_changed() / warm_added() /
// warm_removed(), and pick() then answers placement queries from sorted
// buckets. pick() returns exactly what cluster::pick_node would return
// on the same NodeState vector — a differential test in test_cluster.cpp
// pins that equivalence on randomized states.

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/scheduler.hpp"

namespace vmic::cluster {

class NodeIndex {
 public:
  explicit NodeIndex(const std::vector<NodeState>* nodes) : nodes_(nodes) {
    slots_.resize(nodes_->size());
    for (std::size_t i = 0; i < nodes_->size(); ++i) {
      index_node(static_cast<int>(i));
    }
  }

  /// Re-slot one node after its running_vms, vm_capacity or load changed.
  void node_changed(int ni) {
    deindex_node(ni);
    index_node(ni);
  }

  /// Node `ni` gained / lost a warm cache for `vmi`.
  void warm_added(int ni, const std::string& vmi) { warm_[vmi].insert(ni); }
  void warm_removed(int ni, const std::string& vmi) {
    auto it = warm_.find(vmi);
    if (it == warm_.end()) return;
    it->second.erase(ni);
    if (it->second.empty()) warm_.erase(it);
  }

  /// Nodes currently holding a warm cache of `vmi`, or nullptr when none
  /// do. The peer cache tier uses this as its cluster-wide seed lookup —
  /// the warm-holder map doubles as the seed directory, so only adopted
  /// caches on live nodes ever serve (crashes clear a node's warm set).
  [[nodiscard]] const std::set<int>* warm_holders(
      const std::string& vmi) const {
    auto it = warm_.find(vmi);
    return it == warm_.end() ? nullptr : &it->second;
  }

  /// Equivalent of pick_node(*nodes, policy, vmi, cache_aware): node index
  /// with spare capacity, or -1. Warm-cache nodes dominate cold ones when
  /// cache_aware; within a tier the policy's preference order decides,
  /// ties to the lowest id.
  [[nodiscard]] int pick(SchedPolicy policy, const std::string& vmi,
                         bool cache_aware) const {
    if (cache_aware) {
      if (auto it = warm_.find(vmi); it != warm_.end()) {
        // Warm holders of one VMI are few; a linear pass over them keeps
        // the index free of per-(vmi, policy) structures.
        int best = -1;
        for (int ni : it->second) {
          const NodeState& n = (*nodes_)[static_cast<std::size_t>(ni)];
          if (n.running_vms >= n.vm_capacity) continue;
          if (best < 0 ||
              prefers(policy, n, (*nodes_)[static_cast<std::size_t>(best)])) {
            best = ni;
          }
        }
        if (best >= 0) return best;
      }
    }
    switch (policy) {
      case SchedPolicy::packing:
        return by_count_.empty() ? -1 : *by_count_.rbegin()->second.begin();
      case SchedPolicy::striping:
        return by_count_.empty() ? -1 : *by_count_.begin()->second.begin();
      case SchedPolicy::load_aware:
        return by_load_.empty() ? -1 : *by_load_.begin()->second.begin();
    }
    return -1;
  }

 private:
  void index_node(int ni) {
    const NodeState& n = (*nodes_)[static_cast<std::size_t>(ni)];
    Slot& s = slots_[static_cast<std::size_t>(ni)];
    s.eligible = n.running_vms < n.vm_capacity;
    if (!s.eligible) return;
    s.running = n.running_vms;
    s.load = n.load;
    by_count_[s.running].insert(ni);
    by_load_[s.load].insert(ni);
  }

  void deindex_node(int ni) {
    Slot& s = slots_[static_cast<std::size_t>(ni)];
    if (!s.eligible) return;
    auto ci = by_count_.find(s.running);
    ci->second.erase(ni);
    if (ci->second.empty()) by_count_.erase(ci);
    auto li = by_load_.find(s.load);
    li->second.erase(ni);
    if (li->second.empty()) by_load_.erase(li);
    s.eligible = false;
  }

  /// The keys a node was indexed under (so node_changed can unindex it
  /// after the underlying NodeState already moved on).
  struct Slot {
    bool eligible = false;
    int running = 0;
    double load = 0.0;
  };

  const std::vector<NodeState>* nodes_;
  std::vector<Slot> slots_;
  /// Nodes with spare capacity, bucketed by running_vms (striping scans
  /// from the front, packing from the back) and by load (load_aware).
  std::map<int, std::set<int>> by_count_;
  std::map<double, std::set<int>> by_load_;
  /// vmi -> nodes holding a warm cache for it.
  std::unordered_map<std::string, std::set<int>> warm_;
};

}  // namespace vmic::cluster
