#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/hub.hpp"

namespace vmic::cache {

/// Eviction policy for a pool of VMI cache images (§3.4: "eviction of VMI
/// caches whenever the allocated cache space is full ... a policy such as
/// LRU at the node or cloud level").
enum class EvictionPolicy { lru, fifo, none };

constexpr const char* to_string(EvictionPolicy p) noexcept {
  switch (p) {
    case EvictionPolicy::lru: return "lru";
    case EvictionPolicy::fifo: return "fifo";
    case EvictionPolicy::none: return "none";
  }
  return "?";
}

/// Accounting for the cache images stored at one location (a compute
/// node's disk, or the storage node's memory). Tracks which VMI caches
/// exist, enforces a byte budget, and decides what to evict. The actual
/// file create/delete is done by the caller (the deployment layer owns
/// the directories); the pool returns the victims.
class CachePool {
 public:
  CachePool(std::uint64_t capacity_bytes, EvictionPolicy policy)
      : capacity_(capacity_bytes), policy_(policy) {}

  ~CachePool() {
    if (hub_ != nullptr) hub_->registry.detach(this);
  }

  /// Export eviction/admission counters and quota-occupancy gauges as
  /// cache.pool.* under the given labels.
  void bind_obs(obs::Hub* hub, const obs::Labels& labels) {
    hub_ = hub;
    if (hub_ == nullptr) return;
    hub_->registry.attach_counter("cache.pool.evictions", labels, &evictions_,
                                  this);
    hub_->registry.attach_counter("cache.pool.admissions", labels,
                                  &admissions_, this);
    hub_->registry.attach_counter("cache.pool.rejections", labels,
                                  &rejections_, this);
    hub_->registry.attach_gauge_fn(
        "cache.pool.used_bytes", labels,
        [this] { return static_cast<double>(used_); }, this);
    hub_->registry.attach_gauge_fn(
        "cache.pool.capacity_bytes", labels,
        [this] { return static_cast<double>(capacity_); }, this);
    hub_->registry.attach_gauge_fn(
        "cache.pool.entries", labels,
        [this] { return static_cast<double>(entries_.size()); }, this);
  }

  [[nodiscard]] bool contains(const std::string& vmi) const {
    return entries_.count(vmi) != 0;
  }

  [[nodiscard]] std::uint64_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] EvictionPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }

  /// Record a (warm-cache) hit; refreshes recency for LRU.
  void touch(const std::string& vmi) {
    auto it = entries_.find(vmi);
    if (it != entries_.end()) it->second.last_use = ++clock_;
  }

  /// Pin/unpin a cache entry while a running VM chains to its file: pinned
  /// entries are never picked as eviction victims (their files are open as
  /// backing images and cannot be deleted). Pins nest; unpinning an absent
  /// or unpinned entry is a no-op, so callers may release after the entry
  /// was invalidated (e.g. by a node crash).
  void pin(const std::string& vmi) {
    auto it = entries_.find(vmi);
    if (it != entries_.end()) ++it->second.pins;
  }
  void unpin(const std::string& vmi) {
    auto it = entries_.find(vmi);
    if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
  }
  /// Pins held across all entries: 0 once every borrower released.
  [[nodiscard]] int total_pins() const {
    int n = 0;
    for (const auto& [vmi, e] : entries_) n += e.pins;
    return n;
  }
  [[nodiscard]] bool pinned(const std::string& vmi) const {
    auto it = entries_.find(vmi);
    return it != entries_.end() && it->second.pins > 0;
  }

  /// Admit a cache image of `bytes`. Returns the list of VMIs evicted to
  /// make room — empty if none. If the policy is `none` (or the entry
  /// alone exceeds capacity) and there is no room, the admission fails
  /// and the returned vector contains just the rejected `vmi` itself
  /// with `admitted == false`.
  struct AdmitResult {
    bool admitted = false;
    std::vector<std::string> evicted;
  };
  AdmitResult admit(const std::string& vmi, std::uint64_t bytes) {
    AdmitResult res;
    if (auto it = entries_.find(vmi); it != entries_.end()) {
      // Size update (e.g. cache grew while warming).
      used_ -= it->second.bytes;
      it->second.bytes = bytes;
      it->second.last_use = ++clock_;
      used_ += bytes;
      res.admitted = true;
      return res;
    }
    if (bytes > capacity_) {  // can never fit
      ++rejections_;
      return res;
    }
    while (used_ + bytes > capacity_) {
      if (policy_ == EvictionPolicy::none) {
        ++rejections_;
        return res;
      }
      const auto victim = pick_victim();
      if (victim.empty()) {
        ++rejections_;
        return res;
      }
      res.evicted.push_back(victim);
      remove(victim);
      ++evictions_;
    }
    entries_[vmi] = Entry{bytes, ++clock_, ++clock_};
    used_ += bytes;
    ++admissions_;
    res.admitted = true;
    return res;
  }

  void remove(const std::string& vmi) {
    auto it = entries_.find(vmi);
    if (it == entries_.end()) return;
    used_ -= it->second.bytes;
    entries_.erase(it);
  }

 private:
  struct Entry {
    std::uint64_t bytes;
    std::uint64_t inserted;
    std::uint64_t last_use;
    int pins = 0;
  };

  [[nodiscard]] std::string pick_victim() const {
    std::string victim;
    std::uint64_t best = ~0ull;
    for (const auto& [vmi, e] : entries_) {
      if (e.pins > 0) continue;
      const std::uint64_t key =
          policy_ == EvictionPolicy::lru ? e.last_use : e.inserted;
      if (key < best) {
        best = key;
        victim = vmi;
      }
    }
    return victim;
  }

  std::uint64_t capacity_;
  EvictionPolicy policy_;
  std::map<std::string, Entry> entries_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
  obs::Counter evictions_;
  obs::Counter admissions_;
  obs::Counter rejections_;
  obs::Hub* hub_ = nullptr;
};

}  // namespace vmic::cache
