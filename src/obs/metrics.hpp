#pragma once

// vmic::obs — the unified observability layer's metrics half.
//
// Every figure in the paper is a metrics readout (storage-node traffic,
// boot-time distributions, cache file sizes), so the simulator keeps one
// registry of named, labeled instruments instead of ad-hoc counters
// scattered across subsystems. Components own their instruments by value
// (an unbound Counter is just a uint64 — zero overhead when no registry
// is attached) and *bind* them into a Registry under a metric name plus a
// label set, e.g. nfs.server.bytes_tx{node="storage0"}. The registry can
// then render a byte-stable snapshot (the sim is single-threaded and
// deterministic), which is what the golden-metrics tests diff.

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace vmic::obs {

/// Monotonic counter. Implicitly converts to its value so existing
/// `stats().bytes == x` call sites keep working after the migration from
/// plain uint64 fields.
class Counter {
 public:
  constexpr Counter() = default;

  void inc(std::uint64_t n = 1) noexcept { v_ += n; }
  Counter& operator++() noexcept {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) noexcept {
    v_ += n;
    return *this;
  }
  void reset() noexcept { v_ = 0; }

  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  constexpr operator std::uint64_t() const noexcept { return v_; }  // NOLINT

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time value (occupancy, peak depth). Double-valued, like
/// Prometheus gauges.
class Gauge {
 public:
  constexpr Gauge() = default;

  void set(double v) noexcept { v_ = v; }
  void add(double d) noexcept { v_ += d; }
  /// Retain the maximum seen (peak trackers).
  void set_max(double v) noexcept {
    if (v > v_) v_ = v;
  }
  void reset() noexcept { v_ = 0; }

  [[nodiscard]] double value() const noexcept { return v_; }
  constexpr operator double() const noexcept { return v_; }  // NOLINT

 private:
  double v_ = 0;
};

/// Fixed-bucket histogram (latency / size distributions). Bounds are
/// inclusive upper edges; an implicit +inf bucket catches the rest.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double x) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += x;
    ++count_;
  }

  void reset() noexcept {
    for (auto& c : counts_) c = 0;
    sum_ = 0;
    count_ = 0;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (+inf last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0;
  std::uint64_t count_ = 0;
};

/// Label set: key/value pairs, normalized (sorted by key) on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// `{k="v",k2="v2"}` rendering (empty string for no labels).
std::string render_labels(const Labels& labels);

/// Shortest decimal rendering of `v` that round-trips exactly —
/// deterministic across runs, which keeps snapshots byte-stable.
std::string fmt_double(double v);

enum class Kind { counter, gauge, histogram };

[[nodiscard]] constexpr const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::counter: return "counter";
    case Kind::gauge: return "gauge";
    case Kind::histogram: return "histogram";
  }
  return "?";
}

/// One exported metric value, decoupled from the live instruments.
struct MetricPoint {
  std::string name;
  Labels labels;
  Kind kind = Kind::counter;
  std::uint64_t counter = 0;  ///< kind == counter
  double gauge = 0;           ///< kind == gauge
  // kind == histogram:
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  double sum = 0;
  std::uint64_t count = 0;
};

/// A frozen, sorted view of a registry. Byte-stable for a deterministic
/// simulation: rendering the same scenario twice yields identical text.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;  // sorted by (name, rendered labels)

  /// `name{k="v"} value` lines, one instrument per line (histograms
  /// expand to _bucket/_sum/_count lines, Prometheus-style).
  [[nodiscard]] std::string to_text() const;
  /// `{"metrics":[{...}]}` JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Exact lookup; labels are normalized before matching. Returns nullptr
  /// if absent.
  [[nodiscard]] const MetricPoint* find(std::string_view name,
                                        Labels labels = {}) const;
  /// Sum of all counter points with this name, across label sets.
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
};

/// The instrument index. Two usage modes:
///  * owned instruments: counter()/gauge()/histogram() return a stable
///    reference, deduplicated by (name, labels) — for scenario-level
///    metrics and aggregates shared by short-lived objects (QCOW2
///    devices come and go per VM);
///  * attached instruments: components that already own their counters
///    register pointers with attach_*() and detach(owner) on
///    destruction — per-instance stats stay exact even when two
///    instances share a name.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels,
                       std::vector<double> bounds);

  void attach_counter(const std::string& name, Labels labels,
                      const Counter* c, const void* owner);
  void attach_gauge(const std::string& name, Labels labels, const Gauge* g,
                    const void* owner);
  /// Gauge computed at snapshot time (e.g. cache occupancy).
  void attach_gauge_fn(const std::string& name, Labels labels,
                       std::function<double()> fn, const void* owner);
  void attach_histogram(const std::string& name, Labels labels,
                        const Histogram* h, const void* owner);
  /// Drop every instrument attached with this owner token.
  void detach(const void* owner);

  /// Zero all *owned* instruments (attached ones belong to components).
  void reset_owned();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    const Counter* c = nullptr;
    const Gauge* g = nullptr;
    const Histogram* h = nullptr;
    std::function<double()> gauge_fn;  // kind == gauge, when set
    const void* owner = nullptr;       // nullptr => registry-owned
  };

  // Owned-instrument identity: (kind, name, normalized labels). Same
  // name and labels under another kind is a separate instrument.
  struct OwnedKey {
    Kind kind;
    std::string_view name;
    const Labels& labels;
  };
  // Transparent, so a lookup by OwnedKey builds no key string.
  struct OwnedHash {
    using is_transparent = void;
    std::size_t operator()(const OwnedKey& k) const noexcept;
    std::size_t operator()(const Entry* e) const noexcept;
  };
  struct OwnedEq {
    using is_transparent = void;
    bool operator()(const OwnedKey& a, const Entry* b) const noexcept;
    bool operator()(const Entry* a, const OwnedKey& b) const noexcept;
    bool operator()(const Entry* a, const Entry* b) const noexcept;
  };

  Entry& add_entry(const std::string& name, Labels labels, Kind kind,
                   const void* owner);
  /// The owned entry for (kind, name, labels); a new one, indexed for
  /// the next lookup, has a null instrument pointer for the caller to set.
  Entry& owned_entry(Kind kind, const std::string& name, Labels labels);

  // Insertion-ordered (snapshot ties break on it); a list so detach can
  // erase one owner's entries without shifting anyone else's.
  std::list<Entry> entries_;
  // owner token -> that owner's entries, for O(per-owner) detach. A
  // vector scan here made teardown of a 10k-node cluster quadratic.
  std::unordered_map<const void*, std::vector<std::list<Entry>::iterator>>
      owner_index_;
  // Owned instruments need stable addresses: deque, never erased.
  std::deque<Counter> owned_counters_;
  std::deque<Gauge> owned_gauges_;
  std::deque<Histogram> owned_histograms_;
  // Hash index over the owned entries (never erased, so the pointers
  // stay valid). A linear scan here made per-node registration
  // quadratic in the node count.
  std::unordered_set<const Entry*, OwnedHash, OwnedEq> owned_index_;
};

}  // namespace vmic::obs
