#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace vmic::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
}

Labels normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, k);
    out += "\":\"";
    append_escaped(out, v);
    out += '"';
  }
  out += '}';
}

/// Walks render_labels(labels) chunk by chunk without building it: for
/// each label "{" or ",", key, `="`, value, `"`; then "}". No labels
/// render as nothing.
class RenderedLabels {
 public:
  explicit RenderedLabels(const Labels& labels)
      : labels_(labels), pieces_(labels.empty() ? 0 : 5 * labels.size() + 1) {
    load();
  }

  [[nodiscard]] bool done() const noexcept { return step_ == pieces_; }
  [[nodiscard]] std::string_view chunk() const noexcept { return chunk_; }

  /// Consume n <= chunk().size() bytes.
  void advance(std::size_t n) noexcept {
    chunk_.remove_prefix(n);
    if (chunk_.empty()) {
      ++step_;
      load();
    }
  }

 private:
  [[nodiscard]] std::string_view piece(std::size_t step) const noexcept {
    if (step == 5 * labels_.size()) return "}";
    const auto& [k, v] = labels_[step / 5];
    switch (step % 5) {
      case 0: return step == 0 ? "{" : ",";
      case 1: return k;
      case 2: return "=\"";
      case 3: return v;
      default: return "\"";
    }
  }

  // Settle on the next non-empty piece (keys and values may be empty).
  void load() noexcept {
    for (; step_ < pieces_; ++step_) {
      chunk_ = piece(step_);
      if (!chunk_.empty()) return;
    }
    chunk_ = {};
  }

  const Labels& labels_;
  std::size_t pieces_;
  std::size_t step_ = 0;
  std::string_view chunk_;
};

/// render_labels(a) < render_labels(b), byte for byte, with no strings
/// built.
bool rendered_less(const Labels& a, const Labels& b) {
  RenderedLabels x(a);
  RenderedLabels y(b);
  while (!x.done() && !y.done()) {
    const std::size_t n = std::min(x.chunk().size(), y.chunk().size());
    if (const int c = x.chunk().substr(0, n).compare(y.chunk().substr(0, n));
        c != 0) {
      return c < 0;
    }
    x.advance(n);
    y.advance(n);
  }
  return x.done() && !y.done();
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

// ===========================================================================
// Registry
// ===========================================================================

std::size_t Registry::OwnedHash::operator()(
    const OwnedKey& k) const noexcept {
  const std::hash<std::string_view> hs;
  std::size_t h = hs(k.name) ^ static_cast<std::size_t>(k.kind);
  const auto combine = [&h](std::size_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const auto& [lk, lv] : k.labels) {
    combine(hs(lk));
    combine(hs(lv));
  }
  return h;
}

std::size_t Registry::OwnedHash::operator()(const Entry* e) const noexcept {
  return (*this)(OwnedKey{e->kind, e->name, e->labels});
}

bool Registry::OwnedEq::operator()(const OwnedKey& a,
                                   const Entry* b) const noexcept {
  return a.kind == b->kind && a.name == b->name && a.labels == b->labels;
}

bool Registry::OwnedEq::operator()(const Entry* a,
                                   const OwnedKey& b) const noexcept {
  return (*this)(b, a);
}

bool Registry::OwnedEq::operator()(const Entry* a,
                                   const Entry* b) const noexcept {
  return (*this)(OwnedKey{a->kind, a->name, a->labels}, b);
}

Registry::Entry& Registry::add_entry(const std::string& name, Labels labels,
                                     Kind kind, const void* owner) {
  Entry e;
  e.name = name;
  e.labels = normalized(std::move(labels));
  e.kind = kind;
  e.owner = owner;
  entries_.push_back(std::move(e));
  if (owner != nullptr) {
    owner_index_[owner].push_back(std::prev(entries_.end()));
  }
  return entries_.back();
}

Registry::Entry& Registry::owned_entry(Kind kind, const std::string& name,
                                       Labels labels) {
  labels = normalized(std::move(labels));
  const auto it = owned_index_.find(OwnedKey{kind, name, labels});
  if (it != owned_index_.end()) return *const_cast<Entry*>(*it);
  Entry& e = add_entry(name, std::move(labels), kind, nullptr);
  owned_index_.insert(&e);
  return e;
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  Entry& e = owned_entry(Kind::counter, name, std::move(labels));
  if (e.c == nullptr) e.c = &owned_counters_.emplace_back();
  return *const_cast<Counter*>(e.c);
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  Entry& e = owned_entry(Kind::gauge, name, std::move(labels));
  if (e.g == nullptr) e.g = &owned_gauges_.emplace_back();
  return *const_cast<Gauge*>(e.g);
}

Histogram& Registry::histogram(const std::string& name, Labels labels,
                               std::vector<double> bounds) {
  Entry& e = owned_entry(Kind::histogram, name, std::move(labels));
  if (e.h == nullptr) e.h = &owned_histograms_.emplace_back(std::move(bounds));
  return *const_cast<Histogram*>(e.h);
}

void Registry::attach_counter(const std::string& name, Labels labels,
                              const Counter* c, const void* owner) {
  add_entry(name, std::move(labels), Kind::counter, owner).c = c;
}

void Registry::attach_gauge(const std::string& name, Labels labels,
                            const Gauge* g, const void* owner) {
  add_entry(name, std::move(labels), Kind::gauge, owner).g = g;
}

void Registry::attach_gauge_fn(const std::string& name, Labels labels,
                               std::function<double()> fn,
                               const void* owner) {
  add_entry(name, std::move(labels), Kind::gauge, owner).gauge_fn =
      std::move(fn);
}

void Registry::attach_histogram(const std::string& name, Labels labels,
                                const Histogram* h, const void* owner) {
  add_entry(name, std::move(labels), Kind::histogram, owner).h = h;
}

void Registry::detach(const void* owner) {
  if (owner == nullptr) return;
  auto it = owner_index_.find(owner);
  if (it == owner_index_.end()) return;
  for (auto ent : it->second) entries_.erase(ent);
  owner_index_.erase(it);
}

void Registry::reset_owned() {
  for (auto& c : owned_counters_) c.reset();
  for (auto& g : owned_gauges_) g.reset();
  for (auto& h : owned_histograms_) h.reset();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.points.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricPoint p;
    p.name = e.name;
    p.labels = e.labels;
    p.kind = e.kind;
    switch (e.kind) {
      case Kind::counter:
        p.counter = e.c->value();
        break;
      case Kind::gauge:
        p.gauge = e.gauge_fn ? e.gauge_fn() : e.g->value();
        break;
      case Kind::histogram:
        p.bounds = e.h->bounds();
        p.bucket_counts = e.h->bucket_counts();
        p.sum = e.h->sum();
        p.count = e.h->count();
        break;
    }
    snap.points.push_back(std::move(p));
  }
  std::stable_sort(snap.points.begin(), snap.points.end(),
                   [](const MetricPoint& a, const MetricPoint& b) {
                     if (const int c = a.name.compare(b.name); c != 0) {
                       return c < 0;
                     }
                     return rendered_less(a.labels, b.labels);
                   });
  return snap;
}

// ===========================================================================
// MetricsSnapshot
// ===========================================================================

const MetricPoint* MetricsSnapshot::find(std::string_view name,
                                         Labels labels) const {
  labels = normalized(std::move(labels));
  for (const auto& p : points) {
    if (p.name == name && p.labels == labels) return &p;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& p : points) {
    if (p.kind == Kind::counter && p.name == name) total += p.counter;
  }
  return total;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& p : points) {
    const std::string ls = render_labels(p.labels);
    switch (p.kind) {
      case Kind::counter:
        out += p.name;
        out += ls;
        out += ' ';
        append_u64(out, p.counter);
        out += '\n';
        break;
      case Kind::gauge:
        out += p.name;
        out += ls;
        out += ' ';
        out += fmt_double(p.gauge);
        out += '\n';
        break;
      case Kind::histogram: {
        // Prometheus le-buckets are cumulative; the instrument stores
        // per-bucket counts.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < p.bucket_counts.size(); ++i) {
          Labels bl = p.labels;
          bl.emplace_back("le", i < p.bounds.size() ? fmt_double(p.bounds[i])
                                                    : "+inf");
          cum += p.bucket_counts[i];
          out += p.name;
          out += "_bucket";
          out += render_labels(bl);
          out += ' ';
          append_u64(out, cum);
          out += '\n';
        }
        out += p.name;
        out += "_sum";
        out += ls;
        out += ' ';
        out += fmt_double(p.sum);
        out += '\n';
        out += p.name;
        out += "_count";
        out += ls;
        out += ' ';
        append_u64(out, p.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& p : points) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, p.name);
    out += "\",\"type\":\"";
    out += to_string(p.kind);
    out += "\",\"labels\":";
    append_json_labels(out, p.labels);
    switch (p.kind) {
      case Kind::counter:
        out += ",\"value\":";
        append_u64(out, p.counter);
        break;
      case Kind::gauge:
        out += ",\"value\":";
        out += fmt_double(p.gauge);
        break;
      case Kind::histogram: {
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < p.bucket_counts.size(); ++i) {
          if (i) out += ',';
          out += "{\"le\":";
          out += i < p.bounds.size() ? fmt_double(p.bounds[i]) : "\"+inf\"";
          out += ",\"count\":";
          append_u64(out, p.bucket_counts[i]);
          out += '}';
        }
        out += "],\"sum\":";
        out += fmt_double(p.sum);
        out += ",\"count\":";
        append_u64(out, p.count);
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace vmic::obs
