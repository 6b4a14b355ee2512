#pragma once

// Host-time span recorder for the benchmark's traced pass. Spans wrap the
// benchmark's own calls into the simulator's modules (the program itself
// carries no wall-clock instrumentation), are kept in memory, and are
// written once at exit as Chrome trace_event JSON — the same format as
// `vmi-bootsim --trace-out`, so one viewer opens both.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index of the enclosing span, -1 = root
};

class SpanRecorder {
 public:
  /// Open a span under the innermost open one.
  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now_ns(), -1, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Close span `id`.
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    const auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end()) open_.erase(it);
  }

  /// Record a finished span directly (tests build exact timelines).
  int add(std::string name, std::int64_t start, std::int64_t end,
          int parent) {
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const SpanRecord& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::int64_t duration_ns(int id) const {
    const SpanRecord& s = at(id);
    return s.end_ns - s.start_ns;
  }
  [[nodiscard]] double seconds(int id) const {
    return static_cast<double>(duration_ns(id)) * 1e-9;
  }

  /// Duration minus the part of [start, end) that the span's direct
  /// children cover (their union, clipped to the parent).
  [[nodiscard]] std::int64_t self_ns(int id) const {
    const SpanRecord& p = at(id);
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const SpanRecord& s : spans_) {
      if (&s == &p || s.parent != id) continue;
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    return (p.end_ns - p.start_ns) - covered;
  }

  /// `{"traceEvents":[...]}`: one complete ("X") event per span, in
  /// microseconds from the first span, with self time and parent in args.
  [[nodiscard]] std::string to_chrome_json() const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out =
        "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const int id = static_cast<int>(i);
      out += ",{\"name\":\"" + s.name + "\",\"cat\":\"perfbench\",\"ph\":\"X\"";
      out += ",\"ts\":" + us(s.start_ns - t0) + ",\"dur\":" + us(duration_ns(id));
      out += ",\"pid\":1,\"tid\":1,\"args\":{\"self_us\":" + us(self_ns(id));
      out += ",\"parent\":" + std::to_string(s.parent) + "}}";
    }
    out += "]}\n";
    return out;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  static std::string us(std::int64_t ns) {
    return std::to_string(ns / 1000) + "." + pad3(ns % 1000);
  }
  static std::string pad3(std::int64_t v) {
    std::string s = std::to_string(v < 0 ? -v : v);
    return std::string(3 - std::min<std::size_t>(3, s.size()), '0') + s;
  }

  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII guard: `Scoped s(rec, "cloud::run_cloud");` — a null recorder
/// makes it inert, so untraced runs share the traced code path.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, std::string name)
      : rec_(rec), id_(rec != nullptr ? rec->begin(std::move(name)) : -1) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void close() {
    if (rec_ != nullptr && !closed_) rec_->end(id_);
    closed_ = true;
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench
