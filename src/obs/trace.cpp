#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/env.hpp"

namespace vmic::obs {

Span& Span::operator=(Span&& o) noexcept {
  if (this != &o) {
    end();
    t_ = o.t_;
    track_ = o.track_;
    start_ = o.start_;
    name_ = std::move(o.name_);
    cat_ = std::move(o.cat_);
    args_ = std::move(o.args_);
    o.t_ = nullptr;
  }
  return *this;
}

void Span::end() {
  if (t_ == nullptr) return;
  t_->complete(track_, std::move(name_), std::move(cat_), start_, t_->now(),
               std::move(args_));
  t_ = nullptr;
}

sim::SimTime Tracer::now() const noexcept {
  return env_ != nullptr ? env_->now() : 0;
}

std::uint32_t Tracer::track(const std::string& name) {
  const auto [it, fresh] =
      track_ids_.try_emplace(name, static_cast<std::uint32_t>(tracks_.size()));
  if (fresh) tracks_.push_back(&it->first);
  return it->second;
}

void Tracer::complete(std::uint32_t track, std::string name, std::string cat,
                      sim::SimTime start, sim::SimTime end, std::string args) {
  if (!enabled_) return;
  events_.push_back(TraceEvent{track, start, end, std::move(name),
                               std::move(cat), std::move(args)});
}

void Tracer::instant(std::uint32_t track, std::string name, std::string cat,
                     std::string args) {
  if (!enabled_) return;
  const sim::SimTime t = now();
  events_.push_back(TraceEvent{track, t, t, std::move(name), std::move(cat),
                               std::move(args)});
}

Span Tracer::span(std::uint32_t track, std::string name, std::string cat,
                  std::string args) {
  if (!enabled_) return {};
  return Span{this,          track, std::move(name), std::move(cat),
              std::move(args), now()};
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
}

/// Nanoseconds -> microsecond timestamp string with exact fraction.
void append_us(std::string& out, sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  // Sort a copy of the indexes by (start, insertion order) so nested
  // spans appear outermost-first, which the viewers expect.
  std::vector<std::size_t> order(events_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].start < events_[b].start;
                   });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(i) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, *tracks_[i]);
    out += "\"}}";
  }
  for (std::size_t idx : order) {
    const TraceEvent& e = events_[idx];
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"";
    out += e.end > e.start ? 'X' : 'i';
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"ts\":";
    append_us(out, e.start);
    if (e.end > e.start) {
      out += ",\"dur\":";
      append_us(out, e.end - e.start);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"cat\":\"";
    append_escaped(out, e.cat);
    out += "\",\"name\":\"";
    append_escaped(out, e.name);
    out += '"';
    if (!e.args.empty()) {
      out += ",\"args\":{";
      out += e.args;
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace vmic::obs
