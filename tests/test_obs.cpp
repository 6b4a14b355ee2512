// vmic::obs unit tests: instrument semantics, registry binding, snapshot
// rendering, and sim-time tracing.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"

namespace vmic::obs {
namespace {

// ---------------------------------------------------------------------------
// instruments
// ---------------------------------------------------------------------------

TEST(Counter, Semantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  ++c;
  c += 7;
  EXPECT_EQ(c.value(), 50u);
  // Implicit conversion keeps pre-refactor comparison sites compiling.
  const std::uint64_t v = c;
  EXPECT_EQ(v, 50u);
  EXPECT_TRUE(c == 50u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, Semantics) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  const double d = g;
  EXPECT_DOUBLE_EQ(d, 9.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketEdgesAreInclusive) {
  Histogram h({1.0, 10.0});
  h.observe(1.0);    // first bucket (<= 1)
  h.observe(1.001);  // second bucket
  h.observe(10.0);   // second bucket (<= 10)
  h.observe(11.0);   // +inf bucket
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 10.0 + 11.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
}

TEST(FmtDouble, ShortestRoundTrip) {
  EXPECT_EQ(fmt_double(0), "0");
  EXPECT_EQ(fmt_double(1), "1");
  EXPECT_EQ(fmt_double(0.1), "0.1");
  EXPECT_EQ(fmt_double(1048576), "1048576");
  // Round-trip exactness on an awkward value.
  const double v = 37.796041396;
  EXPECT_EQ(std::stod(fmt_double(v)), v);
}

TEST(RenderLabels, RendersInGivenOrder) {
  EXPECT_EQ(render_labels({}), "");
  EXPECT_EQ(render_labels({{"node", "c0"}}), "{node=\"c0\"}");
  // Rendering is order-preserving; *registration* normalizes (sorts) —
  // see Registry.LabelOrderIsNormalized.
  EXPECT_EQ(render_labels({{"z", "1"}, {"a", "2"}}), "{z=\"1\",a=\"2\"}");
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(Registry, OwnedCountersDedupByNameAndLabels) {
  Registry r;
  Counter& a = r.counter("x.count", {{"node", "c0"}});
  Counter& b = r.counter("x.count", {{"node", "c0"}});
  Counter& c = r.counter("x.count", {{"node", "c1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(4);
  EXPECT_EQ(r.size(), 2u);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.counter_total("x.count"), 7u);
  const MetricPoint* p = snap.find("x.count", {{"node", "c1"}});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->counter, 4u);
}

TEST(Registry, LabelOrderIsNormalized) {
  Registry r;
  Counter& a = r.counter("y", {{"b", "2"}, {"a", "1"}});
  Counter& b = r.counter("y", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  const auto snap = r.snapshot();
  // find() normalizes too.
  ASSERT_NE(snap.find("y", {{"b", "2"}, {"a", "1"}}), nullptr);
}

TEST(Registry, OwnedLookupKeepsKindsApart) {
  Registry r;
  Counter& c = r.counter("dup", {{"node", "c0"}, {"disk", "d0"}});
  Gauge& g = r.gauge("dup", {{"disk", "d0"}, {"node", "c0"}});
  Histogram& h = r.histogram("dup", {{"node", "c0"}, {"disk", "d0"}}, {1.0});
  EXPECT_EQ(r.size(), 3u);
  // Permuted labels find the same instrument; a second histogram call
  // keeps the first registration's bounds.
  EXPECT_EQ(&r.counter("dup", {{"disk", "d0"}, {"node", "c0"}}), &c);
  EXPECT_EQ(&r.gauge("dup", {{"node", "c0"}, {"disk", "d0"}}), &g);
  EXPECT_EQ(&r.histogram("dup", {{"disk", "d0"}, {"node", "c0"}}, {2.0}), &h);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(h.bounds(), std::vector<double>{1.0});

  c.inc(5);
  g.set(1.5);
  h.observe(0.5);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.points.size(), 3u);
  // Same name and labels: registration order breaks the tie.
  EXPECT_EQ(snap.points[0].kind, Kind::counter);
  EXPECT_EQ(snap.points[0].counter, 5u);
  EXPECT_EQ(snap.points[1].kind, Kind::gauge);
  EXPECT_EQ(snap.points[1].gauge, 1.5);
  EXPECT_EQ(snap.points[2].kind, Kind::histogram);
  EXPECT_EQ(snap.points[2].count, 1u);
}

TEST(Registry, AttachAndDetach) {
  Registry r;
  Counter mine;
  int owner_token = 0;
  r.attach_counter("z.bytes", {{"node", "c0"}}, &mine, &owner_token);
  mine.inc(123);
  {
    const auto snap = r.snapshot();
    const MetricPoint* p = snap.find("z.bytes", {{"node", "c0"}});
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->counter, 123u);
  }
  r.detach(&owner_token);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.snapshot().find("z.bytes", {{"node", "c0"}}), nullptr);
}

TEST(Registry, GaugeFnEvaluatedAtSnapshotTime) {
  Registry r;
  double live = 1.0;
  int owner = 0;
  r.attach_gauge_fn("occ", {}, [&live] { return live; }, &owner);
  live = 8.0;
  const auto snap = r.snapshot();
  const MetricPoint* p = snap.find("occ");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->gauge, 8.0);
  r.detach(&owner);
}

TEST(Registry, ResetOwnedLeavesAttachedAlone) {
  Registry r;
  Counter attached;
  int owner = 0;
  r.attach_counter("att", {}, &attached, &owner);
  Counter& owned = r.counter("own");
  attached.inc(5);
  owned.inc(5);
  r.reset_owned();
  EXPECT_EQ(attached.value(), 5u);
  EXPECT_EQ(owned.value(), 0u);
  r.detach(&owner);
}

TEST(Snapshot, TextFormatIsSortedAndExact) {
  Registry r;
  r.counter("b.count", {{"node", "c1"}}).inc(2);
  r.counter("b.count", {{"node", "c0"}}).inc(1);
  r.gauge("a.depth", {}).set(1.5);
  const std::string text = r.snapshot().to_text();
  EXPECT_EQ(text,
            "a.depth 1.5\n"
            "b.count{node=\"c0\"} 1\n"
            "b.count{node=\"c1\"} 2\n");
}

TEST(Snapshot, HistogramExpandsPrometheusStyle) {
  Registry r;
  Histogram& h = r.histogram("lat", {{"n", "x"}}, {0.5, 1.0});
  h.observe(0.25);
  h.observe(0.75);
  h.observe(2.0);
  const std::string text = r.snapshot().to_text();
  EXPECT_EQ(text,
            "lat_bucket{n=\"x\",le=\"0.5\"} 1\n"
            "lat_bucket{n=\"x\",le=\"1\"} 2\n"
            "lat_bucket{n=\"x\",le=\"+inf\"} 3\n"
            "lat_sum{n=\"x\"} 3\n"
            "lat_count{n=\"x\"} 3\n");
}

TEST(Snapshot, JsonContainsTypedSeries) {
  Registry r;
  r.counter("c", {{"k", "v"}}).inc(9);
  r.gauge("g", {}).set(2.5);
  const std::string json = r.snapshot().to_json();
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Snapshot, DeterministicAcrossRenders) {
  Registry r;
  r.counter("m", {{"node", "c3"}}).inc(3);
  r.counter("m", {{"node", "c10"}}).inc(10);
  r.gauge("q").set(0.125);
  const auto s1 = r.snapshot();
  const auto s2 = r.snapshot();
  EXPECT_EQ(s1.to_text(), s2.to_text());
  EXPECT_EQ(s1.to_json(), s2.to_json());
}

// snapshot() sorts by (name, rendered labels) in byte order without
// rendering. The series include pairs where that order differs from
// comparing keys and values one by one: `x!` renders below `x` (`!` is
// below `"`), key `a_b` against `a`, bytes above 0x7f, an empty label set,
// and ties — the same name and labels under two kinds, or attached twice —
// which keep registration order.
TEST(Snapshot, OrderMatchesRenderedLabels) {
  struct Series {
    std::string name;
    Labels labels;
    Kind kind;
  };
  const std::vector<std::string> names = {"m", "m.a", "m_b", "mm", "n", "m!"};
  const std::vector<std::string> keys = {"a", "a_b", "a=", "b"};
  const std::vector<std::string> values = {
      "", "x", "x!", "x\"", "x,", "x=", "x}", "xy", "y", "\xc3\xa9"};
  std::vector<Series> series;
  for (const std::string& n : names) {
    std::vector<Labels> sets = {{}};
    for (const std::string& k : keys) {
      for (const std::string& v : values) sets.push_back({{k, v}});
    }
    for (const std::string& v1 : values) {
      for (const std::string& v2 : values) {
        sets.push_back({{"a_b", v2}, {"a", v1}});
      }
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
      series.push_back({n, sets[i], Kind::counter});
      series.push_back({n, sets[i], Kind::gauge});
      // Every third set is attached once more, as a same-kind tie.
      if (i % 3 == 0) series.push_back({n, sets[i], Kind::histogram});
    }
  }
  std::mt19937_64 rng(7);
  std::shuffle(series.begin(), series.end(), rng);

  // Each series' value is its registration index; histograms stand for
  // attached counters.
  Registry r;
  std::deque<Counter> attached;
  for (std::size_t i = 0; i < series.size(); ++i) {
    Series& s = series[i];
    switch (s.kind) {
      case Kind::counter: r.counter(s.name, s.labels).inc(i); break;
      case Kind::gauge: r.gauge(s.name, s.labels).set(double(i)); break;
      case Kind::histogram:
        attached.emplace_back().inc(i);
        r.attach_counter(s.name, s.labels, &attached.back(), &attached);
        s.kind = Kind::counter;
        break;
    }
    std::sort(s.labels.begin(), s.labels.end());
  }
  ASSERT_GT(series.size(), 1500u);
  ASSERT_EQ(r.size(), series.size());

  std::vector<std::size_t> want(series.size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    if (series[a].name != series[b].name) return series[a].name < series[b].name;
    return render_labels(series[a].labels) < render_labels(series[b].labels);
  });

  const auto snap = r.snapshot();
  ASSERT_EQ(snap.points.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const MetricPoint& p = snap.points[i];
    const std::size_t got = p.kind == Kind::counter
                                ? static_cast<std::size_t>(p.counter)
                                : static_cast<std::size_t>(p.gauge);
    if (got != want[i] || p.kind != series[want[i]].kind) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "position " << i << ": got series " << got
                      << ", want " << want[i] << " (" << series[want[i]].name
                      << render_labels(series[want[i]].labels) << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  r.detach(&attached);
}

// ---------------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------------

sim::Task<void> traced_work(sim::SimEnv& env, Tracer& t) {
  const std::uint32_t outer_track = t.track("outer");
  const std::uint32_t inner_track = t.track("inner");
  Span outer = t.span(outer_track, "outer.op", "test");
  co_await env.delay(1000);
  {
    Span inner = t.span(inner_track, "inner.op", "test", "\"bytes\":42");
    co_await env.delay(500);
  }  // inner records here
  co_await env.delay(250);
  outer.end();
  t.instant(outer_track, "marker", "test");
}

TEST(Tracer, SpanNestingAndOrdering) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  sim::run_sync(env, traced_work(env, t));

  ASSERT_EQ(t.size(), 3u);
  // Spans record at end time: inner (ends t=1500) before outer (t=1750).
  const TraceEvent& inner = t.events()[0];
  const TraceEvent& outer = t.events()[1];
  const TraceEvent& marker = t.events()[2];
  EXPECT_EQ(inner.name, "inner.op");
  EXPECT_EQ(inner.start, 1000);
  EXPECT_EQ(inner.end, 1500);
  EXPECT_EQ(inner.args, "\"bytes\":42");
  EXPECT_EQ(outer.name, "outer.op");
  EXPECT_EQ(outer.start, 0);
  EXPECT_EQ(outer.end, 1750);
  // Nesting: outer strictly contains inner.
  EXPECT_LE(outer.start, inner.start);
  EXPECT_GE(outer.end, inner.end);
  EXPECT_EQ(marker.name, "marker");
  EXPECT_EQ(marker.start, marker.end);

  // Track ids are deterministic and deduplicated.
  EXPECT_EQ(t.track("outer"), outer.track);
  EXPECT_EQ(t.track("inner"), inner.track);
  EXPECT_NE(outer.track, inner.track);
}

TEST(Tracer, DisabledRecordsNothing) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);  // enabled_ stays false
  sim::run_sync(env, traced_work(env, t));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, ChromeJsonShape) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  sim::run_sync(env, traced_work(env, t));
  const std::string json = t.to_chrome_json();
  // Sorted by start: outer (ts 0) precedes inner (ts 1).
  const auto outer_pos = json.find("\"name\":\"outer.op\"");
  const auto inner_pos = json.find("\"name\":\"inner.op\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  // Thread-name metadata for both tracks.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  // Complete events carry microsecond durations (1500-1000 ns = 0.500 us).
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);
}

TEST(Tracer, TrackIdsFollowFirstUse) {
  // 7919 is coprime with the track count, so the names are distinct and
  // first used out of numeric order.
  constexpr std::uint32_t kTracks = 30000;
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < kTracks; ++i) {
    names.push_back("node" + std::to_string((i * 7919u) % kTracks) + "/disk");
  }
  Tracer t;
  std::size_t wrong = 0;
  for (std::uint32_t i = 0; i < kTracks; ++i) {
    if (t.track(names[i]) != i) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  for (std::uint32_t i = 0; i < kTracks; i += 97) {
    EXPECT_EQ(t.track(names[i]), i);
  }
  names.push_back("qcow2");
  EXPECT_EQ(t.track("qcow2"), kTracks);
  EXPECT_EQ(t.track(names[0]), 0u);

  // Thread-name metadata lists the tracks in id order.
  std::string want = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) want += ',';
    want += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(i) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + names[i] +
            "\"}}";
  }
  want += "]}";
  EXPECT_EQ(t.to_chrome_json(), want);
}

TEST(Hub, TracingHelperIsNullSafe) {
  EXPECT_FALSE(tracing(nullptr));
  Hub h;
  EXPECT_FALSE(tracing(&h));
  h.tracer.set_enabled(true);
  EXPECT_TRUE(tracing(&h));
}

TEST(Hub, MovedFromSpanIsInert) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  {
    Span a = t.span(t.track("x"), "op", "test");
    Span b = std::move(a);
    a.end();  // moved-from: no record
    b.end();
    b.end();  // second end: no double record
  }
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace vmic::obs
