// The benchmark's own checks: span self-time arithmetic, the tail
// percentile rule, and that the traced pass yields every per-layer metric
// (or n/a with a reason) on a shrunk copy of each workload.
//
//   perfbench_selftest     exits 1 and names each failed check

#include <cstdio>
#include <set>
#include <string>

#include "bench/layers.hpp"
#include "bench/workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::int64_t self_sum(const SpanRecorder& rec) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    sum += rec.self_ns(static_cast<int>(i));
  }
  return sum;
}

void span_arithmetic() {
  // Nested, disjoint children: every self time adds up to the root.
  SpanRecorder a;
  const int root = a.add("root", 0, 100, -1);
  const int c1 = a.add("c1", 10, 40, root);
  const int g = a.add("g", 15, 20, c1);
  const int c2 = a.add("c2", 50, 70, root);
  check(a.self_ns(root) == 50, "root self = 100 - 30 - 20");
  check(a.self_ns(c1) == 25, "child self = 30 - 5");
  check(a.self_ns(g) == 5 && a.self_ns(c2) == 20, "leaf self = duration");
  check(self_sum(a) == a.duration_ns(root),
        "children's self plus parent's self = parent duration");

  // Overlapping children count once; a child past the parent's end is
  // clipped to it.
  SpanRecorder b;
  const int r = b.add("root", 0, 100, -1);
  b.add("x", 10, 40, r);
  b.add("y", 35, 60, r);
  b.add("z", 90, 120, r);
  check(b.self_ns(r) == 40, "coverage is the clipped union of children");

  // A recorded timeline from real scopes obeys the same identity.
  SpanRecorder c;
  {
    Scoped outer(&c, "outer");
    {
      Scoped inner(&c, "inner");
      Scoped leaf(&c, "leaf");
    }
    Scoped second(&c, "second");
  }
  check(self_sum(c) == c.duration_ns(0), "recorded scopes: self times sum");
  check(c.to_chrome_json().find("\"ph\":\"X\"") != std::string::npos,
        "chrome trace has complete events");
}

void tail_rule() {
  check(tail_percentile(1000, {99, 95}) == 99, "n=1000 -> p99 (10 beyond)");
  check(tail_percentile(999, {99, 95}) == 95, "n=999 -> p95");
  check(tail_percentile(200, {99, 95}) == 95, "n=200 -> p95 (10 beyond)");
  check(tail_percentile(199, {99, 95}) == 50, "n=199 -> p50");
}

void layer_coverage() {
  const std::set<std::string> tier_metrics = {
      "dedup.local_hits", "peer.fallback_fills", "manifest.publishes",
      "update.reused_clusters", "qcow2.compressed_clusters"};
  for (const std::string& name : workload_names()) {
    std::optional<Workload> w = make_workload(name, 1, /*tiny=*/true);
    check(w.has_value(), name + ": known workload");
    if (!w) continue;
    generate_inputs(*w);
    const RunOutcome plain = run_once(*w);
    check(plain.gate_errors.empty(), name + ": untraced run passes the gate");
    check(plain.attempted > 0 && plain.failed == 0,
          name + ": operations attempted, none failed");
    const TracedReport tr = traced_run(*w, plain.wall_s);
    check(tr.run.gate_errors.empty(), name + ": traced run passes the gate");
    check(tr.run.digest == plain.digest,
          name + ": traced and untraced snapshots match");
    check(tr.metrics.size() == per_layer_catalog().size(),
          name + ": one entry per catalog metric");
    for (const LayerMetric& m : tr.metrics) {
      check(m.na != "not computed", name + ": " + m.name + " computed");
      if (name == "tiers-churn" && tier_metrics.count(m.name) != 0) {
        check(m.na.empty(), name + ": " + m.name + " applies");
      }
      if (name != "tiers-churn" && m.name == "dedup.local_hits") {
        check(!m.na.empty(), name + ": dedup metrics are n/a");
      }
      if (name == "storm-cold32" && m.name == "sim.events") {
        check(!m.na.empty(), name + ": sim.events is n/a");
      }
    }
  }
}

}  // namespace

int main() {
  span_arithmetic();
  tail_rule();
  layer_coverage();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
