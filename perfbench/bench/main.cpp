// perfbench — one workload per process, so peak RSS belongs to it alone.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --list           workload names, then per-layer metrics
//
// --trace 0: set up the workload several times (median = setup_s), then
// repeat the measured call while the next repetition is expected to end
// within S seconds (median = wall_s).
// --trace 1: one untraced call, then the same call inside spans plus the
// per-layer pass; the span trace goes to --trace-out.
//
// Prints one JSON report line; exits 1 when the correctness gate fails
// (unbalanced arrivals, leaked slots, a VM without an outcome, or a
// metrics snapshot that differs between repetitions of the same input).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/layers.hpp"
#include "bench/workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up is repeated at least this many times, and until this much time
/// has gone, for its median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupSeconds = 2.0;

double now_s() { return static_cast<double>(SpanRecorder::now_ns()) * 1e-9; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string esc(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    out += out.empty() ? "[" : ",";
    out += num(x);
  }
  return out.empty() ? "[]" : out + "]";
}

void metric(std::string& out, const std::string& name, double value,
            const std::string& unit, const std::string& extra = {}) {
  if (out.back() != '{') out += ',';
  out += "\"" + name + "\":{\"value\":" + num(value) + ",\"unit\":\"" + unit +
         "\"" + extra + "}";
}

std::string report(const std::string& mode, const Workload& w,
                   const RunOutcome& o, const std::string& metrics,
                   const std::string& extra) {
  std::string errs = "[";
  for (const auto& e : o.gate_errors) {
    errs += (errs.size() > 1 ? ",\"" : "\"") + esc(e) + "\"";
  }
  errs += "]";
  return "{\"mode\":\"" + mode + "\",\"workload\":\"" + w.name +
         "\",\"seed\":" + std::to_string(w.seed) +
         ",\"correct\":" + (o.gate_errors.empty() ? "true" : "false") +
         ",\"gate_errors\":" + errs + ",\"attempted\":" +
         std::to_string(o.attempted) + ",\"failed\":" +
         std::to_string(o.failed) + ",\"digest\":\"" + o.digest +
         "\",\"metrics\":" + metrics + extra + "}";
}

std::string sim_metrics(const RunOutcome& o) {
  std::string m = "{";
  metric(m, "deploy_p50_s", o.deploy_p50_s, "s",
         ",\"n\":" + std::to_string(o.deploy_n));
  metric(m, "deploy_tail_s", o.deploy_tail_s, "s",
         ",\"percentile\":" + num(o.tail_percentile) +
             ",\"n\":" + std::to_string(o.deploy_n));
  metric(m, "storage_mib", o.storage_mib, "MiB");
  return m;
}

int run_e2e(Workload& w, double seconds) {
  // One untimed repetition first: it faults in the heap the later ones
  // reuse, and its snapshot is the reference the timed ones must match.
  generate_inputs(w);
  RunOutcome first = run_once(w);

  std::vector<double> setups;
  const double s0 = now_s();
  while (setups.size() < kMinSetupReps ||
         (setups.size() < kMaxSetupReps && now_s() - s0 < kSetupSeconds)) {
    setups.push_back(setup_once(w));
  }

  // The median so far predicts the next repetition: stopping before one
  // would overrun keeps a run near S seconds however long a call takes.
  std::vector<double> walls;
  const double t0 = now_s();
  do {
    const RunOutcome o = run_once(w);
    walls.push_back(o.wall_s);
    if (o.digest != first.digest) {
      first.gate_errors.push_back("metrics digest differs between repetitions: " +
                                  first.digest + " vs " + o.digest);
    }
  } while (now_s() - t0 + median(walls) <= seconds);

  std::string m = sim_metrics(first);
  metric(m, "wall_s", median(walls), "s",
         ",\"reps\":" + std::to_string(walls.size()) + ",\"each\":" + list(walls));
  metric(m, "setup_s", median(setups), "s",
         ",\"reps\":" + std::to_string(setups.size()) + ",\"each\":" + list(setups));
  metric(m, "peak_rss_mib", peak_rss_mib(), "MiB");
  m += "}";
  std::printf("%s\n", report("e2e", w, first, m, "").c_str());
  return first.gate_errors.empty() ? 0 : 1;
}

int run_traced(Workload& w, const std::string& trace_out) {
  generate_inputs(w);
  const RunOutcome plain = run_once(w);
  TracedReport tr = traced_run(w, plain.wall_s);
  RunOutcome& o = tr.run;
  for (const auto& e : plain.gate_errors) o.gate_errors.push_back(e);
  if (o.digest != plain.digest) {
    o.gate_errors.push_back("traced run's metrics digest " + o.digest +
                            " differs from the untraced run's " + plain.digest);
  }
  std::string m = "{";
  std::string na = "{";
  for (const LayerMetric& lm : tr.metrics) {
    metric(m, lm.name, lm.value, lm.unit);
    if (lm.na.empty()) continue;
    if (lm.na == "not computed") {
      o.gate_errors.push_back("per-layer metric " + lm.name + " not computed");
    }
    na += (na.size() > 1 ? ",\"" : "\"") + lm.name + "\":\"" + esc(lm.na) + "\"";
  }
  m += "}";
  na += "}";
  // Self time per span, so the report alone says where the pass spent it.
  std::string self = "{";
  for (std::size_t i = 0; i < tr.spans.spans().size(); ++i) {
    const int id = static_cast<int>(i);
    self += (self.size() > 1 ? ",\"" : "\"") + esc(tr.spans.at(id).name) +
            "\":" + num(static_cast<double>(tr.spans.self_ns(id)) * 1e-9);
  }
  self += "}";
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    f << tr.spans.to_chrome_json();
    if (!f) o.gate_errors.push_back("cannot write " + trace_out);
  }
  std::printf("%s\n",
              report("trace", w, o, m,
                     ",\"na\":" + na + ",\"span_self_s\":" + self +
                         ",\"sim\":" + sim_metrics(o) + "}")
                  .c_str());
  return o.gate_errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const auto& n : workload_names()) std::printf("workload %s\n", n.c_str());
      for (const auto& [n, u] : per_layer_catalog()) {
        std::printf("per_layer %s %s\n", n.c_str(), u.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else if (a == "--trace-out") trace_out = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  // Keep freed memory in the heap: with glibc's adaptive mmap threshold,
  // each repetition otherwise re-faults a shrinking share of its pages and
  // the first few run measurably slower than the rest.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::optional<Workload> w = make_workload(workload, seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  return trace != 0 ? run_traced(*w, trace_out) : run_e2e(*w, seconds);
}
