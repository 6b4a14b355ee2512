// bench_engine_throughput — the million-VM sim core, measured. Two parts:
//
//  1. Scheduler microbench: a timer churn (a large pending population
//     with steady fire/reschedule plus far-future cancellations, the
//     shape a 10k-node cloud run produces) is driven through SimEnv's
//     calendar queue. Reports events/sec and the queue's work per event
//     (SimEnv::queue_work() / events); the work count is exact on every
//     host and build, and --max-work-per-event gates that insert/pop/
//     cancel stay O(1) amortized.
//
//  2. Engine workload: a full run_cloud() at --nodes compute nodes and
//     roughly --sessions arrivals (the CloudStress shape: tiny per-VM
//     weight so the run exercises the event core, the placement index
//     and the pooled allocators, not simulated disk bandwidth). Reports
//     end-to-end events/sec from CloudResult::sim_events and the
//     process peak RSS, gated by --min-events-per-sec / --max-rss-mib.
//
// Exits non-zero when any requested gate fails. --json-out writes the
// results stamped with the host (CPU model, processor count, compiler,
// build type), since the events/sec and RSS figures vary by machine.
//
//   bench_engine_throughput [--nodes N] [--sessions N]
//                           [--micro-pending N] [--micro-fires N]
//                           [--max-work-per-event X]
//                           [--min-events-per-sec X] [--max-rss-mib X]
//                           [--json-out FILE]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "boot/profile.hpp"
#include "cloud/engine.hpp"
#include "obs/metrics.hpp"
#include "sim/env.hpp"
#include "util/units.hpp"

namespace {

using namespace vmic;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Peak resident set in MiB (0 when the platform has no getrusage).
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0;
#endif
}

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// "model name" of the first processor in /proc/cpuinfo ("unknown" when
/// the file or field is missing).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string compiler_version() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() {
#ifdef VMIC_BUILD_TYPE
  std::string t = VMIC_BUILD_TYPE;
#else
  std::string t = "unknown";
#endif
#if defined(__SANITIZE_ADDRESS__)
  t += "+asan";
#endif
  return t;
}

/// `s` as a JSON string literal (quotes and backslashes escaped, control
/// bytes blanked).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

struct MicroResult {
  std::uint64_t events = 0;
  std::uint64_t queue_work = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double work_per_event = 0;
};

/// Drive the calendar queue through the synthetic churn.
MicroResult run_micro(std::size_t pending, std::uint64_t fires) {
  constexpr std::uint64_t kHorizon = 1 << 16;
  constexpr std::size_t kDoomedRing = 64;

  sim::SimEnv env;
  std::uint64_t rng = 0x5eed;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::vector<sim::SimEnv::TimerId> doomed(kDoomedRing, 0);
  std::size_t doomed_at = 0;
  std::uint64_t plants = 0;

  std::function<void()> on_fire = [&] {
    ++fired;
    if (scheduled < fires) {
      ++scheduled;
      env.call_at(env.now() + 1 + splitmix(rng) % kHorizon, on_fire);
    }
    // Cancellation churn: every 4th fire plants a far-future timer that
    // is guaranteed still pending when it is cancelled 64 plants later.
    if ((fired & 3u) == 0) {
      if (plants++ >= kDoomedRing) env.cancel(doomed[doomed_at]);
      doomed[doomed_at] = env.call_at(
          env.now() + 2 * kHorizon + splitmix(rng) % kHorizon, [] {});
      doomed_at = (doomed_at + 1) % kDoomedRing;
    }
  };

  const double t0 = now_s();
  for (std::size_t i = 0; i < pending; ++i) {
    ++scheduled;
    env.call_at(1 + splitmix(rng) % kHorizon, on_fire);
  }
  env.run();
  const double wall = now_s() - t0;

  MicroResult r;
  r.events = env.events_processed();
  r.queue_work = env.queue_work();
  r.wall_s = wall;
  r.events_per_sec = wall > 0 ? static_cast<double>(r.events) / wall : 0;
  r.work_per_event = r.events > 0 ? static_cast<double>(r.queue_work) /
                                        static_cast<double>(r.events)
                                  : 0;
  return r;
}

struct EngineResult {
  int arrivals = 0;
  int completed = 0;
  std::uint64_t sim_events = 0;
  double sim_seconds = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

/// The CloudStress shape: per-VM weight shrunk so fleet size and session
/// count dominate, i.e. the bench measures the event core and indexes.
EngineResult run_engine(int nodes, int sessions) {
  cloud::CloudConfig cfg;
  cfg.seed = 42;
  cfg.cluster.compute_nodes = nodes;
  cfg.cluster.node_cache_capacity = 8 * MiB;
  cfg.vm_slots_per_node = 4;
  boot::OsProfile p = boot::centos63();
  p.image_size = 1 * MiB;
  p.unique_read_bytes = 16 * KiB;
  p.cpu_seconds = 0.05;
  p.write_bytes = 4 * KiB;
  cfg.profile = p;
  cfg.cache_quota = 2 * MiB;
  cfg.cache_cluster_bits = 12;
  cfg.workload.num_vmis = 16;
  cfg.workload.mean_interarrival_s = 0.1;
  cfg.workload.min_lifetime_s = 20.0;
  cfg.workload.mean_extra_lifetime_s = 40.0;
  cfg.horizon_s = 0.1 * sessions;

  const double t0 = now_s();
  const cloud::CloudResult res = cloud::run_cloud(cfg);
  const double wall = now_s() - t0;

  EngineResult r;
  r.arrivals = res.arrivals;
  r.completed = res.completed;
  r.sim_events = res.sim_events;
  r.sim_seconds = res.sim_seconds;
  r.wall_s = wall;
  r.events_per_sec =
      wall > 0 ? static_cast<double>(res.sim_events) / wall : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 10000;
  int sessions = 100000;
  std::size_t micro_pending = 1u << 21;
  std::uint64_t micro_fires = 1u << 22;
  double max_work_per_event = 0;
  double min_events_per_sec = 0;
  double max_rss_mib = 0;
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--nodes") nodes = std::atoi(next());
    else if (a == "--sessions") sessions = std::atoi(next());
    else if (a == "--micro-pending") micro_pending = std::strtoull(next(), nullptr, 10);
    else if (a == "--micro-fires") micro_fires = std::strtoull(next(), nullptr, 10);
    else if (a == "--max-work-per-event") max_work_per_event = std::atof(next());
    else if (a == "--min-events-per-sec") min_events_per_sec = std::atof(next());
    else if (a == "--max-rss-mib") max_rss_mib = std::atof(next());
    else if (a == "--json-out") json_out = next();
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  std::printf("== scheduler micro: %zu pending, %llu fires ==\n",
              micro_pending,
              static_cast<unsigned long long>(micro_fires));
  const MicroResult cal = run_micro(micro_pending, micro_fires);
  std::printf("  calendar: %10.0f events/s  (%.2fs, %llu events)\n",
              cal.events_per_sec, cal.wall_s,
              static_cast<unsigned long long>(cal.events));
  std::printf("  queue work: %llu (%.3f per event)\n",
              static_cast<unsigned long long>(cal.queue_work),
              cal.work_per_event);

  std::printf("== engine: %d nodes, ~%d sessions ==\n", nodes, sessions);
  const EngineResult eng = run_engine(nodes, sessions);
  const double rss = peak_rss_mib();
  std::printf(
      "  arrivals=%d completed=%d sim_events=%llu sim_s=%.0f wall=%.2fs\n",
      eng.arrivals, eng.completed,
      static_cast<unsigned long long>(eng.sim_events), eng.sim_seconds,
      eng.wall_s);
  std::printf("  engine:   %10.0f events/s   peak_rss=%.0f MiB\n",
              eng.events_per_sec, rss);

  bool pass = true;
  auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      pass = false;
    }
  };
  if (max_work_per_event > 0) {
    gate(cal.work_per_event <= max_work_per_event, "queue work per event");
  }
  if (min_events_per_sec > 0) {
    gate(eng.events_per_sec >= min_events_per_sec, "engine events/sec floor");
  }
  if (max_rss_mib > 0 && rss > 0) gate(rss <= max_rss_mib, "peak RSS ceiling");

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"host\": {\n"
                 "    \"cpu\": %s,\n"
                 "    \"nproc\": %u,\n"
                 "    \"compiler\": %s,\n"
                 "    \"build_type\": %s\n"
                 "  },\n"
                 "  \"scheduler_micro\": {\n"
                 "    \"pending\": %zu,\n"
                 "    \"fires\": %llu,\n"
                 "    \"events\": %llu,\n"
                 "    \"queue_work\": %llu,\n"
                 "    \"work_per_event\": %.4f,\n"
                 "    \"events_per_sec\": %.1f\n"
                 "  },\n"
                 "  \"engine\": {\n"
                 "    \"nodes\": %d,\n"
                 "    \"sessions\": %d,\n"
                 "    \"arrivals\": %d,\n"
                 "    \"completed\": %d,\n"
                 "    \"sim_events\": %llu,\n"
                 "    \"sim_seconds\": %.1f,\n"
                 "    \"wall_s\": %.3f,\n"
                 "    \"events_per_sec\": %.1f,\n"
                 "    \"peak_rss_mib\": %.1f\n"
                 "  },\n"
                 "  \"gate\": {\n"
                 "    \"max_work_per_event\": %.2f,\n"
                 "    \"min_events_per_sec\": %.1f,\n"
                 "    \"max_rss_mib\": %.1f,\n"
                 "    \"pass\": %s\n"
                 "  }\n"
                 "}\n",
                 json_str(cpu_model()).c_str(),
                 std::thread::hardware_concurrency(),
                 json_str(compiler_version()).c_str(),
                 json_str(build_type()).c_str(), micro_pending,
                 static_cast<unsigned long long>(micro_fires),
                 static_cast<unsigned long long>(cal.events),
                 static_cast<unsigned long long>(cal.queue_work),
                 cal.work_per_event, cal.events_per_sec, nodes, sessions,
                 eng.arrivals, eng.completed,
                 static_cast<unsigned long long>(eng.sim_events),
                 eng.sim_seconds, eng.wall_s, eng.events_per_sec, rss,
                 max_work_per_event, min_events_per_sec, max_rss_mib,
                 pass ? "true" : "false");
    std::fclose(f);
  }

  return pass ? 0 : 1;
}
