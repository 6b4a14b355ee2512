#include "bench/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "boot/profile.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace vmic;

double now_s() { return static_cast<double>(SpanRecorder::now_ns()) * 1e-9; }

constexpr std::uint64_t kImageSequenceSeed = 42;

Workload storm(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "storm-cold32";
  w.storm = true;
  const int nodes = tiny ? 4 : 32;
  w.storm_cluster.compute_nodes = nodes;
  w.storm_cluster.network = net::gigabit_ethernet();
  w.storm_config.profile = boot::centos63();
  w.storm_config.profile.seed += seed;  // the boot trace
  w.storm_config.num_vms = nodes;
  w.storm_config.mode = cluster::CacheMode::compute_disk;
  w.storm_config.state = cluster::CacheState::cold;
  return w;
}

/// bench_engine_throughput's engine shape: per-VM weight shrunk so fleet
/// size and session count dominate.
Workload fleet(bool tiny) {
  Workload w;
  w.name = "fleet-10k";
  cloud::CloudConfig& c = w.cloud;
  c.cluster.compute_nodes = tiny ? 200 : 10000;
  c.cluster.node_cache_capacity = 8 * MiB;
  c.vm_slots_per_node = 4;
  boot::OsProfile p = boot::centos63();
  p.image_size = 1 * MiB;
  p.unique_read_bytes = 16 * KiB;
  p.cpu_seconds = 0.05;
  p.write_bytes = 4 * KiB;
  c.profile = p;
  c.cache_quota = 2 * MiB;
  c.cache_cluster_bits = 12;
  c.workload.num_vmis = 16;
  c.workload.mean_interarrival_s = 0.1;
  c.workload.min_lifetime_s = 20.0;
  c.workload.mean_extra_lifetime_s = 40.0;
  const int sessions = tiny ? 300 : 10000;
  c.horizon_s = 0.1 * sessions;
  return w;
}

/// bench_dedup_catalog's sibling catalog with every tier on, one restart
/// and rebase updates.
Workload tiers(bool tiny) {
  Workload w;
  w.name = "tiers-churn";
  cloud::CloudConfig& c = w.cloud;
  // 480 requests: p95 then has 24 samples beyond it. At 240, the ~12
  // slower deploys right after the restart sat exactly at p95 and the tail
  // flipped between two values from seed to seed.
  c.horizon_s = (tiny ? 0.05 : 1.2) * 3600.0;
  c.workload.num_vmis = 8;
  c.workload.zipf_exponent = 1.1;
  c.workload.mean_interarrival_s = 3600.0 / 400.0;
  // Lifetimes of 60 s + Exp(60 s) keep the 32 VM slots about 40% busy:
  // at bench_dedup_catalog's 300 s mean the slots saturate, and deploy
  // latency then measures the admission queue, which swings with every
  // seed, rather than the tier paths.
  c.workload.min_lifetime_s = 60.0;
  c.workload.mean_extra_lifetime_s = 60.0;
  c.cache_cluster_bits = 12;
  c.sibling_group_size = 4;
  c.shared_fraction = 0.75;
  c.profile.image_size = 64 * MiB;
  c.profile.unique_read_bytes = 8 * MiB;  // bench_dedup_catalog: 32 MiB
  // Memory guard: content is written host-side into every base image and
  // every published version. Whole-image content on the default 2 GiB
  // scaled images peaked at 12.6 GiB RSS with dedup+peer+compress, and
  // adding updates and a restart on top was OOM-killed. Images here are
  // 64 MiB, so whole-image content is bounded: 8 images x 64 MiB plus the
  // rewritten versions.
  c.content_bytes = c.profile.image_size;
  c.cache_quota = 32 * MiB;
  c.peer_transfer = true;
  c.dedup = true;
  c.cache_compress = true;
  c.manifest = true;
  c.restart_at_s = {c.horizon_s / 2};
  c.seed = 42;  // draws the update schedule, which stays fixed
  c.updates.enabled = true;
  c.updates.policy = update::Policy::rebase;
  c.updates.rate_per_hour = 8.0;
  c.updates.changed_frac = 0.10;
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"storm-cold32", "fleet-10k", "tiers-churn"};
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool tiny) {
  std::optional<Workload> w;
  if (name == "storm-cold32") w = storm(seed, tiny);
  else if (name == "fleet-10k") w = fleet(tiny);
  else if (name == "tiers-churn") w = tiers(tiny);
  if (w) {
    w->seed = seed;
    // The seed also picks the boot traces: same OS shapes, different read
    // patterns, so simulated times differ slightly from seed to seed.
    w->cloud.profile.seed += seed;
  }
  return w;
}

void generate_inputs(Workload& w) {
  if (w.storm) return;
  // The seed draws arrival times and lifetimes. Two things stay fixed so
  // the amount of work does not swing with it: the number of requests
  // (the Poisson stream runs past the horizon and is cut at its nominal
  // count; a Poisson count of 480 has a 4.6% standard deviation), and the
  // sequence of images they boot (one fixed Zipf draw), which decides how
  // many boots are cold.
  const auto count = static_cast<std::size_t>(
      std::lround(w.cloud.horizon_s / w.cloud.workload.mean_interarrival_s));
  Rng rng(w.seed);
  w.cloud.requests =
      cloud::generate_workload(w.cloud.workload, 2 * w.cloud.horizon_s, rng);
  if (w.cloud.requests.size() > count) w.cloud.requests.resize(count);
  const cloud::ZipfPicker zipf(w.cloud.workload.num_vmis,
                               w.cloud.workload.zipf_exponent);
  Rng catalog(kImageSequenceSeed);
  for (cloud::VmRequest& r : w.cloud.requests) r.vmi = zipf.pick(catalog);
}

double tail_percentile(std::size_t n, const std::vector<double>& candidates) {
  for (const double p : candidates) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank <= n && n - rank >= 10) return p;
  }
  return 50.0;
}

std::string digest_of(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

RunOutcome run_once(const Workload& w, SpanRecorder* rec) {
  RunOutcome o;
  if (w.storm) {
    Scoped call(rec, "cluster::run_scenario");
    const double t0 = now_s();
    cluster::ScenarioResult r =
        cluster::run_scenario(w.storm_cluster, w.storm_config);
    o.wall_s = now_s() - t0;
    call.close();
    // A VM whose deployment failed leaves its outcome slot default
    // (vm index 0, zero boot time).
    Samples deploy;
    o.attempted = w.storm_config.num_vms;
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
      const cluster::VmOutcome& vm = r.vms[i];
      if (vm.vm != static_cast<int>(i) || vm.boot.boot_seconds <= 0) {
        ++o.failed;
        continue;
      }
      deploy.add(vm.boot.boot_seconds +
                 (w.storm_config.include_transfer_in_boot
                      ? 0.0
                      : vm.cache_transfer_seconds));
    }
    o.failed += o.attempted - static_cast<int>(r.vms.size());
    if (o.failed > 0) {
      o.gate_errors.push_back(std::to_string(o.failed) +
                              " VM(s) have no outcome");
    }
    const std::size_t n = deploy.count();
    o.deploy_n = n;
    o.deploy_p50_s = deploy.percentile(50);
    // Exact for the storm: every sample is available.
    o.tail_percentile =
        n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
               : 50.0;
    o.deploy_tail_s = deploy.percentile(o.tail_percentile);
    o.storage_mib = static_cast<double>(r.storage_payload_bytes) / MiB;
    o.metrics = std::move(r.metrics);
    o.storm = std::move(r);
  } else {
    Scoped call(rec, "cloud::run_cloud");
    const double t0 = now_s();
    cloud::CloudResult r = cloud::run_cloud(w.cloud);
    o.wall_s = now_s() - t0;
    call.close();
    o.attempted = r.arrivals;
    o.failed = r.aborted + r.rejected;
    if (r.arrivals != r.completed + r.aborted + r.rejected) {
      o.gate_errors.push_back(
          "arrivals " + std::to_string(r.arrivals) + " != completed " +
          std::to_string(r.completed) + " + aborted " +
          std::to_string(r.aborted) + " + rejected " +
          std::to_string(r.rejected));
    }
    if (r.leaked_slots != 0) {
      o.gate_errors.push_back("leaked_slots " +
                              std::to_string(r.leaked_slots));
    }
    if (r.arrivals == 0) o.gate_errors.push_back("no arrivals");
    // CloudResult exposes p50/p95/p99 only: take the highest of those
    // with at least 10 samples beyond it.
    o.deploy_n = r.deploy.count;
    o.deploy_p50_s = r.deploy.p50;
    o.tail_percentile = tail_percentile(r.deploy.count, {99, 95});
    o.deploy_tail_s = o.tail_percentile == 99   ? r.deploy.p99
                      : o.tail_percentile == 95 ? r.deploy.p95
                                                : r.deploy.p50;
    o.storage_mib = static_cast<double>(r.storage_payload_bytes) / MiB;
    o.metrics = std::move(r.metrics);
    o.cloud = std::move(r);
  }
  Scoped render(rec, "obs::MetricsSnapshot::to_text");
  o.digest = digest_of(o.metrics.to_text());
  return o;
}

double setup_once(const Workload& w) {
  const double t0 = now_s();
  if (w.storm) {
    cluster::ScenarioConfig sc = w.storm_config;
    sc.num_vms = 0;
    (void)cluster::run_scenario(w.storm_cluster, sc);
  } else {
    Workload gen = w;
    generate_inputs(gen);
    cloud::CloudConfig c = w.cloud;
    c.requests.clear();
    c.horizon_s = 0;  // generates no arrivals and no update events
    c.restart_at_s.clear();
    (void)cloud::run_cloud(c);
  }
  return now_s() - t0;
}

}  // namespace perfbench
