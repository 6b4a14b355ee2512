#include "bench/layers.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>

#include "boot/trace.hpp"
#include "boot/vm.hpp"
#include "cluster/cluster.hpp"
#include "dedup/index.hpp"
#include "manifest/manifest.hpp"
#include "net/link.hpp"
#include "obs/hub.hpp"
#include "qcow2/chain.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/compress.hpp"
#include "util/rng.hpp"
#include "util/sparse_buffer.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace vmic;

double now_s() { return static_cast<double>(SpanRecorder::now_ns()) * 1e-9; }

/// Heap bytes in use: the part of RSS a layer's objects own.
double heap_mib() {
  return static_cast<double>(mallinfo2().uordblks) / static_cast<double>(MiB);
}

template <typename T>
T clamp_ops(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

// --- snapshot readers --------------------------------------------------------

double total(const obs::MetricsSnapshot& s, std::string_view name) {
  return static_cast<double>(s.counter_total(name));
}

/// Sum of counters `name` whose label `key` is in `values`.
double total_where(const obs::MetricsSnapshot& s, std::string_view name,
                   const std::string& key, const std::set<std::string>& values) {
  double sum = 0;
  for (const auto& p : s.points) {
    if (p.name != name || p.kind != obs::Kind::counter) continue;
    for (const auto& [k, v] : p.labels) {
      if (k == key && values.count(v) != 0) sum += static_cast<double>(p.counter);
    }
  }
  return sum;
}

double gauge_max(const obs::MetricsSnapshot& s, std::string_view name) {
  double m = 0;
  for (const auto& p : s.points) {
    if (p.name == name && p.kind == obs::Kind::gauge) m = std::max(m, p.gauge);
  }
  return m;
}

double gauge_sum(const obs::MetricsSnapshot& s, std::string_view name) {
  double sum = 0;
  for (const auto& p : s.points) {
    if (p.name == name && p.kind == obs::Kind::gauge) sum += p.gauge;
  }
  return sum;
}

double storage0(const obs::MetricsSnapshot& s, const std::string& name,
                const std::string& medium) {
  const obs::MetricPoint* p =
      s.find(name, {{"medium", medium}, {"node", "storage0"}});
  return p != nullptr ? static_cast<double>(p->counter) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- layer pass: each drives one layer's public functions -----------------

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Compressible stand-in for the sibling content model: a 32-byte
/// pattern tiled across the block plus one raw stamp.
void fill_pattern(std::span<std::uint8_t> out, std::uint64_t seed) {
  std::uint8_t pat[32];
  for (std::uint8_t& b : pat) b = static_cast<std::uint8_t>(splitmix(seed));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = pat[i % 32];
  if (out.size() >= 8) {
    const std::uint64_t stamp = splitmix(seed);
    std::memcpy(out.data(), &stamp, 8);
  }
}

/// SimEnv call_at / cancel / run: a steady pending population where each
/// fire schedules the next and every 8th plants a far-future timer that
/// is cancelled 64 plants later. Returns host ns per fired event.
double sim_pass(std::uint64_t events) {
  constexpr std::uint64_t kHorizon = 1 << 16;
  sim::SimEnv env;
  std::uint64_t rng = 0x5eed;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::vector<sim::SimEnv::TimerId> doomed(64, 0);
  std::size_t at = 0;
  std::uint64_t plants = 0;
  std::function<void()> on_fire = [&] {
    ++fired;
    if (scheduled < events) {
      ++scheduled;
      env.call_at(env.now() + 1 + static_cast<sim::SimTime>(splitmix(rng) % kHorizon),
                  on_fire);
    }
    if ((fired & 7u) == 0) {
      if (plants++ >= doomed.size()) env.cancel(doomed[at]);
      doomed[at] = env.call_at(
          env.now() + 2 * kHorizon +
              static_cast<sim::SimTime>(splitmix(rng) % kHorizon),
          [] {});
      at = (at + 1) % doomed.size();
    }
  };
  const std::uint64_t pending = std::min<std::uint64_t>(events, 16384);
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < pending; ++i) {
    ++scheduled;
    env.call_at(1 + static_cast<sim::SimTime>(splitmix(rng) % kHorizon), on_fire);
  }
  env.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(env.events_processed());
}

struct Qcow2Pass {
  double open_us = 0;        ///< cow->cache->base chain open + close, hub bound
  double open_us_nohub = 0;  ///< the same with no obs hub
  double cor_read_s = 0;     ///< boot-trace replay through a cold cache
  double warm_read_s = 0;    ///< the same replay through the warmed cache
  double heap_mib_per_chain = 0;
  bool ok = true;
};

sim::Task<void> qcow2_body(sim::SimEnv& env, storage::SimDirectory& dir,
                           obs::Hub& hub, const boot::OsProfile& profile,
                           std::uint32_t cluster_bits, std::uint64_t quota,
                           const boot::BootTrace& trace, int opens,
                           SpanRecorder& rec, Qcow2Pass& out) {
  const qcow2::ChainImageOptions cache_opt{.cluster_bits = cluster_bits,
                                           .virtual_size = profile.image_size};
  const qcow2::ChainImageOptions cow_opt{.cluster_bits = 16,
                                         .virtual_size = profile.image_size};
  out.ok = (co_await qcow2::create_cache_image(dir, "cache", "base", quota,
                                               cache_opt)).ok() &&
           (co_await qcow2::create_cow_image(dir, "cold.cow", "cache",
                                             cow_opt)).ok() &&
           (co_await qcow2::create_cow_image(dir, "warm.cow", "cache",
                                             cow_opt)).ok();
  if (!out.ok) co_return;

  for (const bool warm : {false, true}) {
    Scoped sp(&rec, warm ? "qcow2.warm_read" : "qcow2.cor_read");
    auto dev = co_await qcow2::open_image(dir, warm ? "warm.cow" : "cold.cow",
                                          true, false, &hub);
    if (!dev.ok()) {
      out.ok = false;
      co_return;
    }
    const double t0 = now_s();
    out.ok = out.ok && (co_await boot::boot_vm(env, **dev, trace)).ok();
    (warm ? out.warm_read_s : out.cor_read_s) = now_s() - t0;
    out.ok = out.ok && (co_await (*dev)->close()).ok();
  }

  for (const bool bound : {true, false}) {
    Scoped sp(&rec, bound ? "qcow2.open_close" : "obs.open_close_unbound");
    const double t0 = now_s();
    for (int i = 0; i < opens; ++i) {
      auto dev = co_await qcow2::open_image(dir, "warm.cow", true, false,
                                            bound ? &hub : nullptr);
      if (!dev.ok()) {
        out.ok = false;
        co_return;
      }
      out.ok = out.ok && (co_await (*dev)->close()).ok();
    }
    (bound ? out.open_us : out.open_us_nohub) =
        (now_s() - t0) * 1e6 / static_cast<double>(opens);
  }

  // Memory held per open chain: hold several read-only warm chains at once.
  constexpr int kHeld = 16;
  std::vector<block::DevicePtr> held;
  const double before = heap_mib();
  for (int i = 0; i < kHeld; ++i) {
    auto dev = co_await qcow2::open_image(dir, "warm.cow", false, true, &hub);
    if (!dev.ok()) {
      out.ok = false;
      break;
    }
    held.push_back(std::move(*dev));
  }
  out.heap_mib_per_chain = (heap_mib() - before) / kHeld;
  for (auto& d : held) (void)co_await d->close();
}

Qcow2Pass qcow2_pass(const boot::OsProfile& profile, std::uint32_t cluster_bits,
                     std::uint64_t quota, const boot::BootTrace& trace,
                     int opens, SpanRecorder& rec) {
  sim::SimEnv env;
  storage::MemMedium mem(env);
  storage::SimDirectory dir(mem, /*sync_writes=*/false);
  obs::Hub hub;
  hub.tracer.bind(&env);
  (void)dir.create_file("base");
  (*dir.buffer("base"))->resize(profile.image_size);
  Qcow2Pass out;
  sim::run_sync(env, qcow2_body(env, dir, hub, profile, cluster_bits, quota,
                                trace, opens, rec, out));
  return out;
}

/// SparseBuffer::write of `chunk`-sized blocks, zero or patterned, cycling
/// over a 64 MiB window. Returns ns per KiB written.
double sparse_pass(std::uint64_t chunk, bool content, std::uint64_t bytes) {
  std::vector<std::uint8_t> data(chunk, 0);
  if (content) fill_pattern(data, 0xc0ffee);
  SparseBuffer buf;
  constexpr std::uint64_t kWindow = 64 * MiB;
  const double t0 = now_s();
  std::uint64_t off = 0;
  for (std::uint64_t done = 0; done < bytes; done += chunk) {
    buf.write(off, data);
    off = (off + chunk) % kWindow;
  }
  return (now_s() - t0) * 1e9 / (static_cast<double>(bytes) / KiB);
}

/// util::lzss_compress over patterned clusters. Returns input MiB/s.
double lzss_pass(std::uint64_t chunk, std::uint64_t bytes) {
  std::vector<std::uint8_t> src(chunk);
  std::vector<std::uint8_t> dst(chunk);
  std::uint64_t seed = 1;
  std::size_t sink = 0;
  const double t0 = now_s();
  for (std::uint64_t done = 0; done < bytes; done += chunk) {
    fill_pattern(src, ++seed);
    sink += lzss_compress(src, dst, chunk - 512);
  }
  const double dt = now_s() - t0;
  return sink > 0 ? static_cast<double>(bytes) / MiB / dt : 0.0;
}

sim::Task<void> flow(net::Link& link, std::uint64_t bytes, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await link.transfer(bytes);
}

/// net::Link::transfer at `flows` concurrent flows. Returns ns/transfer.
double net_pass(int flows, std::uint64_t bytes, std::uint64_t transfers) {
  sim::SimEnv env;
  const net::NetworkParams np = net::gigabit_ethernet();
  net::Link link(env, np.bandwidth_Bps, np.latency, "pass");
  const std::uint64_t per = std::max<std::uint64_t>(1, transfers / flows);
  for (int f = 0; f < flows; ++f) env.spawn(flow(link, bytes, per));
  const double t0 = now_s();
  env.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(per * flows);
}

/// dedup::FingerprintIndex add / find / remove_image. Returns ns per op.
double dedup_pass(std::uint64_t ops, int images) {
  dedup::FingerprintIndex idx;
  std::vector<std::string> names;
  for (int i = 0; i < images; ++i) names.push_back("img-" + std::to_string(i));
  const std::uint64_t adds = ops / 2;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < adds; ++i) {
    std::uint64_t k = i % (adds / 2 + 1);  // half the content is shared
    idx.add(splitmix(k), names[i % names.size()], i);
  }
  for (std::uint64_t i = 0; i < ops - adds; ++i) {
    std::uint64_t k = i;  // about half the finds hit
    (void)idx.find(splitmix(k));
  }
  for (const std::string& n : names) idx.remove_image(n);
  return (now_s() - t0) * 1e9 / static_cast<double>(ops);
}

sim::Task<void> manifest_body(manifest::Store& store, manifest::NodeManifest m,
                              int publishes, bool& ok) {
  for (int i = 0; i < publishes && ok; ++i) {
    ok = (co_await store.publish(m)).ok();
  }
  auto loaded = co_await store.load();
  ok = ok && loaded.ok() && loaded->has_value() &&
       (*loaded)->entries.size() == m.entries.size();
}

/// manifest::Store publish x N then load. Returns us per publish.
double manifest_pass(int entries, int publishes, bool& ok) {
  sim::SimEnv env;
  storage::MemMedium mem(env);
  storage::SimDirectory dir(mem, /*sync_writes=*/true);
  manifest::Store store(&dir, "manifest");
  manifest::NodeManifest m;
  for (int i = 0; i < entries; ++i) {
    manifest::CacheEntry e;
    e.image = "img-" + std::to_string(i);
    e.cache_file = "disk/cache-" + std::to_string(i) + ".qcow2";
    e.bytes = 24 * MiB;
    e.fill_generation = 3;
    for (std::uint64_t x = 0; x < 4; ++x) {
      e.coverage.emplace_back(x * 4 * MiB, x * 4 * MiB + MiB);
    }
    m.entries.push_back(std::move(e));
  }
  ok = true;
  const double t0 = now_s();
  sim::run_sync(env, manifest_body(store, m, publishes, ok));
  return (now_s() - t0) * 1e6 / publishes;
}

// --- report assembly ----------------------------------------------------------

class Report {
 public:
  void set(const std::string& name, double v) { vals_[name] = {v, ""}; }
  void na(const std::string& name, const std::string& why) {
    vals_[name] = {0.0, why};
  }
  /// Counter that exists only when a tier is on.
  void tier(const obs::MetricsSnapshot& s, const std::string& name,
            const std::string& metric, bool on, const std::string& why) {
    if (on) set(name, total(s, metric));
    else na(name, why);
  }

  std::vector<LayerMetric> finish() const {
    std::vector<LayerMetric> out;
    for (const auto& [name, unit] : per_layer_catalog()) {
      auto it = vals_.find(name);
      LayerMetric m{name, unit, 0.0, "not computed"};
      if (it != vals_.end()) {
        m.value = it->second.first;
        m.na = it->second.second;
      }
      out.push_back(std::move(m));
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> vals_;
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.est_share", "ratio"},
      {"obs.series", "count"},
      {"obs.bind_us_per_open", "us"},
      {"obs.est_share", "ratio"},
      {"cluster.build_s", "s"},
      {"cluster.rss_mib", "MiB"},
      {"cluster.est_share", "ratio"},
      {"qcow2.cor_fills", "count"},
      {"qcow2.cor_bytes", "B"},
      {"qcow2.cor.inflight_waits", "count"},
      {"qcow2.alloc_lock_waits", "count"},
      {"qcow2.compressed_clusters", "count"},
      {"qcow2.open_us", "us"},
      {"qcow2.cor_read_s", "s"},
      {"qcow2.warm_read_s", "s"},
      {"qcow2.rss_mib_per_device", "MiB"},
      {"qcow2.est_share", "ratio"},
      {"util.sparse_write_ns_per_kib", "ns/KiB"},
      {"util.lzss_mib_per_s", "MiB/s"},
      {"util.est_share", "ratio"},
      {"net.link.transfers", "count"},
      {"net.link.peak_flows", "count"},
      {"net.ns_per_transfer", "ns"},
      {"net.est_share", "ratio"},
      {"nfs.read_rpcs", "count"},
      {"nfs.bytes_per_read_rpc", "B"},
      {"storage.reads", "count"},
      {"storage.positioning_ops", "count"},
      {"storage.page_cache.hit_ratio", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.pool.evictions", "count"},
      {"dedup.local_hits", "count"},
      {"dedup.peer_hits", "count"},
      {"dedup.zero_fills", "count"},
      {"dedup.fallbacks", "count"},
      {"dedup.hit_ratio", "ratio"},
      {"dedup.index_ns_per_op", "ns"},
      {"dedup.est_share", "ratio"},
      {"peer.seed_hits", "count"},
      {"peer.fallback_fills", "count"},
      {"peer.timeouts", "count"},
      {"peer.hit_ratio", "ratio"},
      {"manifest.publishes", "count"},
      {"cloud.adopt.ok", "count"},
      {"cloud.adopt.failed", "count"},
      {"manifest.publish_us", "us"},
      {"manifest.est_share", "ratio"},
      {"update.patched_clusters", "count"},
      {"update.reused_clusters", "count"},
      {"update.reuse_ratio", "ratio"},
      {"boot.trace_gen_s", "s"},
      {"cloud.queue_wait_tail_s", "s"},
      {"cloud.prepare_tail_s", "s"},
      {"cloud.retries", "count"},
      {"cloud.peak_queue_depth", "count"},
      {"cloud.workload_gen_s", "s"},
      {"bench.trace_overhead_s", "s"},
  };
  return kCatalog;
}

TracedReport traced_run(const Workload& w, double untraced_wall_s) {
  TracedReport tr;
  SpanRecorder& rec = tr.spans;
  Report r;
  Scoped root(&rec, "perfbench.traced:" + w.name);

  // Calls into modules, as the run makes them.
  const cluster::ClusterParams& cp = w.storm ? w.storm_cluster : w.cloud.cluster;
  const boot::OsProfile& profile =
      w.storm ? w.storm_config.profile : w.cloud.profile;
  const int num_vmis = w.storm ? w.storm_config.num_vmis : w.cloud.workload.num_vmis;
  if (!w.storm) {
    Scoped sp(&rec, "cloud::generate_workload");
    Workload gen = w;
    generate_inputs(gen);
    sp.close();
    r.set("cloud.workload_gen_s", rec.seconds(sp.id()));
  }
  std::vector<boot::BootTrace> traces;
  {
    Scoped sp(&rec, "boot::generate_boot_trace");
    for (int v = 0; v < num_vmis; ++v) {
      traces.push_back(
          boot::generate_boot_trace(profile, static_cast<std::uint64_t>(v)));
    }
    sp.close();
    r.set("boot.trace_gen_s", rec.seconds(sp.id()));
  }
  double build_s = 0;
  {
    Scoped sp(&rec, "cluster::Cluster");
    const double before = heap_mib();
    auto cl = std::make_unique<cluster::Cluster>(cp);
    r.set("cluster.rss_mib", heap_mib() - before);
    cl.reset();
    sp.close();
    build_s = rec.seconds(sp.id());
    r.set("cluster.build_s", build_s);
  }
  tr.run = run_once(w, &rec);
  const double wall = tr.run.wall_s;
  r.set("bench.trace_overhead_s", wall - untraced_wall_s);
  r.set("cluster.est_share", ratio(build_s, wall));

  const obs::MetricsSnapshot& s = tr.run.metrics;
  const cloud::CloudResult* c = tr.run.cloud ? &*tr.run.cloud : nullptr;

  // Exact counts from the snapshot / result.
  r.set("obs.series", static_cast<double>(s.points.size()));
  r.set("qcow2.cor_fills", total(s, "qcow2.cor_fills"));
  r.set("qcow2.cor_bytes", total(s, "qcow2.cor_bytes"));
  r.set("qcow2.cor.inflight_waits", total(s, "qcow2.cor.inflight_waits"));
  r.set("qcow2.alloc_lock_waits", total(s, "qcow2.alloc_lock_waits"));
  const bool compress = !w.storm && w.cloud.cache_compress;
  r.tier(s, "qcow2.compressed_clusters", "qcow2.compressed.clusters", compress,
         "cache compression is off in this workload");
  const double transfers = total(s, "net.link.transfers");
  r.set("net.link.transfers", transfers);
  r.set("net.link.peak_flows", gauge_max(s, "net.link.peak_flows"));
  const double rpcs = total(s, "nfs.server.read_rpcs");
  r.set("nfs.read_rpcs", rpcs);
  const obs::MetricPoint* rpc_bytes =
      s.find("nfs.server.read_rpc_bytes", {{"node", "storage0"}});
  r.set("nfs.bytes_per_read_rpc",
        rpc_bytes != nullptr ? ratio(rpc_bytes->sum, rpcs) : 0.0);
  r.set("storage.reads", storage0(s, "storage.reads", "disk"));
  r.set("storage.positioning_ops", storage0(s, "storage.positioning_ops", "disk"));
  const double pc_hits = storage0(s, "storage.page_cache.hits", "disk+pagecache");
  r.set("storage.page_cache.hit_ratio",
        ratio(pc_hits, pc_hits + storage0(s, "storage.page_cache.misses",
                                          "disk+pagecache")));
  r.set("cache.pool.evictions", total(s, "cache.pool.evictions"));

  double chains = 0;
  double cold_boots = 0;
  double warm_boots = 0;
  if (c != nullptr) {
    r.set("sim.events", static_cast<double>(c->sim_events));
    r.set("cache.hit_ratio", c->cache_hit_ratio);
    const auto tail = [](const cloud::LatencyStats& l) {
      const double p = tail_percentile(l.count, {99, 95});
      return p == 99 ? l.p99 : p == 95 ? l.p95 : l.p50;
    };
    r.set("cloud.queue_wait_tail_s", tail(c->queue_wait));
    r.set("cloud.prepare_tail_s", tail(c->prepare));
    r.set("cloud.retries", c->retries);
    r.set("cloud.peak_queue_depth", static_cast<double>(c->peak_queue_depth));
    chains = c->completed + c->retries;
    warm_boots = c->warm_hits;
    cold_boots = c->completed - c->warm_hits;
  } else {
    const std::string why = "run_scenario does not expose ";
    r.na("sim.events", why + "its SimEnv event count");
    r.na("sim.est_share", why + "its SimEnv event count");
    r.set("cache.hit_ratio", 0.0);  // a cold storm has no warm hits
    for (const char* m : {"cloud.queue_wait_tail_s", "cloud.prepare_tail_s",
                          "cloud.retries", "cloud.peak_queue_depth",
                          "cloud.workload_gen_s"}) {
      r.na(m, "a storm has no admission queue or request stream");
    }
    chains = w.storm_config.num_vms;
    cold_boots = w.storm_config.num_vms;
  }
  const bool dedup = !w.storm && w.cloud.dedup;
  const bool peer = !w.storm && w.cloud.peer_transfer;
  const bool mani = !w.storm && w.cloud.manifest;
  const bool upd = !w.storm && w.cloud.updates.enabled;
  for (const char* m : {"dedup.local_hits", "dedup.peer_hits",
                        "dedup.zero_fills", "dedup.fallbacks"}) {
    r.tier(s, m, m, dedup, "dedup is off in this workload");
  }
  const double dd_useful = total(s, "dedup.local_hits") +
                           total(s, "dedup.peer_hits") +
                           total(s, "dedup.zero_fills");
  const double dd_attempts = dd_useful + total(s, "dedup.fallbacks");
  if (dedup) r.set("dedup.hit_ratio", ratio(dd_useful, dd_attempts));
  else r.na("dedup.hit_ratio", "dedup is off in this workload");
  for (const char* m : {"peer.seed_hits", "peer.fallback_fills", "peer.timeouts"}) {
    r.tier(s, m, m, peer, "the peer tier is off in this workload");
  }
  const double seed_hits = total(s, "peer.seed_hits");
  if (peer) {
    r.set("peer.hit_ratio",
          ratio(seed_hits, seed_hits + total(s, "peer.fallback_fills")));
  } else {
    r.na("peer.hit_ratio", "the peer tier is off in this workload");
  }
  r.tier(s, "manifest.publishes", "manifest.publishes", mani,
         "the manifest is off in this workload");
  r.tier(s, "cloud.adopt.ok", "cloud.adopt.ok", mani,
         "the manifest is off in this workload");
  r.tier(s, "cloud.adopt.failed", "cloud.adopt.failed", mani,
         "the manifest is off in this workload");
  r.tier(s, "update.patched_clusters", "update.rebase.patched_clusters", upd,
         "image updates are off in this workload");
  r.tier(s, "update.reused_clusters", "update.rebase.reused_clusters", upd,
         "image updates are off in this workload");
  const double patched = total(s, "update.rebase.patched_clusters");
  const double reused = total(s, "update.rebase.reused_clusters");
  if (upd) r.set("update.reuse_ratio", ratio(reused, reused + patched));
  else r.na("update.reuse_ratio", "image updates are off in this workload");

  // The layer pass, sized by the run's own counts.
  Scoped pass(&rec, "layer_pass");
  const std::uint32_t cbits =
      w.storm ? w.storm_config.cache_cluster_bits : w.cloud.cache_cluster_bits;
  const std::uint64_t ccs = std::uint64_t{1} << cbits;
  {
    Scoped sp(&rec, "sim::SimEnv");
    const auto events = static_cast<std::uint64_t>(
        c != nullptr ? clamp_ops<double>(static_cast<double>(c->sim_events), 1e5, 2e7)
                     : 1e6);
    const double ns = sim_pass(events);
    r.set("sim.ns_per_event", ns);
    if (c != nullptr) {
      r.set("sim.est_share",
            ratio(ns * 1e-9 * static_cast<double>(c->sim_events), wall));
    }
  }
  double qcow2_s = 0;
  {
    Scoped sp(&rec, "qcow2");
    const std::uint64_t quota =
        w.storm ? w.storm_config.cache_quota : w.cloud.cache_quota;
    const Qcow2Pass q = qcow2_pass(profile, cbits, quota, traces.front(),
                                   /*opens=*/200, rec);
    if (!q.ok) tr.run.gate_errors.push_back("qcow2 layer pass failed");
    r.set("qcow2.open_us", q.open_us);
    r.set("qcow2.cor_read_s", q.cor_read_s);
    r.set("qcow2.warm_read_s", q.warm_read_s);
    r.set("qcow2.rss_mib_per_device", q.heap_mib_per_chain);
    const double bind_us = std::max(0.0, q.open_us - q.open_us_nohub);
    r.set("obs.bind_us_per_open", bind_us);
    r.set("obs.est_share", ratio(bind_us * 1e-6 * chains, wall));
    qcow2_s = q.open_us * 1e-6 * chains + q.cor_read_s * cold_boots +
              q.warm_read_s * warm_boots;
    r.set("qcow2.est_share", ratio(qcow2_s, wall));
  }
  {
    // Bytes the run wrote into SimDirectory files (SparseBuffers): the
    // writes charged to the file-level media.
    const std::set<std::string> media = {"disk+pagecache", "mem"};
    const double wbytes = total_where(s, "storage.bytes_written", "medium", media);
    const double wops = total_where(s, "storage.writes", "medium", media);
    const std::uint64_t chunk = clamp_ops<std::uint64_t>(
        static_cast<std::uint64_t>(ratio(wbytes, wops)), 512, MiB);
    const bool content = !w.storm && w.cloud.sibling_group_size > 0;
    Scoped sp(&rec, "util::SparseBuffer");
    const double ns_kib = sparse_pass(
        chunk, content,
        clamp_ops<std::uint64_t>(static_cast<std::uint64_t>(wbytes), 4 * MiB,
                                 256 * MiB));
    sp.close();
    r.set("util.sparse_write_ns_per_kib", ns_kib);

    Scoped lz(&rec, "util::lzss_compress");
    const std::uint64_t lz_chunk = std::max<std::uint64_t>(ccs, 4 * KiB);
    const double lz_in =
        (total(s, "qcow2.compressed.clusters") +
         total(s, "qcow2.compressed.fallbacks")) * static_cast<double>(ccs);
    const double mibs = lzss_pass(
        lz_chunk, clamp_ops<std::uint64_t>(static_cast<std::uint64_t>(lz_in),
                                           4 * MiB, 64 * MiB));
    lz.close();
    r.set("util.lzss_mib_per_s", mibs);
    r.set("util.est_share",
          ratio(ns_kib * 1e-9 * wbytes / KiB + ratio(lz_in / MiB, mibs), wall));
  }
  {
    Scoped sp(&rec, "net::Link");
    const int flows = std::max(1, static_cast<int>(gauge_max(s, "net.link.peak_flows")));
    const double bytes = total(s, "net.link.bytes");
    const double ns = net_pass(
        flows, static_cast<std::uint64_t>(std::max(1.0, ratio(bytes, transfers))),
        clamp_ops<std::uint64_t>(static_cast<std::uint64_t>(transfers), 10000,
                                 500000));
    r.set("net.ns_per_transfer", ns);
    r.set("net.est_share", ratio(ns * 1e-9 * transfers, wall));
  }
  {
    Scoped sp(&rec, "dedup::FingerprintIndex");
    const double ns = dedup_pass(
        clamp_ops<std::uint64_t>(static_cast<std::uint64_t>(dd_attempts), 100000,
                                 2000000),
        num_vmis);
    r.set("dedup.index_ns_per_op", ns);
    r.set("dedup.est_share", ratio(ns * 1e-9 * dd_attempts, wall));
  }
  {
    Scoped sp(&rec, "manifest::Store");
    const double pubs = total(s, "manifest.publishes");
    const double nodes = cp.compute_nodes;
    const int entries = clamp_ops(
        static_cast<int>(ratio(gauge_sum(s, "cache.pool.entries"), nodes) + 0.5), 1, 64);
    bool ok = true;
    const double us = manifest_pass(
        entries, clamp_ops(static_cast<int>(pubs), 200, 5000), ok);
    if (!ok) tr.run.gate_errors.push_back("manifest layer pass failed");
    r.set("manifest.publish_us", us);
    r.set("manifest.est_share", ratio(us * 1e-6 * pubs, wall));
  }
  pass.close();
  root.close();
  tr.metrics = r.finish();
  return tr;
}

}  // namespace perfbench
