// Golden-metrics suite: proves the obs refactor preserved simulation
// behaviour and that metrics snapshots are deterministic.
//
//  * determinism: the same scenario run twice renders a byte-identical
//    metrics snapshot (the simulation is single-threaded and seeded);
//  * pinned values: a fixed 4-node Fig-2-style scenario must reproduce
//    the exact byte counts and boot times captured from the pre-obs
//    codebase — any drift means the instrumentation changed behaviour;
//  * cross-checks: registry-backed series agree with the ad-hoc
//    ScenarioResult fields they replaced.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <span>
#include <vector>

#include "cloud/engine.hpp"
#include "cluster/scenario.hpp"
#include "crash/explore.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace vmic::cluster {
namespace {

using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

ClusterParams fig2_params() {
  ClusterParams cp;
  cp.compute_nodes = 4;
  return cp;
}

ScenarioConfig fig2_config(CacheMode mode, CacheState state) {
  ScenarioConfig sc;
  sc.num_vms = 4;
  sc.num_vmis = 1;
  sc.mode = mode;
  sc.state = state;
  return sc;
}

TEST(GoldenMetrics, SnapshotIsByteStableAcrossRuns) {
  const auto r1 = run_scenario(fig2_params(),
                               fig2_config(CacheMode::compute_disk,
                                           CacheState::cold));
  const auto r2 = run_scenario(fig2_params(),
                               fig2_config(CacheMode::compute_disk,
                                           CacheState::cold));
  const std::string t1 = r1.metrics.to_text();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, r2.metrics.to_text());
  EXPECT_EQ(r1.metrics.to_json(), r2.metrics.to_json());
}

// Values captured from the pre-obs codebase (plain uint64 counters) for
// this exact scenario. They pin the simulation's observable behaviour:
// the obs layer must be a pure reader. Boot times were re-captured when
// the durability work added the dirty-bit header write (one extra 8-byte
// metadata pwrite per image session, ~100 us on the simulated media).

TEST(GoldenMetrics, PlainQcow2ColdPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::none, CacheState::cold));
  EXPECT_EQ(r.storage_payload_bytes, 547434496u);
  EXPECT_EQ(r.storage_disk_reads, 1u);
  EXPECT_EQ(r.storage_disk_bytes_read, 65536u);
  EXPECT_NEAR(r.mean_boot, 37.796141462, 1e-9);
  EXPECT_NEAR(r.max_boot, 37.796141462, 1e-9);
}

TEST(GoldenMetrics, ComputeDiskColdPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::cold));
  EXPECT_EQ(r.storage_payload_bytes, 479723520u);
  EXPECT_NEAR(r.mean_boot, 37.389519366, 1e-9);
}

TEST(GoldenMetrics, ComputeDiskWarmPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::warm));
  EXPECT_EQ(r.storage_payload_bytes, 16384u);
  EXPECT_EQ(r.warm_cache_file_bytes, 95254016u);
  EXPECT_NEAR(r.mean_boot, 32.998217362, 1e-9);
}

// The registry-backed series must agree with the ad-hoc counters they
// replaced (ScenarioResult reads NfsServer/RotationalDisk stats directly;
// the snapshot reads the same instruments through the registry).

TEST(GoldenMetrics, RegistryAgreesWithAdHocCounters) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::none, CacheState::cold));
  const obs::MetricsSnapshot& m = r.metrics;

  const std::uint64_t tx = m.counter_total("nfs.server.bytes_tx");
  const std::uint64_t rx = m.counter_total("nfs.server.bytes_rx");
  EXPECT_EQ(tx + rx, r.storage_payload_bytes);

  const obs::MetricPoint* disk_reads =
      m.find("storage.reads", {{"node", "storage0"}, {"medium", "disk"}});
  ASSERT_NE(disk_reads, nullptr);
  EXPECT_EQ(disk_reads->counter, r.storage_disk_reads);

  const obs::MetricPoint* disk_bytes = m.find(
      "storage.bytes_read", {{"node", "storage0"}, {"medium", "disk"}});
  ASSERT_NE(disk_bytes, nullptr);
  EXPECT_EQ(disk_bytes->counter, r.storage_disk_bytes_read);

  // Per-VM boot times all land in the boot-seconds histogram.
  const obs::MetricPoint* hist = m.find("cluster.boot_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.vms.size()));

  // The qcow2 aggregates saw every guest read of the scenario.
  EXPECT_GT(m.counter_total("qcow2.guest_reads"), 0u);
}

TEST(GoldenMetrics, CacheModeExportsCorSeries) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::cold));
  const obs::MetricsSnapshot& m = r.metrics;
  const obs::MetricPoint* fills =
      m.find("qcow2.cor_fills", {{"image", "cache"}});
  ASSERT_NE(fills, nullptr);
  EXPECT_GT(fills->counter, 0u);
  // CoR stores whole clusters: bytes == clusters * 512 (cache images use
  // the paper's 512-byte clusters by default).
  const obs::MetricPoint* clusters =
      m.find("qcow2.cor_clusters", {{"image", "cache"}});
  const obs::MetricPoint* bytes =
      m.find("qcow2.cor_bytes", {{"image", "cache"}});
  ASSERT_NE(clusters, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->counter, clusters->counter * 512u);
  // Plain overlays never copy-on-read.
  EXPECT_EQ(m.counter_total("qcow2.cor_fills"), fills->counter);
}

// A small fixed cloud scenario pins the cloud.* namespace the same way
// the Fig-2 scenarios pin cluster.*: any drift in workload generation,
// scheduling, placement, or SLO accounting shows up as a changed count.

TEST(GoldenMetrics, CloudSmallScenarioPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.arrivals, 20);
  EXPECT_EQ(r.completed, 20);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.warm_hits, 14);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_refs, 0);
  EXPECT_EQ(r.cache_evictions, 1u);
  EXPECT_EQ(r.storage_payload_bytes, 396725760u);
  EXPECT_NEAR(r.cache_hit_ratio, 0.7, 1e-9);
  EXPECT_NEAR(r.deploy.mean, 7.81614396925, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 12.35222641, 1e-9);
  EXPECT_NEAR(r.sim_seconds, 657.417208613, 1e-9);

  // The snapshot mirrors the result struct exactly.
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.arrivals"),
            static_cast<std::uint64_t>(r.arrivals));
  EXPECT_EQ(m.counter_total("cloud.completed"),
            static_cast<std::uint64_t>(r.completed));
  const obs::MetricPoint* hist = m.find("cloud.deploy_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.completed));
}

// --------------------------------------------------------------------------
// Pinned concurrent copy-on-read scenario. 16 readers race on one cold
// cluster, then 8 more populate disjoint clusters, over a sim-timed
// medium. Pins the single-flight protocol's observable behaviour — fetch
// counts, wait/dedup counters, allocator contention, and the final sim
// clock. Any drift means the range-lock/fill protocol changed timing or
// I/O behaviour.
// --------------------------------------------------------------------------

sim::Task<bool> gm_pwrite_all(io::BlockBackend& be,
                              std::span<const std::uint8_t> data) {
  auto r = co_await be.pwrite(0, data);
  co_return r.ok();
}

sim::Task<void> gm_reader(block::BlockDevice& dev, std::uint64_t off,
                          std::span<std::uint8_t> dst, bool& ok) {
  auto r = co_await dev.read(off, dst);
  ok = r.ok();
}

TEST(GoldenMetrics, ConcurrentCorPinnedValues) {
  constexpr std::uint64_t kSize = 4_MiB;
  obs::Hub hub;
  sim::SimEnv env;
  storage::MemMedium mem{env, {.latency_us = 200.0, .bandwidth_bps = 200e6}};
  storage::SimDirectory dir{mem};

  std::vector<std::uint8_t> data(kSize);
  Rng rng{42};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  {
    auto be = dir.create_file("base.img");
    ASSERT_TRUE(be.ok());
    ASSERT_TRUE(sim::run_sync(env, gm_pwrite_all(**be, data)));
  }
  ASSERT_TRUE(sim::run_sync(env, qcow2::create_cache_image(
                                     dir, "vmi.cache", "base.img", 4_MiB,
                                     {.cluster_bits = 16, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(
      sim::run_sync(env, qcow2::create_cow_image(dir, "vm.cow", "vmi.cache"))
          .ok());
  auto opened = sim::run_sync(
      env, qcow2::open_image(dir, "vm.cow", /*writable=*/true,
                             /*cache_backing_ro=*/false, &hub));
  ASSERT_TRUE(opened.ok());
  block::DevicePtr cow = std::move(*opened);

  // Phase 1: 16 readers race on the same cold 64 KiB cluster.
  std::vector<std::vector<std::uint8_t>> bufs(24);
  std::deque<bool> oks(24, false);
  for (int i = 0; i < 16; ++i) {
    bufs[i].resize(64_KiB);
    env.spawn(gm_reader(*cow, 0, bufs[i], oks[i]));
  }
  env.run();
  // Phase 2: 8 readers populate disjoint cold clusters concurrently.
  for (int i = 0; i < 8; ++i) {
    bufs[16 + i].resize(64_KiB);
    env.spawn(
        gm_reader(*cow, 1_MiB + i * 256_KiB, bufs[16 + i], oks[16 + i]));
  }
  env.run();

  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(oks[i]) << "reader " << i;
    const std::uint64_t off = i < 16 ? 0 : 1_MiB + (i - 16) * 256_KiB;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + off, 64_KiB))
        << "reader " << i;
  }

  const auto m = hub.registry.snapshot();
  // Phase 1: one fetch, 15 queued behind it and served locally; phase 2:
  // eight independent fetches, no waits.
  const obs::MetricPoint* br =
      m.find("qcow2.backing_reads", {{"image", "cache"}});
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->counter, 9u);
  const obs::MetricPoint* bfb =
      m.find("qcow2.bytes_from_backing", {{"image", "cache"}});
  ASSERT_NE(bfb, nullptr);
  EXPECT_EQ(bfb->counter, 9u * 64_KiB);
  EXPECT_EQ(m.counter_total("qcow2.cor.inflight_waits"), 15u);
  EXPECT_EQ(m.counter_total("qcow2.cor.dedup_hits"), 15u);
  EXPECT_EQ(m.counter_total("qcow2.cor_clusters"), 9u);
  EXPECT_EQ(m.counter_total("qcow2.cor_stopped"), 0u);
  // Captured from a reference run; pins allocator contention and timing.
  EXPECT_EQ(m.counter_total("qcow2.alloc_lock_waits"), 15u);
  EXPECT_EQ(env.now(), 44719481u);
}

TEST(GoldenMetrics, TracingDoesNotPerturbTiming) {
  obs::Hub hub;
  hub.tracer.set_enabled(true);
  ClusterParams cp = fig2_params();
  cp.hub = &hub;
  const auto traced = run_scenario(cp, fig2_config(CacheMode::compute_disk,
                                                   CacheState::cold));
  const auto plain = run_scenario(fig2_params(),
                                  fig2_config(CacheMode::compute_disk,
                                              CacheState::cold));
  EXPECT_EQ(traced.storage_payload_bytes, plain.storage_payload_bytes);
  EXPECT_DOUBLE_EQ(traced.mean_boot, plain.mean_boot);
  EXPECT_GT(hub.tracer.size(), 0u);
  // Trace export is well-formed enough to start and end as one object.
  const std::string json = hub.tracer.to_chrome_json();
  EXPECT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
  EXPECT_EQ(json.back(), '}');
}

// --------------------------------------------------------------------------
// Pinned crash-consistency counters. A fixed crash::explore sweep is
// fully deterministic, so the crash.* and qcow2.repair.* namespaces pin
// exactly: any drift means the fault-injection schedule, the barrier
// placement, or the repair rules changed behaviour.
// --------------------------------------------------------------------------

TEST(GoldenMetrics, CrashExplorePinnedValues) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 1;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 67u);
  EXPECT_EQ(r.crash_points, 12u);
  EXPECT_EQ(r.dirty_images, 11u);
  EXPECT_EQ(r.pre_repair_leaks, 16u);
  EXPECT_EQ(r.leaks_dropped, 16u);
  EXPECT_EQ(r.digest, 14649543974109951761ull);

  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("crash.power_cuts"), r.power_cuts);
  EXPECT_EQ(m.counter_total("crash.writes_kept"), 11u);
  EXPECT_EQ(m.counter_total("crash.writes_dropped"), 3u);
  EXPECT_EQ(m.counter_total("crash.writes_torn"), 1u);
  EXPECT_EQ(m.counter_total("qcow2.repair.runs"), 12u);
  EXPECT_EQ(m.counter_total("qcow2.repair.dirty_opens"), 11u);
  EXPECT_EQ(m.counter_total("qcow2.repair.leaks_dropped"), r.leaks_dropped);
}

// The journal-mode sweep pins the qcow2.journal.* namespace: appends and
// checkpoints happen on the recording run and every replayed point, and
// each dirty reopen must repair by replay (fallbacks pin to zero — a
// drift here means replay stopped proving consistency somewhere).

TEST(GoldenMetrics, JournalExplorePinnedValues) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.journal_sectors = 4;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_GT(r.journal_replays, 0u);
  EXPECT_EQ(r.journal_fallbacks, 0u);

  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("qcow2.journal.replays"), r.journal_replays);
  EXPECT_EQ(m.counter_total("qcow2.journal.fallbacks"), 0u);
  EXPECT_GT(m.counter_total("qcow2.journal.appends"), 0u);
  EXPECT_GT(m.counter_total("qcow2.journal.checkpoints"), 0u);

  // Exact pins: the schedule is deterministic, so the counter totals are
  // part of the golden surface like the digest.
  EXPECT_EQ(r.total_events, 79u);
  EXPECT_EQ(r.journal_replays, 11u);
  EXPECT_EQ(m.counter_total("qcow2.journal.appends"), 93u);
  EXPECT_EQ(m.counter_total("qcow2.journal.checkpoints"), 23u);
  EXPECT_EQ(m.counter_total("qcow2.journal.entries_replayed"), 22u);
  EXPECT_EQ(r.digest, 670551284262492835ull);
}

// One pin per remaining sweep mode. Lazy refcounts skip the refcount
// write on a free, so this seed leaks less and records one event fewer
// than the eager sweep of the same workload.

TEST(GoldenMetrics, LazyExplorePinnedValues) {
  crash::ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 24;
  cfg.max_crash_points = 16;
  cfg.lazy_refcounts = true;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 72u);
  EXPECT_EQ(r.crash_points, 16u);
  EXPECT_EQ(r.dirty_images, 15u);
  EXPECT_EQ(r.pre_repair_leaks, 15u);
  EXPECT_EQ(r.leaks_dropped, 15u);
  EXPECT_EQ(r.repair_crash_points, 0u);
  EXPECT_EQ(r.digest, 15956766808477058957ull);
}

TEST(GoldenMetrics, CorChainExplorePinnedValues) {
  crash::ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.chain = crash::ChainShape::cache_over_base;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 84u);
  EXPECT_EQ(r.crash_points, 12u);
  EXPECT_EQ(r.dirty_images, 11u);
  EXPECT_EQ(r.pre_repair_leaks, 3u);
  EXPECT_EQ(r.leaks_dropped, 3u);
  EXPECT_EQ(r.repair_crash_points, 0u);
  EXPECT_EQ(r.digest, 15085406569767452073ull);
}

// The digest mixes every nested cut inside repair too: its index, each
// file's post-repair check and the bytes it lost.

TEST(GoldenMetrics, RepairOfRepairExplorePinnedValues) {
  crash::ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 12;
  cfg.max_crash_points = 8;
  cfg.crash_during_repair = true;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 50u);
  EXPECT_EQ(r.crash_points, 8u);
  EXPECT_EQ(r.dirty_images, 7u);
  EXPECT_EQ(r.pre_repair_leaks, 8u);
  EXPECT_EQ(r.leaks_dropped, 8u);
  EXPECT_EQ(r.repair_crash_points, 49u);
  EXPECT_EQ(r.digest, 3617392827123883083ull);
}

// The overlay-over-cache sweep: both qcow2 files count towards
// dirty_images, so a point can add two. The digest mixes the cut's
// summed write fates first, then each file's check and repair, top file
// first — the order the single-image sweep has always used.

TEST(GoldenMetrics, TwoFileExplorePinnedValues) {
  crash::ExploreConfig cfg;
  cfg.seed = 9;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.chain = crash::ChainShape::overlay_over_cache;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 130u);
  EXPECT_EQ(r.crash_points, 12u);
  EXPECT_EQ(r.power_cuts, 12u);
  EXPECT_EQ(r.replay_failures, 0u);
  EXPECT_EQ(r.pre_repair_corruptions, 0u);
  EXPECT_EQ(r.pre_repair_leaks, 10u);
  EXPECT_EQ(r.dirty_images, 21u);
  EXPECT_EQ(r.entries_cleared, 0u);
  EXPECT_EQ(r.leaks_dropped, 10u);
  EXPECT_EQ(r.corruptions_fixed, 0u);
  EXPECT_EQ(r.post_repair_corruptions, 0u);
  EXPECT_EQ(r.post_repair_leaks, 0u);
  EXPECT_EQ(r.lost_flushed_bytes, 0u);
  EXPECT_EQ(r.verified_points, 12u);
  EXPECT_EQ(r.journal_replays, 0u);
  EXPECT_EQ(r.journal_fallbacks, 0u);
  EXPECT_EQ(r.repair_crash_points, 0u);
  EXPECT_FALSE(r.leaks_allowed);
  EXPECT_EQ(r.digest, 15364564545579585361ull);
}

// A small crashy cloud run pins the salvage path: one node crash, whose
// recovery repairs and re-adopts the surviving caches.

TEST(GoldenMetrics, CloudCrashSalvagePinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  // A late crash on node 0: by then its caches are warm and idle, prime
  // salvage material.
  cfg.failures.crashes.push_back({400.0, 60.0, 0});
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.node_crashes, 1);
  EXPECT_EQ(r.node_recoveries, 1);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_refs, 0);
  EXPECT_EQ(r.caches_salvaged, 1);
  EXPECT_EQ(r.caches_invalidated, 0);

  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.cache_salvaged"),
            static_cast<std::uint64_t>(r.caches_salvaged));
  EXPECT_EQ(m.counter_total("cloud.cache_invalidated"),
            static_cast<std::uint64_t>(r.caches_invalidated));
}

// Every count of one planned restart with the durable manifest, pinned:
// the adoption pass, the publish cadence, and the post-restart storage
// bill are all part of the determinism contract. An unintentional change
// to any publish point or to the adoption order shows up here first.
TEST(GoldenMetrics, RestartAdoptPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  cfg.manifest = true;
  cfg.restart_at_s.push_back(400.0);
  cfg.restart_down_s = 20.0;
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.arrivals, 20);
  EXPECT_EQ(r.completed, 20);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.restarts, 1);
  // Four caches survive the power cycle verified; one — left mid-write by
  // the deployment the restart killed — fails verification and degrades
  // to cold (the advisory-manifest contract: never adopt what you cannot
  // re-verify).
  EXPECT_EQ(r.caches_readopted, 4);
  EXPECT_EQ(r.adopt_failures, 1);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.vm_crashes, 1);
  EXPECT_EQ(r.manifest_publishes, 42u);
  EXPECT_EQ(r.post_restart_storage_bytes, 104179720u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_refs, 0);

  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.adopt.ok"), 4u);
  EXPECT_EQ(m.counter_total("cloud.adopt.failed"), 1u);
  EXPECT_EQ(m.counter_total("cloud.restart.count"), 1u);
  EXPECT_EQ(m.counter_total("manifest.publishes"), 42u);
}

// The tier paths of the cloud engine, pinned: peer seed fetches, dedup's
// local and content-addressed peer borrows, crash salvage, manifest
// adoption after a restart, and incremental rebase under image updates.
// Two small runs cover them. The first turns every tier on at once; the
// second runs the peer tier without dedup, the only configuration in
// which peer_fetch itself serves clusters (dedup otherwise resolves them
// first), with a short transfer deadline so the timeout path fires too.
// Any change to a borrow, a verify pass or an accounting point shows up
// as a changed count.

cloud::CloudConfig tiers_config() {
  cloud::CloudConfig cfg;
  cfg.seed = 11;
  cfg.horizon_s = 900.0;
  cfg.cluster.compute_nodes = 4;
  cfg.workload.num_vmis = 8;
  cfg.workload.mean_interarrival_s = 20.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  cfg.profile.image_size = 256_MiB;
  cfg.profile.unique_read_bytes = 8_MiB;
  cfg.sibling_group_size = 4;
  cfg.cache_cluster_bits = 12;
  cfg.content_bytes = 16_MiB;
  cfg.peer_transfer = true;
  return cfg;
}

std::uint64_t fallbacks_for(const obs::MetricsSnapshot& m, const char* why) {
  const obs::MetricPoint* p = m.find("peer.fallback", {{"reason", why}});
  return p != nullptr ? p->counter : 0;
}

TEST(GoldenMetrics, CloudTiersPinnedValues) {
  {
    cloud::CloudConfig cfg = tiers_config();
    cfg.dedup = true;
    cfg.cache_compress = true;
    cfg.manifest = true;
    cfg.restart_at_s.push_back(450.0);
    cfg.updates.enabled = true;
    cfg.updates.policy = update::Policy::rebase;
    cfg.updates.rate_per_hour = 16.0;
    cfg.failures.crashes.push_back({600.0, 60.0, 1});
    const cloud::CloudResult r = cloud::run_cloud(cfg);

    EXPECT_EQ(r.arrivals, 48);
    EXPECT_EQ(r.completed, 48);
    EXPECT_EQ(r.aborted, 0);
    EXPECT_EQ(r.rejected, 0);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.deploy_failures, 0);
    EXPECT_EQ(r.crash_kills, 0);
    EXPECT_EQ(r.vm_crashes, 4);
    EXPECT_EQ(r.warm_hits, 36);
    EXPECT_EQ(r.copyback_skips, 0);
    EXPECT_EQ(r.node_crashes, 1);
    EXPECT_EQ(r.node_recoveries, 1);
    EXPECT_EQ(r.caches_salvaged, 1);
    EXPECT_EQ(r.caches_invalidated, 0);
    EXPECT_EQ(r.restarts, 1);
    EXPECT_EQ(r.drains, 0);
    EXPECT_EQ(r.caches_readopted, 4);
    EXPECT_EQ(r.adopt_failures, 0);
    EXPECT_EQ(r.adopt_stale, 0);
    EXPECT_EQ(r.manifest_publishes, 69u);
    EXPECT_EQ(r.post_restart_storage_bytes, 11315216u);
    EXPECT_EQ(r.leaked_slots, 0);
    EXPECT_EQ(r.leaked_refs, 0);
    EXPECT_EQ(r.cache_evictions, 0u);
    EXPECT_EQ(r.storage_payload_bytes, 24190992u);
    EXPECT_EQ(r.peer_seed_hits, 0u);
    EXPECT_EQ(r.peer_fallback_fills, 988u);
    EXPECT_EQ(r.peer_timeouts, 0u);
    EXPECT_EQ(r.dedup_local_hits, 114u);
    EXPECT_EQ(r.dedup_zero_fills, 35589u);
    EXPECT_EQ(r.dedup_peer_hits, 208u);
    EXPECT_EQ(r.dedup_fallbacks, 2149u);
    EXPECT_EQ(r.dedup_bytes_served, 109386240u);
    EXPECT_EQ(r.updates_published, 4);
    EXPECT_EQ(r.caches_rebased, 4);
    EXPECT_EQ(r.update_invalidations, 0);
    EXPECT_EQ(r.rebase_patched_clusters, 34u);
    EXPECT_EQ(r.rebase_reused_clusters, 9079u);
    EXPECT_EQ(r.post_update_storage_bytes, 19162640u);
    EXPECT_EQ(r.sim_events, 295368u);
    EXPECT_EQ(r.peak_queue_depth, 1u);
    EXPECT_NEAR(r.sim_seconds, 1096.770853590, 1e-6);
    EXPECT_NEAR(r.deploy.p99, 29.316087808, 1e-6);

    const obs::MetricsSnapshot& m = r.metrics;
    EXPECT_EQ(m.counter_total("dedup.local_hits"), 114u);
    EXPECT_EQ(m.counter_total("dedup.zero_fills"), 35589u);
    EXPECT_EQ(m.counter_total("dedup.peer_hits"), 208u);
    EXPECT_EQ(m.counter_total("dedup.fallbacks"), 2149u);
    EXPECT_EQ(m.counter_total("dedup.bytes_served"), 109386240u);
    EXPECT_EQ(m.counter_total("peer.seed_hits"), 0u);
    EXPECT_EQ(m.counter_total("peer.fallback_fills"), 988u);
    EXPECT_EQ(fallbacks_for(m, "miss"), 988u);
    EXPECT_EQ(fallbacks_for(m, "timeout"), 0u);
    EXPECT_EQ(fallbacks_for(m, "crash"), 0u);
    EXPECT_EQ(fallbacks_for(m, "error"), 0u);
    EXPECT_EQ(m.counter_total("peer.storage_bytes_avoided"), 626688u);
    EXPECT_EQ(m.counter_total("peer.bytes_served"), 626688u);
    // Every peer-moved byte counts, the content-addressed ones included
    // (here all of them: with dedup on, peer_fetch itself serves none).
    EXPECT_EQ(r.peer_bytes_served, 626688u);
    EXPECT_EQ(m.counter_total("peer.registrations"), 23u);
    EXPECT_EQ(m.counter_total("peer.deregistrations"), 13u);
    EXPECT_EQ(m.counter_total("update.rebase.patched_clusters"), 34u);
    EXPECT_EQ(m.counter_total("update.rebase.reused_clusters"), 9079u);
    EXPECT_EQ(m.counter_total("cloud.adopt.ok"), 4u);
    EXPECT_EQ(m.counter_total("cloud.adopt.failed"), 0u);
    EXPECT_EQ(m.counter_total("cloud.adopt.stale"), 0u);
    EXPECT_EQ(m.counter_total("cloud.cache_salvaged"), 1u);
  }
  {
    cloud::CloudConfig cfg = tiers_config();
    cfg.peer.timeout_s = 0.0005;
    cfg.failures.crashes.push_back({500.0, 60.0, 1});
    const cloud::CloudResult r = cloud::run_cloud(cfg);

    EXPECT_EQ(r.arrivals, 48);
    EXPECT_EQ(r.completed, 48);
    EXPECT_EQ(r.aborted, 0);
    EXPECT_EQ(r.rejected, 0);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.deploy_failures, 0);
    EXPECT_EQ(r.crash_kills, 0);
    EXPECT_EQ(r.vm_crashes, 0);
    EXPECT_EQ(r.warm_hits, 34);
    EXPECT_EQ(r.copyback_skips, 0);
    EXPECT_EQ(r.node_crashes, 1);
    EXPECT_EQ(r.node_recoveries, 1);
    EXPECT_EQ(r.caches_salvaged, 2);
    EXPECT_EQ(r.caches_invalidated, 0);
    EXPECT_EQ(r.leaked_slots, 0);
    EXPECT_EQ(r.leaked_refs, 0);
    EXPECT_EQ(r.cache_evictions, 5u);
    EXPECT_EQ(r.storage_payload_bytes, 243970648u);
    EXPECT_EQ(r.peer_seed_hits, 1973u);
    EXPECT_EQ(r.peer_fallback_fills, 19450u);
    EXPECT_EQ(r.peer_bytes_served, 12436992u);
    EXPECT_EQ(r.peer_timeouts, 24u);
    EXPECT_EQ(r.sim_events, 368339u);
    EXPECT_EQ(r.peak_queue_depth, 1u);
    EXPECT_NEAR(r.sim_seconds, 1096.762215960, 1e-6);
    EXPECT_NEAR(r.deploy.p99, 7.768590989, 1e-6);

    const obs::MetricsSnapshot& m = r.metrics;
    EXPECT_EQ(m.find("dedup.fallbacks"), nullptr);
    EXPECT_EQ(m.counter_total("peer.seed_hits"), 1973u);
    EXPECT_EQ(m.counter_total("peer.fallback_fills"), 19450u);
    EXPECT_EQ(fallbacks_for(m, "miss"), 19426u);
    EXPECT_EQ(fallbacks_for(m, "timeout"), 24u);
    EXPECT_EQ(fallbacks_for(m, "crash"), 0u);
    EXPECT_EQ(fallbacks_for(m, "error"), 0u);
    EXPECT_EQ(m.counter_total("peer.storage_bytes_avoided"), 12436992u);
    EXPECT_EQ(m.counter_total("peer.registrations"), 16u);
    EXPECT_EQ(m.counter_total("peer.deregistrations"), 7u);
    EXPECT_EQ(m.counter_total("cloud.cache_salvaged"), 2u);
  }
}

// --------------------------------------------------------------------------
// Pinned qcow2 store I/O. A recording backend wraps one image file and
// digests its ordered write-side stream: every pwrite as (offset, length,
// bytes) and every flush, in issue order. The scenarios reach each store
// path of the driver — overlay copy-on-write with partial clusters and an
// L2-boundary span, write_zeroes and discard with and without a backing
// file, the rewrite of a compressed cluster, plain copy-on-read fills at
// 512 B and 4 KiB clusters up to the quota edge, and compressed fills
// with incompressible clusters mixed in. The write count, the flush count
// and the digest pin the exact on-disk sequence, barriers included.
// --------------------------------------------------------------------------

/// Ordered pwrite/flush stream of one file, folded into an FNV-1a digest.
struct IoLog {
  std::uint64_t pwrites = 0;
  std::uint64_t flushes = 0;
  std::uint64_t digest = 14695981039346656037ull;

  void mix(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      digest = (digest ^ b) * 1099511628211ull;
    }
  }
  void record(std::uint8_t op, std::uint64_t off,
              std::span<const std::uint8_t> bytes) {
    std::uint8_t head[17];
    head[0] = op;
    store_be64(head + 1, off);
    store_be64(head + 9, bytes.size());
    mix(head);
    mix(bytes);
  }
};

class RecordingBackend final : public io::BlockBackend {
 public:
  RecordingBackend(io::BackendPtr inner, IoLog& log)
      : inner_(std::move(inner)), log_(log) {
    ro_ = inner_->read_only();
  }

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    co_return co_await inner_->pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    ++log_.pwrites;
    log_.record('W', off, src);
    co_return co_await inner_->pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    ++log_.flushes;
    log_.record('F', 0, {});
    co_return co_await inner_->flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    log_.record('T', s, {});
    co_return co_await inner_->truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  void set_read_only(bool ro) noexcept override {
    ro_ = ro;
    inner_->set_read_only(ro);
  }
  [[nodiscard]] std::string describe() const override {
    return "recording:" + inner_->describe();
  }

 private:
  io::BackendPtr inner_;
  IoLog& log_;
};

/// In-memory image directory that records the I/O of one named file.
class RecordingStore final : public io::ImageDirectory {
 public:
  io::MemImageStore mem;
  std::string recorded;
  IoLog log;

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(be, mem.open_file(name, writable));
    if (name != recorded) return be;
    return io::BackendPtr{std::make_unique<RecordingBackend>(std::move(be),
                                                             log)};
  }
  Result<io::BackendPtr> create_file(const std::string& name) override {
    return mem.create_file(name);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return mem.exists(name);
  }
};

void put_base(RecordingStore& st, const std::vector<std::uint8_t>& data) {
  auto be = st.mem.create_file("base.img");
  ASSERT_TRUE(be.ok());
  ASSERT_TRUE(sim::sync_wait((*be)->pwrite(0, data)).ok());
}

std::vector<std::uint8_t> noise_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  Rng rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

/// 4 KiB-cluster content for the compressed paths: every fifth cluster
/// is noise (incompressible), the rest are byte runs (compressible).
std::vector<std::uint8_t> mixed_clusters(std::size_t n) {
  std::vector<std::uint8_t> v = noise_bytes(99, n);
  for (std::size_t c = 0; c * 4_KiB < n; ++c) {
    if (c % 5 == 3) continue;
    const std::size_t lo = c * 4_KiB;
    for (std::size_t i = lo; i < std::min(n, lo + 4_KiB); ++i) {
      v[i] = static_cast<std::uint8_t>(c + (i - lo) / 512);
    }
  }
  return v;
}

sim::Task<Result<void>> write_bytes(block::BlockDevice& dev, std::uint64_t off,
                                    std::uint64_t len, std::uint64_t seed) {
  const std::vector<std::uint8_t> data = noise_bytes(seed, len);
  co_return co_await dev.write(off, data);
}

sim::Task<Result<void>> read_bytes(block::BlockDevice& dev, std::uint64_t off,
                                   std::uint64_t len) {
  std::vector<std::uint8_t> buf(len);
  co_return co_await dev.read(off, buf);
}

qcow2::Qcow2Device& as_qcow2(block::BlockDevice* dev) {
  return *dynamic_cast<qcow2::Qcow2Device*>(dev);
}

void expect_io(const IoLog& log, std::uint64_t pwrites, std::uint64_t flushes,
               std::uint64_t digest) {
  EXPECT_EQ(log.pwrites, pwrites);
  EXPECT_EQ(log.flushes, flushes);
  EXPECT_EQ(log.digest, digest);
}

TEST(GoldenMetrics, OverlayStoreIoPinned) {
  RecordingStore st;
  ASSERT_NO_FATAL_FAILURE(put_base(st, noise_bytes(1, 8_MiB)));
  ASSERT_TRUE(sim::sync_wait(qcow2::create_cow_image(
                                 st, "vm.cow", "base.img",
                                 {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  st.recorded = "vm.cow";
  auto dev = sim::sync_wait(qcow2::open_image(st, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  block::BlockDevice& d = **dev;
  auto& q = as_qcow2(dev->get());
  // Partial clusters, a head+body+tail write, an L2-boundary span (4 KiB
  // clusters: one L2 table maps 2 MiB), and an in-place overwrite.
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 100, 300, 11)).ok());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 5000, 10000, 12)).ok());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 2_MiB - 5000, 12000, 13)).ok());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 200, 50, 14)).ok());
  // Zeroes over data, unallocated and L2-spanning ranges; a backed
  // discard leaves zero flags.
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(3 * 4_KiB + 17, 16_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(2_MiB - 8_KiB, 16_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.discard(0, 8_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.discard(6_MiB, 64_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 6_MiB + 100, 5000, 15)).ok());
  auto chk = sim::sync_wait(q.check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  ASSERT_TRUE(sim::sync_wait(d.close()).ok());
  expect_io(st.log, 39, 16, 5248832899622545105ull);
}

TEST(GoldenMetrics, StandaloneUnmapIoPinned) {
  RecordingStore st;
  {
    auto be = st.mem.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 4_MiB;
    opt.cluster_bits = 12;
    ASSERT_TRUE(
        sim::sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  st.recorded = "img.qcow2";
  auto dev = sim::sync_wait(qcow2::open_image(st, "img.qcow2"));
  ASSERT_TRUE(dev.ok());
  block::BlockDevice& d = **dev;
  auto& q = as_qcow2(dev->get());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 0, 64_KiB, 21)).ok());
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 1_MiB, 20000, 22)).ok());
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(4_KiB, 16_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(100, 50)).ok());
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(3_MiB, 8_KiB)).ok());
  // Without a backing file whole clusters unmap; the partial edges drop.
  ASSERT_TRUE(sim::sync_wait(q.discard(32_KiB + 10, 40_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.discard(4_KiB, 8_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.discard(1_MiB, 12_KiB)).ok());
  auto chk = sim::sync_wait(q.check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  ASSERT_TRUE(sim::sync_wait(d.close()).ok());
  expect_io(st.log, 23, 11, 14283213204993606259ull);
}

TEST(GoldenMetrics, CompressedRewriteIoPinned) {
  RecordingStore st;
  ASSERT_NO_FATAL_FAILURE(put_base(st, mixed_clusters(1_MiB)));
  ASSERT_TRUE(sim::sync_wait(qcow2::create_cache_image(
                                 st, "vmi.cache", "base.img", 4_MiB,
                                 {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(
      sim::sync_wait(qcow2::create_cow_image(st, "vm.cow", "vmi.cache")).ok());
  {
    auto dev = sim::sync_wait(qcow2::open_image(st, "vm.cow"));
    ASSERT_TRUE(dev.ok());
    as_qcow2((*dev)->backing()).set_cor_compress(true);
    ASSERT_TRUE(sim::sync_wait(read_bytes(**dev, 0, 256_KiB)).ok());
    ASSERT_TRUE(sim::sync_wait((*dev)->close()).ok());
  }
  // Turn the cache's extension into an unknown one: the file reopens as a
  // plain writable image over the base, compressed clusters and all, so
  // guest writes reach the decompress-modify-write path.
  {
    auto* buf = *st.mem.buffer("vmi.cache");
    std::uint8_t magic[4];
    store_be32(magic, 0x7e57e570u);
    buf->write(qcow2::kHeaderLength, magic);
  }
  st.recorded = "vmi.cache";
  auto dev = sim::sync_wait(qcow2::open_image(st, "vmi.cache"));
  ASSERT_TRUE(dev.ok());
  block::BlockDevice& d = **dev;
  auto& q = as_qcow2(dev->get());
  ASSERT_FALSE(q.is_cache_image());
  auto before = sim::sync_wait(q.compression_stats());
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->compressed_clusters, 20u);
  ASSERT_TRUE(sim::sync_wait(write_bytes(d, 3 * 4_KiB + 100, 200, 31)).ok());
  ASSERT_TRUE(
      sim::sync_wait(write_bytes(d, 10 * 4_KiB - 100, 8_KiB + 200, 32)).ok());
  ASSERT_TRUE(sim::sync_wait(q.write_zeroes(20 * 4_KiB + 1, 3 * 4_KiB)).ok());
  ASSERT_TRUE(sim::sync_wait(q.discard(30 * 4_KiB, 2 * 4_KiB)).ok());
  auto after = sim::sync_wait(q.compression_stats());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->compressed_clusters, before->compressed_clusters);
  auto chk = sim::sync_wait(q.check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  ASSERT_TRUE(sim::sync_wait(d.close()).ok());
  expect_io(st.log, 32, 18, 12238061962347919887ull);
}

/// Cold copy-on-read fills through base <- cache <- overlay, recording the
/// cache file. With `edge_quota` the cache is then read on, 48 KiB at a
/// time, until population stops at the quota. The plain store falls back
/// to single clusters there and fills the cache to its quota exactly.
IoLog cor_fill_io(std::uint32_t cluster_bits, bool compress,
                  std::uint64_t quota, bool edge_quota) {
  RecordingStore st;
  put_base(st, compress ? mixed_clusters(4_MiB) : noise_bytes(2, 4_MiB));
  EXPECT_TRUE(sim::sync_wait(qcow2::create_cache_image(
                                 st, "vmi.cache", "base.img", quota,
                                 {.cluster_bits = cluster_bits,
                                  .virtual_size = 0}))
                  .ok());
  EXPECT_TRUE(
      sim::sync_wait(qcow2::create_cow_image(st, "vm.cow", "vmi.cache")).ok());
  st.recorded = "vmi.cache";
  obs::Hub hub;
  auto dev = sim::sync_wait(qcow2::open_image(st, "vm.cow", true, false, &hub));
  EXPECT_TRUE(dev.ok());
  block::BlockDevice& d = **dev;
  auto& cache = as_qcow2(d.backing());
  cache.set_cor_compress(compress);
  EXPECT_TRUE(sim::sync_wait(read_bytes(d, 0, 64_KiB)).ok());
  EXPECT_TRUE(sim::sync_wait(read_bytes(d, 100000, 3000)).ok());
  EXPECT_TRUE(sim::sync_wait(read_bytes(d, 1_MiB + 7, 200000)).ok());
  EXPECT_TRUE(sim::sync_wait(read_bytes(d, 0, 4_KiB)).ok());
  if (edge_quota) {
    for (std::uint64_t off = 2_MiB; cache.cor_active() && off + 48_KiB <= 4_MiB;
         off += 48_KiB) {
      EXPECT_TRUE(sim::sync_wait(read_bytes(d, off, 48_KiB)).ok());
    }
    EXPECT_FALSE(cache.cor_active());
    if (!compress) {
      EXPECT_EQ(cache.file_bytes(), quota);
    }
  }
  if (compress) {
    const auto m = hub.registry.snapshot();
    EXPECT_GT(m.counter_total("qcow2.compressed.clusters"), 0u);
    EXPECT_GT(m.counter_total("qcow2.compressed.fallbacks"), 0u);
  }
  auto chk = sim::sync_wait(cache.check());
  EXPECT_TRUE(chk.ok() && chk->clean());
  EXPECT_TRUE(sim::sync_wait(d.close()).ok());
  return st.log;
}

TEST(GoldenMetrics, CorFillIoPinned) {
  expect_io(cor_fill_io(9, false, 2_MiB, false), 69, 26,
            1058539844665603696ull);
  expect_io(cor_fill_io(12, false, 4_MiB, false), 15, 8,
            16592084460618766658ull);
  expect_io(cor_fill_io(9, false, 1_MiB + 1536, true), 263, 91,
            8227630522237849628ull);
  expect_io(cor_fill_io(12, false, 1_MiB + 8_KiB, true), 78, 29,
            8653597914849945673ull);
}

TEST(GoldenMetrics, CompressedCorFillIoPinned) {
  expect_io(cor_fill_io(12, true, 4_MiB, false), 111, 8,
            9216879715255118742ull);
  expect_io(cor_fill_io(12, true, 512_KiB + 4_KiB, true), 675, 38,
            15047904922395961970ull);
}

}  // namespace
}  // namespace vmic::cluster
