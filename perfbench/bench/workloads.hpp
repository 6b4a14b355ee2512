#pragma once

// The benchmark's workloads. Each one drives the whole stack through a
// public entry point (cluster::run_scenario or cloud::run_cloud) and is
// shaped so that one group of layers does most of its work there and
// little elsewhere:
//
//   storm-cold32  the paper's headline experiment at half size: 32 VMs boot
//                 at once on 32 nodes over 1 GbE from cold compute-disk
//                 caches at 512 B clusters. Time goes into the data path
//                 (qcow2 copy-on-read, SparseBuffer, NFS chunking, net::Link
//                 sharing across 32 flows, storage disk and page cache).
//                 64 nodes took 14-20 s and 2.7 GiB per call, too slow for
//                 several repetitions in one run.
//   fleet-10k     the bench_engine_throughput engine shape: 10k nodes, a
//                 1 MiB image, Poisson arrivals every 0.1 s. Time goes into
//                 per-session fixed costs (scheduler, obs binding per
//                 device open, placement index, qcow2 open/close).
//   tiers-churn   an 8-image sibling catalog with peer, dedup, compression,
//                 manifest, one mid-horizon restart and rebase updates:
//                 the tier paths, which write into caches as well as read.
//
// The seed is the only input: it draws the boot traces and, for the cloud
// workloads, the arrival times and lifetimes; the program receives only the
// generated config. The request count, the image sequence and the engine's
// own seed (which draws the image-update schedule) are part of each
// workload's fixed shape, so the amount of work does not swing with it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench/spans.hpp"
#include "cloud/engine.hpp"
#include "cluster/scenario.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool storm = false;  ///< run_scenario (storm) or run_cloud
  vmic::cluster::ClusterParams storm_cluster;
  vmic::cluster::ScenarioConfig storm_config;
  /// Cloud config; `requests` is filled by generate_inputs().
  vmic::cloud::CloudConfig cloud;
  std::uint64_t seed = 0;
};

/// Names in the order the benchmark documents them.
std::vector<std::string> workload_names();

/// The workload's shape for `seed`; nullopt for an unknown name. `tiny`
/// shrinks every shape to a few seconds of work for the self-tests.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool tiny = false);

/// Materialise the cloud request stream from the seed (no-op for storms).
void generate_inputs(Workload& w);

/// One measured call's outcome. Sim outcomes are deterministic per seed.
struct RunOutcome {
  double wall_s = 0;
  std::string digest;  ///< fnv1a-64 of the metrics snapshot text
  double deploy_p50_s = 0;
  double deploy_tail_s = 0;
  double tail_percentile = 0;   ///< which percentile deploy_tail_s is
  std::size_t deploy_n = 0;     ///< deploy latency sample count
  double storage_mib = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> gate_errors;
  vmic::obs::MetricsSnapshot metrics;
  /// Kept for the per-layer pass (exactly one is set; their `metrics`
  /// member is moved out into the field above).
  std::optional<vmic::cloud::CloudResult> cloud;
  std::optional<vmic::cluster::ScenarioResult> storm;
};

/// Run the workload once (inputs must be generated), timing the call and
/// applying the correctness gate. A non-null recorder wraps the call and
/// the snapshot render in spans.
RunOutcome run_once(const Workload& w, SpanRecorder* rec = nullptr);

/// Set-up cost: the same config with no arrivals / VMs (cluster build,
/// base images and content, boot traces, teardown) plus request-stream
/// generation. Returns wall seconds.
double setup_once(const Workload& w);

/// The highest nearest-rank percentile of n samples with at least 10
/// samples above it, among `candidates` (descending); 50 when none fits.
double tail_percentile(std::size_t n, const std::vector<double>& candidates);

/// fnv1a-64, rendered as 16 hex digits.
std::string digest_of(const std::string& text);

}  // namespace perfbench
