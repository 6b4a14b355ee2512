#pragma once

#include <cstdint>
#include <string>

#include "obs/hub.hpp"

namespace vmic::crash {

/// The image chain a sweep crashes. Every qcow2 file of the chain sits
/// behind one CrashDomain, so a cut fells all of them at the same instant;
/// the raw base below a chain is never cut.
enum class ChainShape {
  /// One qcow2 image. The workload is guest writes, flushes, zeroes and
  /// discards.
  standalone,
  /// A copy-on-read cache over a raw base. The workload is guest reads
  /// through the warming cache, and the invariant is a clean cache whose
  /// contents still match the base.
  cache_over_base,
  /// A CoW overlay over a copy-on-read cache over a raw base. Guest reads
  /// pull clusters into the cache and guest writes land in the overlay,
  /// so both files mutate and a cut catches ordering bugs that span them.
  overlay_over_cache,
};

/// Configuration for the exhaustive crash-point sweep.
struct ExploreConfig {
  std::uint64_t seed = 1;
  std::uint32_t cluster_bits = 12;
  std::uint64_t image_size = 1ull << 20;
  /// Scripted guest operations per replay (writes / flushes, plus
  /// occasional write_zeroes and discard to exercise the free path).
  int guest_ops = 40;
  double flush_probability = 0.2;
  double zero_probability = 0.08;
  double discard_probability = 0.05;
  /// Run the image with deferred refcount decrements.
  bool lazy_refcounts = false;
  ChainShape chain = ChainShape::standalone;
  /// Cap on crash points explored (sampled evenly); 0 = every event of
  /// the recording run, i.e. every flush boundary and every point in
  /// between (intra-write states are covered by sector tearing).
  std::uint64_t max_crash_points = 0;
  /// Create the image with a refcount journal of this many sectors
  /// (0 = no journal). Small values force checkpoints under the sweep,
  /// so checkpoint-under-crash windows get covered too.
  std::uint32_t journal_sectors = 0;
  /// After each primary cut, also cut the power at every event *inside*
  /// the auto-repair that follows (repair-of-repair): repair itself must
  /// be crash-safe at every instant.
  bool crash_during_repair = false;
  /// Optional sink for crash.* counters.
  obs::Hub* hub = nullptr;
};

/// Aggregated sweep outcome. The invariant of the durability design is
/// pass(): no crash point may yield a pre-repair corruption, a post-repair
/// blemish of any kind, or a lost flushed guest write.
struct ExploreReport {
  std::uint64_t total_events = 0;  ///< events in the full (uncut) run
  std::uint64_t crash_points = 0;  ///< points actually replayed
  std::uint64_t power_cuts = 0;
  std::uint64_t replay_failures = 0;    ///< replay/reopen/repair errors
  std::uint64_t pre_repair_corruptions = 0;   ///< must be 0 (barriers)
  std::uint64_t pre_repair_leaks = 0;         ///< informational
  std::uint64_t dirty_images = 0;       ///< reopened with the dirty bit set
  std::uint64_t entries_cleared = 0;
  std::uint64_t leaks_dropped = 0;
  std::uint64_t corruptions_fixed = 0;
  std::uint64_t post_repair_corruptions = 0;  ///< must be 0
  std::uint64_t post_repair_leaks = 0;        ///< must be 0
  std::uint64_t lost_flushed_bytes = 0;       ///< must be 0
  std::uint64_t verified_points = 0;   ///< points whose content verified
  std::uint64_t journal_replays = 0;   ///< repairs served by O(journal) replay
  std::uint64_t journal_fallbacks = 0; ///< repairs that fell back to rebuild
  std::uint64_t repair_crash_points = 0;  ///< nested cuts inside repair
  /// Journal images may keep leaks across replay (a free record that never
  /// became durable — the dereference did, so it is a leak, never a
  /// corruption; the next full check/rebuild drops it). explore() sets
  /// this so pass() tolerates exactly that.
  bool leaks_allowed = false;
  /// FNV-1a over per-point outcomes, repair-of-repair cuts included
  /// (determinism).
  std::uint64_t digest = 0;

  [[nodiscard]] bool pass() const noexcept {
    return replay_failures == 0 && pre_repair_corruptions == 0 &&
           post_repair_corruptions == 0 &&
           (post_repair_leaks == 0 || leaks_allowed) &&
           lost_flushed_bytes == 0 && verified_points == crash_points;
  }
};

/// Replay the scripted workload once to enumerate crash points, then for
/// each point: re-run against a fresh chain, cut the power, reopen, check,
/// repair and re-check every qcow2 file, and verify surviving content.
/// Host-side and deterministic for a fixed config.
ExploreReport explore(const ExploreConfig& cfg);

/// JSON rendering of a report (CI artifact).
std::string to_json(const ExploreReport& r, const ExploreConfig& cfg);

}  // namespace vmic::crash
