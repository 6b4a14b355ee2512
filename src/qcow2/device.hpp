#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/device.hpp"
#include "io/backend.hpp"
#include "qcow2/format.hpp"
#include "sim/sync.hpp"
#include "qcow2/layout.hpp"

namespace vmic::qcow2 {

/// Result of a metadata consistency walk (vmi-img check, tests).
struct CheckResult {
  std::uint64_t data_clusters = 0;      ///< reachable guest-data clusters
  std::uint64_t metadata_clusters = 0;  ///< header/L1/L2/refcount clusters
  std::uint64_t leaked_clusters = 0;    ///< refcount > references
  std::uint64_t corruptions = 0;        ///< refcount < references, overlaps,
                                        ///< out-of-file pointers
  std::uint64_t compressed_clusters = 0;  ///< L2 entries with the
                                          ///< compressed bit set
  [[nodiscard]] bool clean() const noexcept {
    return leaked_clusters == 0 && corruptions == 0;
  }
};

/// What repair() did to an image (vmi-img check --repair, crash sweep).
struct RepairReport {
  bool was_dirty = false;             ///< dirty bit was set on entry
  std::uint64_t entries_cleared = 0;  ///< invalid L1/L2/refcount-table
                                      ///< pointers zeroed
  std::uint64_t leaks_dropped = 0;    ///< clusters whose refcount was
                                      ///< rebuilt downward (freed)
  std::uint64_t corruptions_fixed = 0;  ///< clusters whose refcount was
                                        ///< rebuilt upward
  bool journal_replayed = false;  ///< O(journal) replay fast path taken
  bool journal_fallback = false;  ///< replay found an inconsistency and
                                  ///< fell back to the full rebuild
  std::uint64_t journal_entries = 0;  ///< valid records replayed
  [[nodiscard]] bool changed_anything() const noexcept {
    return was_dirty || entries_cleared != 0 || leaks_dropped != 0 ||
           corruptions_fixed != 0;
  }
};

/// QCOW2 block driver with the paper's VMI-cache extension.
///
/// A device is a *cache image* when its header carries the cache extension
/// (created with cache_quota != 0). Cache images:
///  * serve reads from their own clusters when present ("warm");
///  * recurse to the backing image on a miss and copy the fetched data
///    into themselves (copy-on-read, §3.2), expanded to cluster
///    granularity — the source of the Fig 9 traffic amplification at
///    64 KiB clusters;
///  * stop populating (permanently, for this open) on the first quota
///    failure (§4.3 read/write);
///  * reject guest writes — only the CoW overlay above them is written,
///    which keeps them immutable w.r.t. the base (§3, third requirement);
///  * persist their current size into the header extension on close().
class Qcow2Device final : public block::BlockDevice {
 public:
  struct CreateOptions {
    std::uint64_t virtual_size = 0;
    std::uint32_t cluster_bits = kDefaultClusterBits;
    /// Backing file reference stored in the header (empty = standalone).
    std::string backing_file;
    /// Non-zero turns the new image into a cache image with this quota
    /// (maximum file size in bytes, §3 second requirement).
    std::uint64_t cache_quota = 0;
    /// Refcount-table sizing hint: expected maximum file size. 0 = derive
    /// from virtual_size (the table itself is cheap; it can also grow at
    /// runtime).
    std::uint64_t expected_file_size = 0;
    /// Non-zero adds a refcount journal of this many 512-byte sectors
    /// (sector 0 is the journal header, the rest hold one record each;
    /// minimum 2). Refcount mutations append records instead of writing
    /// refcount blocks in place, and a dirty image is repaired by
    /// replaying the journal — O(journal) instead of O(image). Sets the
    /// kIncompatJournal feature bit.
    std::uint32_t journal_sectors = 0;
  };

  /// Format `file` as a new QCOW2 image. Writes header (+ cache
  /// extension), refcount table/blocks and an all-unallocated L1.
  static sim::Task<Result<void>> create(io::BlockBackend& file,
                                        CreateOptions opt);

  /// Open an image, recursively opening its backing chain through
  /// `opt.resolver`. Implements the paper's permission dance: backing
  /// images are resolved writable, then demoted to read-only unless they
  /// are cache images (§4.3).
  static sim::Task<Result<block::DevicePtr>> open(
      io::BackendPtr file, const block::OpenOptions& opt);

  ~Qcow2Device() override = default;

  // --- BlockDevice -----------------------------------------------------
  sim::Task<Result<void>> read(std::uint64_t off,
                               std::span<std::uint8_t> dst) override;
  sim::Task<Result<void>> write(std::uint64_t off,
                                std::span<const std::uint8_t> src) override;
  sim::Task<Result<void>> flush() override;
  sim::Task<Result<void>> close() override;
  [[nodiscard]] std::uint64_t size() const override { return h_.size; }
  [[nodiscard]] bool read_only() const override {
    return ro_mode_ || file_->read_only();
  }
  void set_read_only_mode(bool ro) override { ro_mode_ = ro; }
  [[nodiscard]] bool is_cache_image() const override {
    return cache_.has_value();
  }
  [[nodiscard]] std::string format_name() const override { return "qcow2"; }
  [[nodiscard]] block::BlockDevice* backing() const override {
    return backing_.get();
  }

  // --- cache-image introspection ----------------------------------------
  [[nodiscard]] std::uint64_t cache_quota() const noexcept {
    return cache_ ? cache_->quota : 0;
  }
  /// Current cache size = file high-water mark (the quantity the paper's
  /// quota bounds and close() persists).
  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    if (!refcounts_loaded_) {
      // Read-only open: no allocation mirror; derive from the file.
      return align_up(file_->size(), ly_.cluster_size());
    }
    return static_cast<std::uint64_t>(refcounts_.size()) * ly_.cluster_size();
  }
  /// False once a CoR write hit the quota (no further population).
  [[nodiscard]] bool cor_active() const noexcept { return cor_enabled_; }

  // --- compressed clusters (cache CoR fills) ------------------------------
  /// Opt CoR fills into compressed-cluster storage: compressible clusters
  /// are stored as LZSS payloads packed sector-aligned into shared host
  /// clusters (the qcow2 compressed bit/offset-mask layout), so the cache
  /// file's physical footprint — what the quota bounds — shrinks.
  /// Incompressible clusters fall back to the plain path. Ignored (stays
  /// off) on journaled images: the refcount journal's verified-recompute
  /// replay assumes one reference slot per cluster run, which shared
  /// compressed host clusters break. No effect below 2 KiB clusters
  /// (payloads are sector-granular; nothing can shrink).
  void set_cor_compress(bool on);
  [[nodiscard]] bool cor_compress() const noexcept { return cor_compress_; }

  /// Physical-vs-logical footprint of compressed clusters (an L1/L2 walk;
  /// used by vmi-img info and the benches).
  struct CompressionStats {
    std::uint64_t compressed_clusters = 0;  ///< L2 entries, logical
    std::uint64_t physical_bytes = 0;       ///< sector-padded payload bytes
    std::uint64_t logical_bytes = 0;        ///< compressed_clusters * cs
  };
  sim::Task<Result<CompressionStats>> compression_stats();

  // --- peer cache tier (vmic::peer) --------------------------------------
  /// Interceptor for backing-image fetches: given a guest byte range,
  /// either fill `dst` entirely and return true, or return false (or an
  /// error) to fall back to the normal backing-chain read. Every fetch
  /// that would hit the backing image funnels through it — CoR fills,
  /// their cluster-edge expansions, and plain read-through on caches that
  /// stopped populating — so one hook diverts all of a device's backing
  /// traffic. The hook runs under whatever locks the caller holds (for
  /// CoR fills, this device's in-flight range); it must not re-enter this
  /// device.
  using BackingFetchHook = std::function<sim::Task<Result<bool>>(
      std::uint64_t vaddr, std::span<std::uint8_t> dst)>;
  void set_backing_fetch_hook(BackingFetchHook hook) {
    fetch_hook_ = std::move(hook);
  }

  /// Observer of CoR publication: fires with the cluster-aligned guest
  /// byte range a completed fill pass just made locally servable (after
  /// the L2 entries were published, so a concurrent reader of the range
  /// would be served from this file). The peer tier feeds its seed
  /// coverage from it.
  using CorFillObserver =
      std::function<void(std::uint64_t lo, std::uint64_t hi)>;
  void set_cor_fill_observer(CorFillObserver obs) {
    fill_observer_ = std::move(obs);
  }

  // --- format introspection ----------------------------------------------
  [[nodiscard]] std::uint32_t cluster_bits() const noexcept {
    return h_.cluster_bits;
  }
  [[nodiscard]] std::uint64_t cluster_size() const noexcept {
    return ly_.cluster_size();
  }
  [[nodiscard]] const std::string& backing_file() const noexcept {
    return backing_path_;
  }
  [[nodiscard]] const Header& header() const noexcept { return h_; }
  /// Reachable guest-data bytes (allocated data clusters * cluster size).
  [[nodiscard]] std::uint64_t allocated_data_bytes() const noexcept {
    return data_clusters_ * ly_.cluster_size();
  }
  /// Bytes spent on L2 tables (paper §5.1: 3.1 MB for a 200 MB quota at
  /// 512 B clusters).
  [[nodiscard]] std::uint64_t l2_table_bytes() const noexcept {
    return l2_clusters_ * ly_.cluster_size();
  }

  /// True if the cluster containing `vaddr` is allocated locally (not in
  /// the backing chain).
  sim::Task<Result<bool>> is_allocated(std::uint64_t vaddr);

  /// Metadata consistency walk. Read-only; safe on any open image.
  sim::Task<Result<CheckResult>> check();

  /// In-place repair (requires a writable image): clears invalid L1/L2/
  /// refcount-table pointers, rebuilds every refcount from L1/L2
  /// reachability (dropping leaks, fixing under-counts), persists the
  /// rebuilt metadata and clears the dirty bit. Handles every state a
  /// power cut can leave behind (see DESIGN.md "Durability"); it does
  /// not untangle cross-linked clusters (two L2 entries sharing a data
  /// cluster), which barrier ordering makes unreachable by crash.
  sim::Task<Result<RepairReport>> repair();

  /// True while the on-disk header carries the dirty bit.
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  /// True when refcount decrements are deferred behind the dirty bit.
  [[nodiscard]] bool lazy_refcounts() const noexcept { return lazy_; }

  // --- journal introspection --------------------------------------------
  /// True when the image carries a refcount journal (kIncompatJournal).
  [[nodiscard]] bool has_journal() const noexcept {
    return journal_.has_value();
  }
  /// Total journal sectors (header + record slots); 0 without a journal.
  [[nodiscard]] std::uint64_t journal_sector_count() const noexcept {
    return journal_sector_count_;
  }
  /// Current journal generation (from the on-disk journal header).
  [[nodiscard]] std::uint64_t journal_generation() const noexcept {
    return journal_gen_;
  }

  /// Allocation classes a virtual range can be in.
  enum class MapKind { unallocated, zero, data, compressed };

  /// Public mapping query: the allocation status at `vaddr` and the
  /// length of the extent sharing it (capped at `max_len`). Used by
  /// commit and by tools that walk an image's allocation.
  struct MapStatus {
    MapKind kind;
    std::uint64_t len;
  };
  sim::Task<Result<MapStatus>> map_status(std::uint64_t vaddr,
                                          std::uint64_t max_len);

  /// Mark [off, off+len) as reading zero. Whole clusters get the v3
  /// zero flag (releasing any data cluster they held); partial head/tail
  /// clusters are zero-filled through the normal write path.
  sim::Task<Result<void>> write_zeroes(std::uint64_t off, std::uint64_t len);

  /// Drop [off, off+len). Without a backing image whole clusters become
  /// unallocated (read as zero); with one they get the zero flag instead,
  /// so discarded data does not resurface from the backing chain.
  sim::Task<Result<void>> discard(std::uint64_t off, std::uint64_t len);

  /// Grow the virtual disk to `new_size` (>= current size). Relocates the
  /// L1 table if the new size needs more entries.
  sim::Task<Result<void>> resize(std::uint64_t new_size);

 private:
  Qcow2Device(io::BackendPtr file, ParsedHeader parsed);

  /// Registry-owned aggregate counters, shared by every device of the
  /// same kind (label image="cache"/"plain"). Devices come and go with
  /// each VM deployment, so per-instance attachment would churn the
  /// registry; aggregates survive the device.
  struct AggCounters {
    obs::Counter* guest_reads = nullptr;
    obs::Counter* guest_writes = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* backing_reads = nullptr;
    obs::Counter* bytes_from_backing = nullptr;
    obs::Counter* cor_fills = nullptr;
    obs::Counter* cor_clusters = nullptr;
    obs::Counter* cor_bytes = nullptr;
    obs::Counter* cor_stopped = nullptr;
    obs::Counter* cor_inflight_waits = nullptr;
    obs::Counter* cor_dedup_hits = nullptr;
    obs::Counter* alloc_lock_waits = nullptr;
    obs::Counter* repair_runs = nullptr;
    obs::Counter* repair_dirty_opens = nullptr;
    obs::Counter* repair_entries_cleared = nullptr;
    obs::Counter* repair_leaks_dropped = nullptr;
    obs::Counter* repair_corruptions_fixed = nullptr;
    obs::Counter* journal_appends = nullptr;
    obs::Counter* journal_checkpoints = nullptr;
    obs::Counter* journal_replays = nullptr;
    obs::Counter* journal_entries_replayed = nullptr;
    obs::Counter* journal_fallbacks = nullptr;
    // qcow2.compressed.* — created lazily by set_cor_compress(true), not
    // bind_obs, so compression-off runs keep their metrics snapshots
    // byte-identical to the pre-compression golden pins.
    obs::Counter* comp_clusters = nullptr;
    obs::Counter* comp_bytes_saved = nullptr;
    obs::Counter* comp_fallbacks = nullptr;
    obs::Counter* comp_reads = nullptr;
  };
  static void bump(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr) c->inc(n);
  }

  /// Fetch/Create the aggregates for this device's kind and open the
  /// "qcow2" trace track. Called from open() once cache-ness is known.
  void bind_obs(obs::Hub* hub);

  struct Extent {
    MapKind kind;
    std::uint64_t host_off;  // valid when kind == data
    std::uint64_t len;
    std::uint64_t entry = 0;  // raw L2 entry when kind == compressed
  };

  /// Where the table slot(s) referencing a cluster run live on disk —
  /// recorded in journal entries so replay can *verify* each reference
  /// instead of trusting a count delta. `run` means one 8-byte slot whose
  /// pointer covers the whole run (L1 entry, refcount-table entry, or a
  /// header pointer field); otherwise slot k of the run is the 8-byte
  /// entry at ref_off + k*8 (contiguous L2 entries). Ignored without a
  /// journal.
  struct RefHint {
    std::uint64_t ref_off = 0;
    bool run = false;
  };

  /// Release a contiguous run of clusters (refcounts to zero) — used when
  /// data clusters are replaced by a zero flag or deallocated. One ranged
  /// refcount write per run: a per-cluster loop of awaits can exhaust the
  /// native stack when symmetric transfer is not a tail call (sanitizers).
  sim::Task<Result<void>> free_clusters(std::uint64_t host_off,
                                        std::uint64_t count, RefHint hint);
  /// Set one raw L2 entry per cluster for a virtually-contiguous run from
  /// `vaddr`: one metadata write per touched L2 table, not per entry.
  sim::Task<Result<void>> set_l2_raw_run(std::uint64_t vaddr,
                                         std::span<const std::uint64_t> entries);
  /// Set the entries of [lo, hi) to `entry` (kFlagZero or 0), skipping
  /// `keep` extents; free what they referenced behind a flush.
  sim::Task<Result<void>> unmap_clusters(std::uint64_t lo, std::uint64_t hi,
                                         std::uint64_t entry, MapKind keep);

  // Address translation / metadata.
  sim::Task<Result<std::vector<std::uint64_t>*>> load_l2(
      std::uint64_t l2_host_off);
  sim::Task<Result<Extent>> map_range(std::uint64_t vaddr, std::uint64_t len);
  /// Make sure the L2 table covering `vaddr` exists (allocating it before
  /// any data clusters keeps quota failures leak-free).
  sim::Task<Result<void>> ensure_l2_table(std::uint64_t vaddr);
  /// File offset of the L2 entry mapping `vaddr` (its table must exist).
  [[nodiscard]] std::uint64_t l2_slot(std::uint64_t vaddr) const;

  /// Make sure the on-disk header carries the dirty bit before the first
  /// metadata mutation of this session (pwrite + flush barrier, then the
  /// mutation may proceed). Caller holds alloc_mutex_.
  sim::Task<Result<void>> ensure_dirty();
  /// Write every allocated refcount block back from the in-memory mirror
  /// (the lazy-refcounts clean-close path).
  sim::Task<Result<void>> persist_refcounts();
  /// Clear the dirty bit after a flush barrier (clean close / repair).
  sim::Task<Result<void>> write_clean_bit();

  // Allocation.
  sim::Task<Result<std::uint64_t>> alloc_clusters(std::uint64_t n,
                                                  RefHint hint);
  sim::Task<Result<void>> ensure_refcount_block(std::uint64_t cluster_idx);
  sim::Task<Result<void>> write_refcount_entries(std::uint64_t first,
                                                 std::uint64_t count);
  sim::Task<Result<void>> grow_refcount_table(std::uint64_t min_block_index);
  [[nodiscard]] std::optional<std::uint64_t> find_free_run(std::uint64_t n);
  [[nodiscard]] Result<void> quota_check(std::uint64_t end_cluster) const;

  // Refcount journal (see qcow2/journal.hpp and DESIGN.md).
  /// Append one record for a cluster run (caller holds alloc_mutex_).
  /// Checkpoints first when the journal is full. Rides the caller's
  /// flush barriers — no flush of its own.
  sim::Task<Result<void>> journal_append(std::uint32_t flags,
                                         std::uint64_t first_cluster,
                                         std::uint64_t count,
                                         RefHint hint);
  /// Write the journaled refcount blocks back from the mirror, flush,
  /// then retire every record by bumping the header generation.
  sim::Task<Result<void>> journal_checkpoint();
  /// Retire every record: generation `gen`, header rewritten atomically.
  sim::Task<Result<void>> journal_retire(std::uint64_t gen);

  /// One pass over the journal region: decoded header + the *verified*
  /// effective refcount of every cluster touched by a current-generation
  /// record (1 iff some recorded table slot durably references it).
  struct JournalScan {
    bool header_ok = false;
    std::uint64_t generation = 0;
    std::uint64_t entries = 0;  ///< valid current-generation records
    std::map<std::uint64_t, std::uint16_t> effective;
    bool inconsistent = false;  ///< record out of bounds — needs rebuild
  };
  sim::Task<Result<JournalScan>> journal_scan();
  /// O(journal) repair: replay the journal into the refcount blocks.
  /// Returns false when replay cannot prove consistency (bad journal
  /// header, record out of bounds, touched cluster without a covering
  /// refcount block) — the caller falls back to the full rebuild.
  sim::Task<Result<bool>> journal_repair_fast(RepairReport& rep);

  // Free-run index maintenance (mirror of zero entries in refcounts_).
  void claim_run(std::uint64_t first, std::uint64_t end);
  void release_run(std::uint64_t first, std::uint64_t end);
  void index_free_runs();

  /// Contention-counting acquisition of alloc_mutex_.
  [[nodiscard]] sim::InlineMutex::Awaiter lock_alloc() noexcept;

  // Copy-on-read population (cache images).
  sim::Task<Result<void>> cor_fill_read(std::uint64_t pos,
                                        std::span<std::uint8_t> dst);
  sim::Task<Result<void>> cor_read_after_wait(std::uint64_t pos,
                                              std::span<std::uint8_t> dst);
  sim::Task<Result<void>> cor_store(std::uint64_t vaddr,
                                    std::span<const std::uint8_t> data);
  /// `data` at `vaddr` widened to whole clusters, the edges read from the
  /// backing chain (left zero when `from_backing` is false).
  sim::Task<Result<std::vector<std::uint8_t>>> cluster_buffer(
      std::uint64_t vaddr, std::span<const std::uint8_t> data,
      bool from_backing);
  /// The one store path: place an unallocated, L2-bounded run of whole
  /// clusters, write the payloads, flush once, publish (on a write failure,
  /// free) every placement. `cor`: a CoR fill (stats; packed under
  /// cor_compress). Returns the clusters stored (one at the quota edge).
  sim::Task<Result<std::uint64_t>> store_run(
      std::uint64_t vaddr, std::span<const std::uint8_t> data, bool cor);
  /// Serve a read that maps to a compressed extent: load + decompress the
  /// payload, copy the requested sub-range.
  sim::Task<Result<void>> read_compressed(std::uint64_t pos,
                                          const Extent& ext,
                                          std::span<std::uint8_t> dst);
  /// Decompress-modify-write: replace a compressed cluster with a plain
  /// data cluster carrying `sub` at `pos` (guest write / zero path).
  sim::Task<Result<void>> rewrite_compressed(std::uint64_t pos,
                                             const Extent& ext,
                                             std::span<const std::uint8_t> sub);
  /// Drop one compressed L2 reference: decrement the payload's host
  /// cluster (freeing it when the last sharer leaves). Caller holds
  /// alloc_mutex_ and already published the new L2 entry + barrier.
  sim::Task<Result<void>> free_compressed_entry(std::uint64_t entry,
                                                RefHint hint);
  /// Disable population permanently for this open (first failure wins;
  /// concurrent failures count once).
  void cor_stop(Errc cause);

  // Copy-on-write allocation for guest writes; `fill_from_backing` is
  // false when overwriting zero-flagged clusters (edges fill with zeros).
  sim::Task<Result<void>> cow_write(std::uint64_t vaddr,
                                    std::span<const std::uint8_t> src,
                                    bool fill_from_backing = true);

  sim::Task<Result<void>> read_from_backing(std::uint64_t vaddr,
                                            std::span<std::uint8_t> dst);

  io::BackendPtr file_;
  block::DevicePtr backing_;
  Header h_;
  Layout ly_;
  std::optional<CacheExtension> cache_;
  std::optional<JournalExtension> journal_;
  std::uint64_t cache_ext_payload_offset_ = 0;
  std::string backing_path_;
  bool cor_enabled_ = true;
  bool ro_mode_ = false;
  bool dirty_ = false;  ///< on-disk header carries kIncompatDirty
  /// The dirty bit predates this session (opened with auto_repair_dirty
  /// off and not yet repaired): close() must NOT clear it — only a
  /// repair() earns a clean mark for damage we merely inherited.
  bool dirty_inherited_ = false;
  bool lazy_ = false;  ///< defer refcount decrements while dirty

  // Journal session state. journal_head_ is the next record sector
  // (1-based; sector 0 is the header); journal_dirty_blocks_ holds the
  // refcount-block indices with journaled-but-not-checkpointed changes —
  // exactly what a checkpoint must write back.
  std::uint64_t journal_sector_count_ = 0;
  std::uint64_t journal_gen_ = 0;
  std::uint64_t journal_seq_ = 0;
  std::uint64_t journal_head_ = 1;
  std::set<std::uint64_t> journal_dirty_blocks_;
  bool journal_header_bad_ = false;  ///< on-disk header failed to decode

  std::vector<std::uint64_t> l1_;  // host-endian mirror of the L1 table
  // L2 tables cached for the lifetime of the device (QEMU caches these
  // too; the paper relies on lookups being memory-speed, §5.1).
  std::unordered_map<std::uint64_t, std::unique_ptr<std::vector<std::uint64_t>>>
      l2_tables_;
  std::vector<std::uint64_t> rt_;       // refcount-table entries (block ptrs)
  std::vector<std::uint16_t> refcounts_;  // per-host-cluster mirror
  bool refcounts_loaded_ = false;
  std::uint64_t free_guess_ = 0;
  /// Maximal runs of free clusters (first -> end, exclusive), kept in sync
  /// with refcounts_ so find_free_run is O(log n + runs skipped) instead
  /// of a linear rescan — the old scan degraded to O(file clusters) per
  /// allocation after any free rewound free_guess_ (refcount-table growth
  /// does exactly that).
  std::map<std::uint64_t, std::uint64_t> free_runs_;
  std::uint64_t data_clusters_ = 0;
  std::uint64_t l2_clusters_ = 0;
  /// Serialises metadata mutation (cluster allocation/free, L2 publish)
  /// when several coroutines share this device — e.g. guest reads racing
  /// boot-time prefetch. Payload writes happen outside it.
  sim::InlineMutex alloc_mutex_;
  /// In-flight CoR fill tracking: cluster ranges being populated. The
  /// fill owner holds its range; overlapping readers queue and are served
  /// locally afterwards (single-flight, QEMU-style in-flight COW).
  sim::RangeLock cor_inflight_;
  BackingFetchHook fetch_hook_;
  CorFillObserver fill_observer_;

  /// Compressed CoR fills (off by default; see set_cor_compress).
  bool cor_compress_ = false;
  /// The "open" packing cluster: host byte offset of the cluster new
  /// compressed payloads are appended into (0 = none), and the next free
  /// 512-byte sector inside it. Session-local — a reopen wastes the open
  /// tail, it never dangles (the cluster's refcount covers the published
  /// references only).
  std::uint64_t comp_cluster_off_ = 0;
  std::uint64_t comp_next_sector_ = 0;

  obs::Hub* hub_ = nullptr;
  std::uint32_t track_ = 0;
  AggCounters agg_;

  sim::Task<Result<void>> load_refcounts();
};

/// Probe `file` and open it with the matching driver (qcow2 by magic,
/// raw otherwise).
sim::Task<Result<block::DevicePtr>> open_any(io::BackendPtr file,
                                             const block::OpenOptions& opt);

}  // namespace vmic::qcow2
