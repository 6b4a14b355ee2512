#include "qcow2/device.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "block/raw.hpp"
#include "qcow2/journal.hpp"
#include "util/align.hpp"
#include "util/bytes.hpp"
#include "util/compress.hpp"
#include "util/log.hpp"

namespace vmic::qcow2 {

namespace {

/// Serialise host-endian u64 entries to a big-endian byte buffer.
void pack_be64(const std::uint64_t* src, std::size_t n,
               std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) store_be64(out + i * 8, src[i]);
}

}  // namespace

// ===========================================================================
// create
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::create(io::BlockBackend& file,
                                            CreateOptions opt) {
  if (opt.virtual_size == 0) co_return Errc::invalid_argument;
  if (opt.cluster_bits < kMinClusterBits ||
      opt.cluster_bits > kMaxClusterBits) {
    co_return Errc::invalid_argument;
  }
  if (opt.backing_file.size() > 1023) co_return Errc::invalid_argument;
  if (file.read_only()) co_return Errc::read_only;

  const Layout ly{opt.cluster_bits};
  const std::uint64_t cs = ly.cluster_size();

  std::optional<CacheExtension> cache;
  if (opt.cache_quota != 0) {
    cache = CacheExtension{opt.cache_quota, 0};
  }
  std::optional<JournalExtension> journal;
  if (opt.journal_sectors != 0) {
    if (opt.journal_sectors < 2) co_return Errc::invalid_argument;
    // Offset is filled in below once the layout is known; the header-area
    // size only depends on the extension's presence.
    journal = JournalExtension{
        0, std::uint64_t{opt.journal_sectors} * kJournalSectorSize};
  }

  const std::uint64_t header_bytes =
      header_area_size(cache, journal, opt.backing_file);
  const std::uint64_t header_clusters = div_ceil(header_bytes, cs);

  const std::uint32_t l1_entries = ly.l1_entries_for(opt.virtual_size);
  const std::uint64_t l1_clusters =
      div_ceil(std::uint64_t{l1_entries} * 8, cs);

  // Refcount-table sizing: cover the expected maximum file size with some
  // slack; the table can still grow at runtime if exceeded.
  std::uint64_t expected_file = opt.expected_file_size;
  if (expected_file == 0) {
    const std::uint64_t l2_estimate = opt.virtual_size / 64;
    expected_file = opt.cache_quota != 0
                        ? opt.cache_quota * 2 + 16 * 1024 * 1024
                        : opt.virtual_size + l2_estimate + 16 * 1024 * 1024;
  }
  const std::uint64_t expected_clusters = div_ceil(expected_file, cs);
  const std::uint64_t rt_clusters = std::max<std::uint64_t>(
      1, div_ceil(div_ceil(expected_clusters, ly.refcounts_per_block()),
                  ly.rt_entries_per_cluster()));

  const std::uint64_t journal_clusters =
      journal ? div_ceil(journal->size, cs) : 0;

  // Initial refcount blocks must cover all initial clusters, whose count
  // depends on the block count — iterate to the fixed point.
  std::uint64_t nrb = 1;
  std::uint64_t total = 0;
  for (int iter = 0; iter < 8; ++iter) {
    total =
        header_clusters + rt_clusters + nrb + l1_clusters + journal_clusters;
    const std::uint64_t need = div_ceil(total, ly.refcounts_per_block());
    if (need == nrb) break;
    nrb = need;
  }
  total = header_clusters + rt_clusters + nrb + l1_clusters + journal_clusters;

  if (opt.cache_quota != 0 && opt.cache_quota < total * cs) {
    // Quota cannot even hold the metadata skeleton.
    co_return Errc::invalid_argument;
  }

  const std::uint64_t rt_off = header_clusters * cs;
  const std::uint64_t rb_off = rt_off + rt_clusters * cs;
  const std::uint64_t l1_off = rb_off + nrb * cs;
  const std::uint64_t journal_off = l1_off + l1_clusters * cs;
  if (journal) journal->offset = journal_off;

  Header h;
  h.cluster_bits = opt.cluster_bits;
  h.size = opt.virtual_size;
  h.l1_size = l1_entries;
  h.l1_table_offset = l1_off;
  h.refcount_table_offset = rt_off;
  h.refcount_table_clusters = static_cast<std::uint32_t>(rt_clusters);
  if (journal) h.incompatible_features |= kIncompatJournal;
  if (!opt.backing_file.empty()) {
    h.backing_file_offset = header_bytes - opt.backing_file.size();
    h.backing_file_size =
        static_cast<std::uint32_t>(opt.backing_file.size());
  }
  if (cache) cache->current_size = total * cs;

  // Header area (cluster 0 .. header_clusters-1).
  std::vector<std::uint8_t> hdr(header_clusters * cs, 0);
  write_header_area(h, cache, journal, opt.backing_file, hdr);
  VMIC_CO_TRY_VOID(co_await file.pwrite(0, hdr));

  // Refcount table: first nrb entries point at the initial blocks.
  {
    std::vector<std::uint8_t> rt(rt_clusters * cs, 0);
    for (std::uint64_t j = 0; j < nrb; ++j) {
      store_be64(rt.data() + j * 8, rb_off + j * cs);
    }
    VMIC_CO_TRY_VOID(co_await file.pwrite(rt_off, rt));
  }

  // Refcount blocks: clusters [0, total) have refcount 1.
  {
    std::vector<std::uint8_t> rb(cs, 0);
    for (std::uint64_t j = 0; j < nrb; ++j) {
      std::memset(rb.data(), 0, cs);
      const std::uint64_t first = j * ly.refcounts_per_block();
      for (std::uint64_t k = 0; k < ly.refcounts_per_block(); ++k) {
        if (first + k < total) store_be16(rb.data() + k * 2, 1);
      }
      VMIC_CO_TRY_VOID(co_await file.pwrite(rb_off + j * cs, rb));
    }
  }

  // L1 table: all zero (fully unallocated).
  {
    std::vector<std::uint8_t> zeros(l1_clusters * cs, 0);
    VMIC_CO_TRY_VOID(co_await file.pwrite(l1_off, zeros));
  }

  // Journal region: header sector at generation 0, all record slots
  // zeroed (zero sectors fail the record magic check and are ignored).
  if (journal) {
    std::vector<std::uint8_t> jr(journal_clusters * cs, 0);
    encode_journal_header(
        JournalHeader{0, journal->size / kJournalSectorSize},
        std::span(jr.data(), kJournalSectorSize));
    VMIC_CO_TRY_VOID(co_await file.pwrite(journal_off, jr));
  }

  VMIC_CO_TRY_VOID(co_await file.truncate(total * cs));
  VMIC_CO_TRY_VOID(co_await file.flush());
  co_return ok_result();
}

// ===========================================================================
// open
// ===========================================================================

Qcow2Device::Qcow2Device(io::BackendPtr file, ParsedHeader parsed)
    : file_(std::move(file)),
      h_(parsed.h),
      ly_(parsed.h.cluster_bits),
      cache_(parsed.cache),
      journal_(parsed.journal),
      cache_ext_payload_offset_(parsed.cache_ext_payload_offset),
      backing_path_(std::move(parsed.backing_file)) {
  if (journal_) journal_sector_count_ = journal_->size / kJournalSectorSize;
}

sim::Task<Result<block::DevicePtr>> Qcow2Device::open(
    io::BackendPtr file, const block::OpenOptions& opt) {
  if (file == nullptr) co_return Errc::invalid_argument;
  if (opt.max_chain_depth <= 0) co_return Errc::invalid_format;

  // The header area always fits in the first 4 KiB (our create() keeps
  // extensions + backing name short); reading a bit of L1 alongside is
  // harmless.
  std::vector<std::uint8_t> hdr(
      std::min<std::uint64_t>(4096, file->size()), 0);
  if (hdr.size() < kHeaderLength) co_return Errc::invalid_format;
  VMIC_CO_TRY_VOID(co_await file->pread(0, hdr));
  VMIC_CO_TRY(parsed, parse_header_area(hdr));
  VMIC_CO_TRY_VOID(check_table_bounds(parsed.h, file->size()));

  auto dev = std::unique_ptr<Qcow2Device>(
      new Qcow2Device(std::move(file), std::move(parsed)));
  dev->ro_mode_ = !opt.writable;

  // Load the L1 table (QEMU keeps the whole L1 in memory as well).
  {
    const std::uint64_t bytes = std::uint64_t{dev->h_.l1_size} * 8;
    std::vector<std::uint8_t> buf(bytes, 0);
    VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->h_.l1_table_offset, buf));
    dev->l1_.resize(dev->h_.l1_size);
    for (std::uint32_t i = 0; i < dev->h_.l1_size; ++i) {
      dev->l1_[i] = load_be64(buf.data() + std::uint64_t{i} * 8);
    }
  }

  // Load the refcount table; the per-cluster mirror is loaded lazily on
  // first allocation (read-only consumers never pay for it).
  {
    const std::uint64_t bytes =
        std::uint64_t{dev->h_.refcount_table_clusters} * dev->ly_.cluster_size();
    std::vector<std::uint8_t> buf(bytes, 0);
    VMIC_CO_TRY_VOID(
        co_await dev->file_->pread(dev->h_.refcount_table_offset, buf));
    dev->rt_.resize(bytes / 8);
    for (std::size_t i = 0; i < dev->rt_.size(); ++i) {
      dev->rt_[i] = load_be64(buf.data() + i * 8);
    }
  }

  dev->lazy_ = opt.lazy_refcounts;
  if (opt.hub != nullptr) dev->bind_obs(opt.hub);

  // Read the journal header (one sector). It is only ever rewritten as a
  // single atomic sector, so a crash leaves either the old or the new
  // header — a failed decode means external corruption and forces repair
  // onto the full-rebuild path.
  if (dev->journal_) {
    std::uint8_t sec[kJournalSectorSize];
    VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->journal_->offset, sec));
    JournalHeader jh;
    if (decode_journal_header(sec, jh) &&
        jh.sector_count == dev->journal_sector_count_) {
      dev->journal_gen_ = jh.generation;
    } else {
      dev->journal_header_bad_ = true;
      // Recover a safe generation floor: any future bump must not
      // collide with a surviving record's generation (a collision could
      // replay a stale record against state it no longer describes).
      std::vector<std::uint8_t> region(dev->journal_->size, 0);
      VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->journal_->offset,
                                                  region));
      for (std::uint64_t s = 1; s < dev->journal_sector_count_; ++s) {
        JournalRecord r;
        if (decode_journal_record(
                std::span(region.data() + s * kJournalSectorSize,
                          kJournalSectorSize),
                r)) {
          dev->journal_gen_ = std::max(dev->journal_gen_, r.generation);
        }
      }
    }
  }

  // The dirty bit marks an unclean shutdown: on-disk refcounts may be
  // stale (over-counted only — see the barrier argument in DESIGN.md).
  // Writable opens rebuild them before trusting the allocator (qemu
  // auto-repairs dirty images the same way); journaled images replay the
  // journal instead — O(journal), which is why repair runs *before*
  // load_refcounts pays the O(image) mirror load. Tools that want to
  // report the damage first pass auto_repair_dirty = false.
  if ((dev->h_.incompatible_features & kIncompatDirty) != 0) {
    dev->dirty_ = true;
    dev->dirty_inherited_ = true;
    bump(dev->agg_.repair_dirty_opens);
    if (opt.writable && !dev->file_->read_only() && opt.auto_repair_dirty) {
      VMIC_CO_TRY(rep, co_await dev->repair());
      (void)rep;
    }
  }

  if (opt.writable && !dev->file_->read_only()) {
    VMIC_CO_TRY_VOID(co_await dev->load_refcounts());
  }

  // Open the backing chain. Per the paper (§4.3): open writable first —
  // a cache image needs write permission for copy-on-read — then demote
  // to read-only if it turns out not to be a cache image.
  if (!dev->backing_path_.empty() && !opt.no_backing) {
    if (!opt.resolver) co_return Errc::invalid_argument;
    VMIC_CO_TRY(backing, co_await opt.resolver(dev->backing_path_,
                                               /*writable=*/true));
    if (!backing->is_cache_image() || opt.cache_backing_ro) {
      backing->set_read_only_mode(true);
    }
    dev->backing_ = std::move(backing);
  }

  co_return block::DevicePtr{std::move(dev)};
}

void Qcow2Device::bind_obs(obs::Hub* hub) {
  hub_ = hub;
  const obs::Labels ls{{"image", is_cache_image() ? "cache" : "plain"}};
  auto& r = hub_->registry;
  agg_.guest_reads = &r.counter("qcow2.guest_reads", ls);
  agg_.guest_writes = &r.counter("qcow2.guest_writes", ls);
  agg_.bytes_read = &r.counter("qcow2.bytes_read", ls);
  agg_.bytes_written = &r.counter("qcow2.bytes_written", ls);
  agg_.backing_reads = &r.counter("qcow2.backing_reads", ls);
  agg_.bytes_from_backing = &r.counter("qcow2.bytes_from_backing", ls);
  agg_.cor_fills = &r.counter("qcow2.cor_fills", ls);
  agg_.cor_clusters = &r.counter("qcow2.cor_clusters", ls);
  agg_.cor_bytes = &r.counter("qcow2.cor_bytes", ls);
  agg_.cor_stopped = &r.counter("qcow2.cor_stopped", ls);
  agg_.cor_inflight_waits = &r.counter("qcow2.cor.inflight_waits", ls);
  agg_.cor_dedup_hits = &r.counter("qcow2.cor.dedup_hits", ls);
  agg_.alloc_lock_waits = &r.counter("qcow2.alloc_lock_waits", ls);
  agg_.repair_runs = &r.counter("qcow2.repair.runs", ls);
  agg_.repair_dirty_opens = &r.counter("qcow2.repair.dirty_opens", ls);
  agg_.repair_entries_cleared = &r.counter("qcow2.repair.entries_cleared", ls);
  agg_.repair_leaks_dropped = &r.counter("qcow2.repair.leaks_dropped", ls);
  agg_.repair_corruptions_fixed =
      &r.counter("qcow2.repair.corruptions_fixed", ls);
  agg_.journal_appends = &r.counter("qcow2.journal.appends", ls);
  agg_.journal_checkpoints = &r.counter("qcow2.journal.checkpoints", ls);
  agg_.journal_replays = &r.counter("qcow2.journal.replays", ls);
  agg_.journal_entries_replayed =
      &r.counter("qcow2.journal.entries_replayed", ls);
  agg_.journal_fallbacks = &r.counter("qcow2.journal.fallbacks", ls);
  track_ = hub_->tracer.track("qcow2");
}

sim::Task<Result<void>> Qcow2Device::load_refcounts() {
  if (refcounts_loaded_) co_return ok_result();
  const std::uint64_t cs = ly_.cluster_size();
  refcounts_.assign(div_ceil(file_->size(), cs), 0);
  std::vector<std::uint8_t> buf(cs, 0);
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    const std::uint64_t block_off = rt_[bi] & kOffsetMask;
    if (block_off == 0) continue;
    VMIC_CO_TRY_VOID(co_await file_->pread(block_off, buf));
    const std::uint64_t first = bi * ly_.refcounts_per_block();
    for (std::uint64_t k = 0; k < ly_.refcounts_per_block(); ++k) {
      const std::uint64_t idx = first + k;
      if (idx >= refcounts_.size()) break;
      refcounts_[idx] = load_be16(buf.data() + k * 2);
    }
  }
  // Dirty journaled image: the on-disk blocks are stale for every
  // journaled mutation since the last checkpoint. Overlay the journal's
  // verified effective counts so the mirror (and check()) see the real
  // durable state mid-window.
  if (journal_ && (h_.incompatible_features & kIncompatDirty) != 0 &&
      !journal_header_bad_) {
    VMIC_CO_TRY(scan, co_await journal_scan());
    if (scan.header_ok) {
      for (const auto& [c, v] : scan.effective) {
        if (c >= refcounts_.size()) refcounts_.resize(c + 1, 0);
        refcounts_[c] = v;
      }
    }
  }
  refcounts_loaded_ = true;
  index_free_runs();
  co_return ok_result();
}

// ===========================================================================
// address translation
// ===========================================================================

sim::Task<Result<std::vector<std::uint64_t>*>> Qcow2Device::load_l2(
    std::uint64_t l2_host_off) {
  auto it = l2_tables_.find(l2_host_off);
  if (it != l2_tables_.end()) co_return it->second.get();

  const std::uint64_t cs = ly_.cluster_size();
  std::vector<std::uint8_t> buf(cs, 0);
  VMIC_CO_TRY_VOID(co_await file_->pread(l2_host_off, buf));
  // Another coroutine may have loaded (and possibly mutated) this table
  // while we awaited the read — keep theirs, or emplace() would silently
  // fail and return a pointer the caller believes is cached.
  if (auto again = l2_tables_.find(l2_host_off); again != l2_tables_.end()) {
    co_return again->second.get();
  }
  auto table = std::make_unique<std::vector<std::uint64_t>>(ly_.l2_entries());
  for (std::uint64_t i = 0; i < ly_.l2_entries(); ++i) {
    (*table)[i] = load_be64(buf.data() + i * 8);
  }
  auto* raw = table.get();
  l2_tables_.emplace(l2_host_off, std::move(table));
  co_return raw;
}

sim::Task<Result<Qcow2Device::Extent>> Qcow2Device::map_range(
    std::uint64_t vaddr, std::uint64_t len) {
  assert(vaddr < h_.size);
  len = std::min(len, h_.size - vaddr);
  // Cap at the coverage boundary of one L2 table.
  const std::uint64_t l2_span = ly_.bytes_per_l2();
  len = std::min(len, l2_span - (vaddr & (l2_span - 1)));

  const std::uint64_t i1 = ly_.l1_index(vaddr);
  if (i1 >= l1_.size()) co_return Errc::corrupt;
  const std::uint64_t l2_off = l1_[i1] & kOffsetMask;
  if (l2_off == 0) co_return Extent{MapKind::unallocated, 0, len};

  VMIC_CO_TRY(l2, co_await load_l2(l2_off));
  const std::uint64_t cs = ly_.cluster_size();
  std::uint64_t i2 = ly_.l2_index(vaddr);
  const std::uint64_t in_cl = ly_.in_cluster(vaddr);

  auto classify = [](std::uint64_t entry) {
    // Compressed before anything else: a compressed descriptor's offset
    // and sector-count fields overlap both kFlagZero and kOffsetMask.
    if ((entry & kFlagCompressed) != 0) return MapKind::compressed;
    if ((entry & kFlagZero) != 0) return MapKind::zero;
    if ((entry & kOffsetMask) == 0) return MapKind::unallocated;
    return MapKind::data;
  };

  const std::uint64_t first_entry = (*l2)[i2];
  const MapKind kind = classify(first_entry);
  const std::uint64_t first = first_entry & kOffsetMask;

  std::uint64_t run = cs - in_cl;
  if (kind == MapKind::compressed) {
    // Compressed extents never coalesce: each carries its own descriptor.
    co_return Extent{MapKind::compressed, 0, std::min(len, run), first_entry};
  }
  if (kind != MapKind::data) {
    while (run < len && ++i2 < ly_.l2_entries() &&
           classify((*l2)[i2]) == kind) {
      run += cs;
    }
    co_return Extent{kind, 0, std::min(len, run)};
  }
  std::uint64_t expect = first + cs;
  while (run < len && ++i2 < ly_.l2_entries() &&
         classify((*l2)[i2]) == MapKind::data &&
         ((*l2)[i2] & kOffsetMask) == expect) {
    run += cs;
    expect += cs;
  }
  co_return Extent{MapKind::data, first + in_cl, std::min(len, run)};
}

sim::Task<Result<Qcow2Device::MapStatus>> Qcow2Device::map_status(
    std::uint64_t vaddr, std::uint64_t max_len) {
  if (vaddr >= h_.size) co_return Errc::out_of_range;
  VMIC_CO_TRY(ext, co_await map_range(vaddr, max_len));
  co_return MapStatus{ext.kind, ext.len};
}

sim::Task<Result<bool>> Qcow2Device::is_allocated(std::uint64_t vaddr) {
  if (vaddr >= h_.size) co_return Errc::out_of_range;
  VMIC_CO_TRY(ext, co_await map_range(vaddr, 1));
  co_return ext.kind != MapKind::unallocated;
}

std::uint64_t Qcow2Device::l2_slot(std::uint64_t vaddr) const {
  return (l1_[ly_.l1_index(vaddr)] & kOffsetMask) + ly_.l2_index(vaddr) * 8;
}

sim::Task<Result<void>> Qcow2Device::ensure_l2_table(std::uint64_t vaddr) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t i1 = ly_.l1_index(vaddr);
  if (i1 >= l1_.size()) co_return Errc::corrupt;
  if ((l1_[i1] & kOffsetMask) != 0) co_return ok_result();

  // Allocate and zero a fresh L2 table, then hook it into the L1.
  const RefHint hint{h_.l1_table_offset + i1 * 8, /*run=*/true};
  VMIC_CO_TRY(l2_off, co_await alloc_clusters(1, hint));
  std::vector<std::uint8_t> zeros(cs, 0);
  auto wr = co_await file_->pwrite(l2_off, zeros);
  // Barrier: the table must be durably zeroed before the L1 publishes it
  // (a crash must never expose a table of leftover garbage entries).
  if (wr.ok()) wr = co_await file_->flush();
  if (!wr.ok()) {
    // Nothing references the table yet: release it so a clean I/O
    // failure leaks nothing.
    VMIC_CO_TRY_VOID(co_await free_clusters(l2_off, 1, hint));
    co_return wr.error();
  }
  l2_tables_.emplace(
      l2_off, std::make_unique<std::vector<std::uint64_t>>(ly_.l2_entries()));
  l1_[i1] = l2_off | kFlagCopied;
  ++l2_clusters_;
  std::uint8_t be[8];
  store_be64(be, l1_[i1]);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(h_.l1_table_offset + i1 * 8, be));
  co_return ok_result();
}

// ===========================================================================
// allocation & refcounts
// ===========================================================================

Result<void> Qcow2Device::quota_check(std::uint64_t end_cluster) const {
  if (!cache_) return ok_result();
  if (end_cluster * ly_.cluster_size() > cache_->quota) {
    return Errc::no_space;
  }
  return ok_result();
}

void Qcow2Device::index_free_runs() {
  free_runs_.clear();
  const std::uint64_t size = refcounts_.size();
  std::uint64_t i = 0;
  while (i < size) {
    if (refcounts_[i] != 0) {
      ++i;
      continue;
    }
    std::uint64_t j = i + 1;
    while (j < size && refcounts_[j] == 0) ++j;
    free_runs_.emplace(i, j);
    i = j;
  }
}

void Qcow2Device::claim_run(std::uint64_t first, std::uint64_t end) {
  // Remove [first, end) from the index; runs are maximal and disjoint, so
  // at most the straddling edges survive as clipped remainders.
  auto it = free_runs_.upper_bound(first);
  if (it != free_runs_.begin()) --it;
  while (it != free_runs_.end() && it->first < end) {
    const std::uint64_t s = it->first;
    const std::uint64_t e = it->second;
    if (e <= first) {
      ++it;
      continue;
    }
    it = free_runs_.erase(it);
    if (s < first) free_runs_.emplace(s, first);
    if (e > end) {
      free_runs_.emplace(end, e);
      break;
    }
  }
}

void Qcow2Device::release_run(std::uint64_t first, std::uint64_t end) {
  // Insert [first, end), merging with adjacent or overlapping runs so the
  // index stays maximal.
  auto next = free_runs_.lower_bound(first);
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    if (prev->second >= first) {
      first = prev->first;
      end = std::max(end, prev->second);
      free_runs_.erase(prev);
    }
  }
  while (next != free_runs_.end() && next->first <= end) {
    end = std::max(end, next->second);
    next = free_runs_.erase(next);
  }
  free_runs_.emplace(first, end);
}

std::optional<std::uint64_t> Qcow2Device::find_free_run(std::uint64_t n) {
  // First fit over the free-run index, reproducing the placement of the
  // legacy linear scan exactly: candidates are considered from
  // max(run start, free_guess_) upwards, and the run touching the end of
  // the file always fits (the file grows underneath it). The region
  // beyond the end of the file counts as free.
  const std::uint64_t size = refcounts_.size();
  auto it = free_runs_.upper_bound(free_guess_);
  if (it != free_runs_.begin()) {
    auto p = std::prev(it);
    if (p->second > free_guess_) it = p;
  }
  for (; it != free_runs_.end(); ++it) {
    const std::uint64_t s = std::max(it->first, free_guess_);
    if (it->second == size) return s;  // trailing run: append/straddle
    if (it->second - s >= n) return s;
  }
  return size;  // append at the end of the file
}

sim::Task<Result<std::uint64_t>> Qcow2Device::alloc_clusters(
    std::uint64_t n, RefHint hint) {
  assert(n > 0);
  assert(alloc_mutex_.locked() && "allocation requires alloc_mutex_");
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  const auto found = find_free_run(n);
  assert(found.has_value());
  const std::uint64_t idx = *found;
  const std::uint64_t end = idx + n;
  VMIC_CO_TRY_VOID(quota_check(std::max<std::uint64_t>(end, refcounts_.size())));

  const std::uint64_t old_size = refcounts_.size();
  if (end > refcounts_.size()) refcounts_.resize(end, 0);
  for (std::uint64_t i = idx; i < end; ++i) refcounts_[i] = 1;
  claim_run(idx, end);

  // Make sure every touched refcount block exists, then persist entries.
  // Journal mode: the record IS the persistence — the blocks are only
  // written back at checkpoints. Rides the caller's publish barrier.
  const std::uint64_t rpb = ly_.refcounts_per_block();
  Result<void> r = ok_result();
  for (std::uint64_t bi = idx / rpb; r.ok() && bi <= (end - 1) / rpb; ++bi) {
    r = co_await ensure_refcount_block(bi * rpb);
  }
  if (r.ok() && journal_) {
    r = co_await journal_append(
        kJournalOpAlloc | (hint.run ? kJournalRefRun : 0), idx, n, hint);
  } else if (r.ok()) {
    r = co_await write_refcount_entries(idx, n);
  }
  if (!r.ok()) {
    // Roll back the marks so the mirror stays consistent; refcount blocks
    // created on the way are live and keep theirs. The rare failure path
    // just rebuilds the free-run index from scratch.
    for (std::uint64_t i = idx; i < end; ++i) refcounts_[i] = 0;
    while (refcounts_.size() > old_size && refcounts_.back() == 0) {
      refcounts_.pop_back();
    }
    index_free_runs();
    co_return r.error();
  }
  free_guess_ = end;
  co_return idx * ly_.cluster_size();
}

sim::Task<Result<void>> Qcow2Device::ensure_refcount_block(
    std::uint64_t cluster_idx) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  const std::uint64_t bi = cluster_idx / rpb;
  if (bi >= rt_.size()) {
    VMIC_CO_TRY_VOID(co_await grow_refcount_table(bi));
  }
  if ((rt_[bi] & kOffsetMask) != 0) co_return ok_result();

  // Allocate a cluster for the new block by hand (cannot recurse through
  // alloc_clusters: that is what calls us).
  const auto found = find_free_run(1);
  assert(found.has_value());
  const std::uint64_t b = *found;
  VMIC_CO_TRY_VOID(
      quota_check(std::max<std::uint64_t>(b + 1, refcounts_.size())));
  if (b + 1 > refcounts_.size()) refcounts_.resize(b + 1, 0);
  refcounts_[b] = 1;
  claim_run(b, b + 1);
  rt_[bi] = b * ly_.cluster_size();

  auto persist = [&]() -> sim::Task<Result<void>> {
    // If the new block's own cluster is covered by a different (absent)
    // block, create that one too; recursion terminates because each level
    // covers rpb clusters.
    if (b / rpb != bi) {
      VMIC_CO_TRY_VOID(co_await ensure_refcount_block(b));
      // b's own refcount lives in the covering block. When the recursion
      // created that block just now it snapshotted the mirror (including
      // b); but when the block already existed nothing persisted b's
      // count — write it explicitly (idempotent in the first case).
      if (journal_) {
        VMIC_CO_TRY_VOID(co_await journal_append(
            kJournalOpAlloc | kJournalRefRun, b, 1,
            RefHint{h_.refcount_table_offset + bi * 8, /*run=*/true}));
      } else {
        VMIC_CO_TRY_VOID(co_await write_refcount_entries(b, 1));
      }
    } else if (journal_) {
      // b is covered by the very block being created: the full-block
      // write below persists it, but the record still retires correctly
      // at the next checkpoint and lets replay verify the allocation.
      VMIC_CO_TRY_VOID(co_await journal_append(
          kJournalOpAlloc | kJournalRefRun, b, 1,
          RefHint{h_.refcount_table_offset + bi * 8, /*run=*/true}));
    }

    // Persist the whole new block from the mirror, then its table entry.
    const std::uint64_t cs = ly_.cluster_size();
    std::vector<std::uint8_t> buf(cs, 0);
    const std::uint64_t first = bi * rpb;
    for (std::uint64_t k = 0; k < rpb; ++k) {
      const std::uint64_t i = first + k;
      if (i < refcounts_.size() && refcounts_[i] != 0) {
        store_be16(buf.data() + k * 2, refcounts_[i]);
      }
    }
    VMIC_CO_TRY_VOID(co_await file_->pwrite(rt_[bi], buf));
    // Barrier: the block's contents must be durable before the table
    // entry publishes it.
    VMIC_CO_TRY_VOID(co_await file_->flush());
    std::uint8_t be[8];
    store_be64(be, rt_[bi]);
    co_return co_await file_->pwrite(h_.refcount_table_offset + bi * 8, be);
  };
  auto r = co_await persist();
  if (!r.ok()) {
    // The table never published the block: forget it and free its
    // cluster, or the mirror would count into a block the file lacks.
    rt_[bi] = 0;
    refcounts_[b] = 0;
    release_run(b, b + 1);
  }
  co_return r;
}

sim::Task<Result<void>> Qcow2Device::write_refcount_entries(
    std::uint64_t first, std::uint64_t count) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  std::uint64_t i = first;
  const std::uint64_t end = first + count;
  while (i < end) {
    const std::uint64_t bi = i / rpb;
    const std::uint64_t block_end = std::min(end, (bi + 1) * rpb);
    const std::uint64_t block_off = rt_[bi] & kOffsetMask;
    assert(block_off != 0 && "refcount block must exist");
    std::vector<std::uint8_t> buf((block_end - i) * 2);
    for (std::uint64_t k = 0; k < block_end - i; ++k) {
      store_be16(buf.data() + k * 2, refcounts_[i + k]);
    }
    VMIC_CO_TRY_VOID(
        co_await file_->pwrite(block_off + (i - bi * rpb) * 2, buf));
    i = block_end;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::grow_refcount_table(
    std::uint64_t min_block_index) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t needed_entries =
      std::max<std::uint64_t>(min_block_index + 1, rt_.size() * 2);
  const std::uint64_t new_clusters = div_ceil(needed_entries * 8, cs);

  const auto found = find_free_run(new_clusters);
  assert(found.has_value());
  const std::uint64_t idx = *found;
  const std::uint64_t end = idx + new_clusters;
  VMIC_CO_TRY_VOID(
      quota_check(std::max<std::uint64_t>(end, refcounts_.size())));
  if (end > refcounts_.size()) refcounts_.resize(end, 0);
  for (std::uint64_t i = idx; i < end; ++i) refcounts_[i] = 1;
  claim_run(idx, end);

  const std::uint64_t old_off = h_.refcount_table_offset;
  const std::uint64_t old_clusters = h_.refcount_table_clusters;

  rt_.resize(new_clusters * (cs / 8), 0);
  h_.refcount_table_offset = idx * cs;
  h_.refcount_table_clusters = static_cast<std::uint32_t>(new_clusters);

  // The new table's own clusters (and possibly blocks for them) must be
  // refcounted; rt_ now has capacity for any block index.
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::uint64_t bi = idx / rpb; bi <= (end - 1) / rpb; ++bi) {
    VMIC_CO_TRY_VOID(co_await ensure_refcount_block(bi * rpb));
  }
  if (journal_) {
    // The new table's clusters are referenced by the header's own
    // refcount-table pointer (offset 48) once the switch-over publishes.
    VMIC_CO_TRY_VOID(co_await journal_append(
        kJournalOpAlloc | kJournalRefRun, idx, new_clusters,
        RefHint{48, /*run=*/true}));
  } else {
    VMIC_CO_TRY_VOID(co_await write_refcount_entries(idx, new_clusters));
  }

  // Persist the full new table.
  {
    std::vector<std::uint8_t> buf(new_clusters * cs, 0);
    pack_be64(rt_.data(), rt_.size(), buf.data());
    VMIC_CO_TRY_VOID(co_await file_->pwrite(h_.refcount_table_offset, buf));
  }
  // Barrier: the new table must be durable before the header points at it.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  // Point the header at it.
  {
    std::uint8_t be[12];
    store_be64(be, h_.refcount_table_offset);
    store_be32(be + 8, h_.refcount_table_clusters);
    VMIC_CO_TRY_VOID(co_await file_->pwrite(48, be));
  }
  // Barrier: the switch-over must be durable before the old table's
  // clusters are released for reuse — a crash in between may leak the
  // old table, never point at a reclaimed one.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  // Release the old table's clusters.
  const std::uint64_t old_first = old_off / cs;
  for (std::uint64_t i = 0; i < old_clusters; ++i) {
    refcounts_[old_first + i] = 0;
  }
  release_run(old_first, old_first + old_clusters);
  if (journal_) {
    if (!lazy_) {
      VMIC_CO_TRY_VOID(co_await journal_append(
          kJournalOpFree | kJournalRefRun, old_first, old_clusters,
          RefHint{48, /*run=*/true}));
    }
    // Earlier records may reference slots inside the *old* table (every
    // refcount-block record names its table entry by file offset). Those
    // clusters are free for reuse now, and reused bytes would break the
    // records' reference checks — checkpoint to retire every record
    // before any reuse can happen.
    VMIC_CO_TRY_VOID(co_await journal_checkpoint());
  } else if (!lazy_) {
    VMIC_CO_TRY_VOID(co_await write_refcount_entries(old_first, old_clusters));
  }
  free_guess_ = std::min(free_guess_, old_first);
  co_return ok_result();
}

// ===========================================================================
// read path (incl. copy-on-read)
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::read_from_backing(
    std::uint64_t vaddr, std::span<std::uint8_t> dst) {
  if (fetch_hook_) {
    // Peer tier first; a miss/timeout there (false or an error) falls
    // through to the normal backing read, so the hook can only ever
    // divert traffic, never lose it.
    auto served = co_await fetch_hook_(vaddr, dst);
    if (served.ok() && *served) co_return ok_result();
  }
  if (!backing_) {
    std::memset(dst.data(), 0, dst.size());
    co_return ok_result();
  }
  ++stats_.backing_reads;
  stats_.bytes_from_backing += dst.size();
  bump(agg_.backing_reads);
  bump(agg_.bytes_from_backing, dst.size());
  if (vaddr >= backing_->size()) {
    std::memset(dst.data(), 0, dst.size());
    co_return ok_result();
  }
  const std::uint64_t avail = backing_->size() - vaddr;
  if (dst.size() <= avail) {
    co_return co_await backing_->read(vaddr, dst);
  }
  VMIC_CO_TRY_VOID(co_await backing_->read(vaddr, dst.first(avail)));
  std::memset(dst.data() + avail, 0, dst.size() - avail);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::read(std::uint64_t off,
                                          std::span<std::uint8_t> dst) {
  if (off + dst.size() > h_.size) co_return Errc::out_of_range;
  ++stats_.guest_reads;
  stats_.bytes_read += dst.size();
  bump(agg_.guest_reads);
  bump(agg_.bytes_read, dst.size());

  std::uint64_t pos = off;
  const std::uint64_t end = off + dst.size();
  while (pos < end) {
    VMIC_CO_TRY(ext, co_await map_range(pos, end - pos));
    auto sub = dst.subspan(pos - off, ext.len);
    if (ext.kind == MapKind::data) {
      VMIC_CO_TRY_VOID(co_await file_->pread(ext.host_off, sub));
    } else if (ext.kind == MapKind::compressed) {
      VMIC_CO_TRY_VOID(co_await read_compressed(pos, ext, sub));
    } else if (ext.kind == MapKind::zero) {
      std::memset(sub.data(), 0, sub.size());
    } else if (backing_) {
      if (cache_ && cor_enabled_ && !read_only()) {
        VMIC_CO_TRY_VOID(co_await cor_fill_read(pos, sub));
      } else {
        VMIC_CO_TRY_VOID(co_await read_from_backing(pos, sub));
      }
    } else {
      std::memset(sub.data(), 0, sub.size());
    }
    pos += ext.len;
  }
  co_return ok_result();
}

sim::InlineMutex::Awaiter Qcow2Device::lock_alloc() noexcept {
  if (alloc_mutex_.locked()) {
    ++stats_.alloc_lock_waits;
    bump(agg_.alloc_lock_waits);
  }
  return alloc_mutex_.lock();
}

void Qcow2Device::cor_stop(Errc cause) {
  // Transition-once: the first quota (or medium) failure disables
  // population for the rest of this open; concurrent fills that fail in
  // the same window must not double-count the stop event (§4.3 "read" —
  // the guest reads themselves all succeed).
  if (!cor_enabled_) return;
  cor_enabled_ = false;
  ++stats_.cor_stopped;
  bump(agg_.cor_stopped);
  VMIC_LOG_DEBUG("cache population stopped: %s",
                 std::string(to_string(cause)).c_str());
}

/// Unallocated-extent read on a CoR-active cache image. The first reader
/// of a cluster range becomes the fill owner: it holds the range in
/// cor_inflight_ across backing fetch + store, so fills to disjoint
/// ranges proceed in parallel while overlapping readers queue and are
/// served locally afterwards — exactly one backing fetch per cluster
/// (single-flight, as QEMU's copy-on-read serialises overlapping
/// requests).
sim::Task<Result<void>> Qcow2Device::cor_fill_read(
    std::uint64_t pos, std::span<std::uint8_t> dst) {
  const std::uint64_t cs = ly_.cluster_size();
  const sim::RangeGuard guard = co_await cor_inflight_.acquire(
      align_down(pos, cs), align_up(pos + dst.size(), cs));
  if (guard.waited()) {
    // Someone filled (or tried to fill) our clusters while we queued:
    // serve from the cache where possible instead of re-fetching.
    ++stats_.cor_inflight_waits;
    bump(agg_.cor_inflight_waits);
    co_return co_await cor_read_after_wait(pos, dst);
  }
  VMIC_CO_TRY_VOID(co_await read_from_backing(pos, dst));
  if (!cor_enabled_) co_return ok_result();  // a stop raced with us
  obs::Span fill;
  if (obs::tracing(hub_)) {
    fill = hub_->tracer.span(track_, "qcow2.cor_fill", "qcow2",
                             "\"bytes\":" + std::to_string(dst.size()));
  }
  auto r = co_await cor_store(pos, dst);
  if (!r.ok()) {
    // Quota exhausted (or the medium failed): stop populating, but the
    // guest read itself has succeeded (§4.3 "read").
    cor_stop(r.error());
  }
  co_return ok_result();
}

/// Re-examine a range whose fill we waited out (we now own the range
/// lock): allocated clusters are served locally (the dedup win), anything
/// still absent — the fill failed or stopped at the quota edge — falls
/// back to the backing image with a fill attempt of our own.
sim::Task<Result<void>> Qcow2Device::cor_read_after_wait(
    std::uint64_t pos, std::span<std::uint8_t> dst) {
  const std::uint64_t cs = ly_.cluster_size();
  std::uint64_t p = pos;
  const std::uint64_t end = pos + dst.size();
  while (p < end) {
    VMIC_CO_TRY(ext, co_await map_range(p, end - p));
    auto sub = dst.subspan(p - pos, ext.len);
    if (ext.kind == MapKind::data || ext.kind == MapKind::compressed) {
      if (ext.kind == MapKind::data) {
        VMIC_CO_TRY_VOID(co_await file_->pread(ext.host_off, sub));
      } else {
        VMIC_CO_TRY_VOID(co_await read_compressed(p, ext, sub));
      }
      const std::uint64_t clusters =
          (align_up(p + ext.len, cs) - align_down(p, cs)) / cs;
      stats_.cor_dedup_hits += clusters;
      bump(agg_.cor_dedup_hits, clusters);
    } else if (ext.kind == MapKind::zero) {
      std::memset(sub.data(), 0, sub.size());
    } else {
      VMIC_CO_TRY_VOID(co_await read_from_backing(p, sub));
      if (cor_enabled_ && !read_only()) {
        auto r = co_await cor_store(p, sub);
        if (!r.ok()) cor_stop(r.error());
      }
    }
    p += ext.len;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::cor_store(
    std::uint64_t vaddr, std::span<const std::uint8_t> data) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(vaddr, cs);
  const std::uint64_t hi = align_up(vaddr + data.size(), cs);

  // Cluster-granularity expansion: the head/tail fill is fetched from the
  // backing image. This is exactly the effect the paper measures in
  // Fig 9 — at 64 KiB clusters a small read forces a large fill, causing
  // *more* storage-node traffic than plain QCOW2; at 512 B clusters the
  // fill is empty for sector-aligned guest I/O.
  VMIC_CO_TRY(buf,
              co_await cluster_buffer(vaddr, data, /*from_backing=*/true));

  // Store the runs of clusters that are still absent. read() maps the
  // extent before cor_fill_read takes the range lock, so a fill that
  // completed while this reader awaited its L2 read in map_range leaves
  // clusters already allocated — and the lock is then taken unwaited.
  std::uint64_t pos = lo;
  bool stored = false;
  while (pos < hi && pos < h_.size) {
    VMIC_CO_TRY(ext, co_await map_range(pos, hi - pos));
    if (ext.kind != MapKind::unallocated) {
      pos += ext.len;
      continue;
    }
    const std::span<const std::uint8_t> run(buf.data() + (pos - lo),
                                            div_ceil(ext.len, cs) * cs);
    VMIC_CO_TRY(got, co_await store_run(pos, run, /*cor=*/true));
    stored = true;
    pos += got * cs;
  }
  if (stored) {
    ++stats_.cor_fills;
    bump(agg_.cor_fills);
    if (fill_observer_) {
      // Every cluster in [lo, hi) within the disk is now servable from
      // this file: the loop published the previously-absent runs and
      // skipped only ranges that were already allocated.
      fill_observer_(lo, std::min(hi, h_.size));
    }
  }
  co_return ok_result();
}

sim::Task<Result<std::vector<std::uint8_t>>> Qcow2Device::cluster_buffer(
    std::uint64_t vaddr, std::span<const std::uint8_t> data,
    bool from_backing) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(vaddr, cs);
  const std::uint64_t hi = align_up(vaddr + data.size(), cs);
  std::vector<std::uint8_t> buf(hi - lo, 0);
  std::memcpy(buf.data() + (vaddr - lo), data.data(), data.size());
  if (!from_backing) co_return buf;
  if (vaddr > lo) {
    VMIC_CO_TRY_VOID(
        co_await read_from_backing(lo, std::span(buf.data(), vaddr - lo)));
  }
  const std::uint64_t data_end = vaddr + data.size();
  const std::uint64_t fill_end = std::min(hi, h_.size);
  if (fill_end > data_end) {
    VMIC_CO_TRY_VOID(co_await read_from_backing(
        data_end,
        std::span(buf.data() + (data_end - lo), fill_end - data_end)));
  }
  co_return buf;
}

sim::Task<Result<std::uint64_t>> Qcow2Device::store_run(
    std::uint64_t vaddr, std::span<const std::uint8_t> data, bool cor) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t n = data.size() / cs;
  assert((vaddr & (cs - 1)) == 0 && n > 0 && data.size() == n * cs);
  const bool compress = cor && cor_compress_;

  // One placement: a plain run of whole clusters, or one compressed
  // payload packed sector-aligned into the open packing cluster.
  struct Piece {
    std::uint64_t pos = 0;       // guest offset of the first cluster
    std::uint64_t entry = 0;     // L2 entry of the first cluster
    std::uint64_t clusters = 1;  // run length (compressed: 1)
    std::uint64_t off = 0;       // file offset of the payload
    RefHint slots{};
    std::vector<std::uint8_t> packed;  // compressed payload; empty = plain
  };
  const auto payload = [&](const Piece& p) {
    return p.packed.empty() ? data.subspan(p.pos - vaddr, p.clusters * cs)
                            : std::span<const std::uint8_t>(p.packed);
  };

  // Place everything under one lock hold. Payloads are sector-granular,
  // so only a shrink of at least one full sector saves anything; an
  // incompressible cluster is placed plainly. A packed payload's incref
  // lands before the payload and the publish: a crash in between leaves
  // an over-count only, which repair() drops.
  auto place = [&](std::uint64_t pos) -> sim::Task<Result<Piece>> {
    // The L2 table is created before the data clusters: a quota failure
    // then never strands an unreferenced (leaked) data cluster.
    VMIC_CO_TRY_VOID(co_await ensure_l2_table(pos));
    Piece p;
    p.pos = pos;
    p.slots = RefHint{l2_slot(pos), /*run=*/false};
    std::uint64_t want = n - (pos - vaddr) / cs;
    if (compress) {
      want = 1;
      std::vector<std::uint8_t> comp(cs);
      const std::size_t csize =
          cs > 512
              ? lzss_compress(data.subspan(pos - vaddr, cs), comp, cs - 512)
              : 0;
      if (csize > 0) {
        const std::uint64_t sectors = div_ceil(csize, 512);
        if (comp_cluster_off_ != 0 &&
            comp_next_sector_ + sectors <= cs / 512) {
          // One more payload in the open packing cluster: one more
          // reference.
          const std::uint64_t c = comp_cluster_off_ / cs;
          VMIC_CO_TRY_VOID(co_await ensure_dirty());
          if (refcounts_[c] == 0xffff) co_return Errc::corrupt;
          ++refcounts_[c];
          auto w = co_await write_refcount_entries(c, 1);
          if (!w.ok()) {
            --refcounts_[c];  // never persisted
            co_return w.error();
          }
        } else {
          // Fresh packing cluster; the old one's free tail is wasted.
          VMIC_CO_TRY(host, co_await alloc_clusters(1, p.slots));
          comp_cluster_off_ = host;
          comp_next_sector_ = 0;
          ++data_clusters_;
        }
        p.off = comp_cluster_off_ + comp_next_sector_ * 512;
        p.entry =
            ly_.encode_compressed(Layout::CompressedDesc{p.off, sectors});
        p.packed.assign(comp.begin(), comp.begin() + csize);
        p.packed.resize(sectors * 512, 0);
        comp_next_sector_ += sectors;
        if (comp_next_sector_ >= cs / 512) {
          comp_cluster_off_ = 0;
          comp_next_sector_ = 0;
        }
        co_return p;
      }
    }
    // All-or-nothing allocation first; near the quota edge, degrade to
    // one cluster so the cache fills up to the quota exactly ("the first
    // n blocks are stored until the quota is reached", §3.2).
    auto r = co_await alloc_clusters(want, p.slots);
    if (!r.ok() && r.error() == Errc::no_space && want > 1) {
      want = 1;
      r = co_await alloc_clusters(1, p.slots);
    }
    if (!r.ok()) co_return r.error();
    p.off = *r;
    p.entry = *r | kFlagCopied;
    p.clusters = want;
    co_return p;
  };
  std::vector<Piece> pieces;
  std::optional<Errc> err;
  {
    auto guard = co_await lock_alloc();
    for (std::uint64_t pos = vaddr; pos < vaddr + n * cs;) {
      auto r = co_await place(pos);
      if (!r.ok()) {
        err = r.error();
        break;
      }
      pos += r->clusters * cs;
      pieces.push_back(std::move(*r));
      // A plain run places all-or-nothing, or one cluster at the quota
      // edge; the caller stores the rest with further calls.
      if (!compress) break;
    }
  }
  // A failed plain placement holds nothing. A compressed run publishes
  // what it placed before the failure, taking the publish lock even when
  // that is nothing.
  if (pieces.empty() && !compress) co_return *err;

  // Payload writes, outside the lock (disjoint fills overlap on the bulk
  // transfer), one per file-contiguous span of pieces. Then ONE flush
  // barrier for the whole run: every payload is durable before any L2
  // entry publishes it — a crash may lose clusters (leak), never expose a
  // mapped cluster of torn bytes. Flushing per cluster would charge a
  // disk positioning cost per 4 KiB and dominate fill latency.
  Result<void> wr = ok_result();
  std::vector<std::uint8_t> joined;
  for (std::size_t i = 0; i < pieces.size() && wr.ok();) {
    std::size_t j = i + 1;
    while (j < pieces.size() &&
           pieces[j].off == pieces[j - 1].off + payload(pieces[j - 1]).size()) {
      ++j;
    }
    std::span<const std::uint8_t> out = payload(pieces[i]);
    if (j > i + 1) {
      joined.clear();
      for (std::size_t k = i; k < j; ++k) {
        const auto bytes = payload(pieces[k]);
        joined.insert(joined.end(), bytes.begin(), bytes.end());
      }
      out = joined;
    }
    wr = co_await file_->pwrite(pieces[i].off, out);
    i = j;
  }
  if (wr.ok() && !pieces.empty()) wr = co_await file_->flush();

  // Publish every placement under one lock hold — virtually-contiguous
  // entries in one L2 table go out in one metadata write; publishing
  // only after the data landed means no reader maps a cluster whose bytes
  // are still in flight. When the payloads never landed, drop every
  // reference the run took instead (a clean failure must not leak;
  // packing-cluster over-counts are a crash-only artefact).
  std::vector<std::uint64_t> entries;
  std::uint64_t packed = 0;
  std::uint64_t saved = 0;
  {
    auto guard = co_await lock_alloc();
    if (!wr.ok()) {
      for (const Piece& p : pieces) {
        if (p.packed.empty()) {
          VMIC_CO_TRY_VOID(co_await free_clusters(p.off, p.clusters, p.slots));
        } else {
          VMIC_CO_TRY_VOID(co_await free_compressed_entry(p.entry, p.slots));
        }
      }
      co_return wr.error();
    }
    for (const Piece& p : pieces) {
      // A plain run maps consecutive host clusters.
      for (std::uint64_t k = 0; k < p.clusters; ++k) {
        entries.push_back(p.entry + k * cs);
      }
      if (!p.packed.empty()) {
        ++packed;
        saved += cs - p.packed.size();
      }
    }
    if (!entries.empty()) {
      VMIC_CO_TRY_VOID(co_await set_l2_raw_run(vaddr, entries));
    }
    data_clusters_ += entries.size() - packed;
  }
  const std::uint64_t stored = entries.size();
  if (cor) {
    stats_.cor_clusters += stored;
    stats_.cor_bytes += stored * cs;
    bump(agg_.cor_clusters, stored);
    bump(agg_.cor_bytes, stored * cs);
  }
  if (compress) {
    bump(agg_.comp_clusters, packed);
    bump(agg_.comp_bytes_saved, saved);
    bump(agg_.comp_fallbacks, stored - packed);
  }
  if (err) co_return *err;
  co_return stored;
}

// ===========================================================================
// compressed clusters
// ===========================================================================

void Qcow2Device::set_cor_compress(bool on) {
  if (on && journal_) {
    // The refcount journal's verified-recompute replay checks one
    // reference slot per recorded run and masks entries with kOffsetMask —
    // both break for shared compressed host clusters. Compression stays
    // off on journaled images (documented in DESIGN.md).
    return;
  }
  cor_compress_ = on;
  if (on && hub_ != nullptr && agg_.comp_clusters == nullptr) {
    const obs::Labels ls{{"image", is_cache_image() ? "cache" : "plain"}};
    auto& r = hub_->registry;
    agg_.comp_clusters = &r.counter("qcow2.compressed.clusters", ls);
    agg_.comp_bytes_saved = &r.counter("qcow2.compressed.bytes_saved", ls);
    agg_.comp_fallbacks = &r.counter("qcow2.compressed.fallbacks", ls);
    agg_.comp_reads = &r.counter("qcow2.compressed.reads", ls);
  }
}

sim::Task<Result<void>> Qcow2Device::read_compressed(
    std::uint64_t pos, const Extent& ext, std::span<std::uint8_t> dst) {
  const std::uint64_t cs = ly_.cluster_size();
  const Layout::CompressedDesc d = ly_.decode_compressed(ext.entry);
  if (!ly_.compressed_desc_sane(d)) co_return Errc::corrupt;
  std::vector<std::uint8_t> payload(d.sectors * 512, 0);
  VMIC_CO_TRY_VOID(co_await file_->pread(d.offset, payload));
  std::vector<std::uint8_t> cluster(cs, 0);
  if (!lzss_decompress(payload, cluster)) co_return Errc::corrupt;
  const std::uint64_t in_cl = pos & (cs - 1);
  std::memcpy(dst.data(), cluster.data() + in_cl, dst.size());
  bump(agg_.comp_reads);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::rewrite_compressed(
    std::uint64_t pos, const Extent& ext, std::span<const std::uint8_t> sub) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(pos, cs);

  // Decompress-modify: splice the write over the old cluster content.
  std::vector<std::uint8_t> cluster(cs, 0);
  VMIC_CO_TRY_VOID(co_await read_compressed(lo, ext, cluster));
  std::memcpy(cluster.data() + (pos - lo), sub.data(), sub.size());
  VMIC_CO_TRY_VOID(co_await store_run(lo, cluster, /*cor=*/false));
  auto guard = co_await lock_alloc();
  // Barrier: the new mapping must be durable before the old payload's
  // reference drops (free could hand the shared cluster out again).
  VMIC_CO_TRY_VOID(co_await file_->flush());
  co_return co_await free_compressed_entry(
      ext.entry, RefHint{l2_slot(lo), /*run=*/false});
}

sim::Task<Result<void>> Qcow2Device::free_compressed_entry(
    std::uint64_t entry, RefHint hint) {
  const std::uint64_t cs = ly_.cluster_size();
  const Layout::CompressedDesc d = ly_.decode_compressed(entry);
  if (!ly_.compressed_desc_sane(d)) co_return Errc::corrupt;
  const std::uint64_t host = align_down(d.offset, cs);
  VMIC_CO_TRY_VOID(co_await free_clusters(host, 1, hint));
  const std::uint64_t idx = host / cs;
  if (idx < refcounts_.size() && refcounts_[idx] == 0) {
    --data_clusters_;
    if (comp_cluster_off_ == host) {
      // Never append new payloads into a freed packing cluster.
      comp_cluster_off_ = 0;
      comp_next_sector_ = 0;
    }
  }
  co_return ok_result();
}

sim::Task<Result<Qcow2Device::CompressionStats>>
Qcow2Device::compression_stats() {
  CompressionStats out;
  const std::uint64_t cs = ly_.cluster_size();
  for (const std::uint64_t l1e : l1_) {
    const std::uint64_t l2_off = l1e & kOffsetMask;
    if (l2_off == 0) continue;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    for (const std::uint64_t e : *l2) {
      if ((e & kFlagCompressed) == 0) continue;
      const Layout::CompressedDesc d = ly_.decode_compressed(e);
      ++out.compressed_clusters;
      out.physical_bytes += d.sectors * 512;
      out.logical_bytes += cs;
    }
  }
  co_return out;
}

// ===========================================================================
// write path (guest writes, copy-on-write)
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::write(
    std::uint64_t off, std::span<const std::uint8_t> src) {
  if (off + src.size() > h_.size) co_return Errc::out_of_range;
  if (read_only()) co_return Errc::read_only;
  if (is_cache_image()) {
    // Immutability w.r.t. the base (§3): the guest never writes a cache;
    // only internal copy-on-read populates it.
    co_return Errc::read_only;
  }
  ++stats_.guest_writes;
  stats_.bytes_written += src.size();
  bump(agg_.guest_writes);
  bump(agg_.bytes_written, src.size());

  std::uint64_t pos = off;
  const std::uint64_t end = off + src.size();
  while (pos < end) {
    VMIC_CO_TRY(ext, co_await map_range(pos, end - pos));
    auto sub = src.subspan(pos - off, ext.len);
    if (ext.kind == MapKind::data) {
      VMIC_CO_TRY_VOID(co_await file_->pwrite(ext.host_off, sub));
    } else if (ext.kind == MapKind::compressed) {
      VMIC_CO_TRY_VOID(co_await rewrite_compressed(pos, ext, sub));
    } else {
      // Unallocated clusters fill their edges from the backing chain;
      // zero-flagged clusters fill with zeros.
      VMIC_CO_TRY_VOID(
          co_await cow_write(pos, sub,
                             /*fill_from_backing=*/ext.kind ==
                                 MapKind::unallocated));
    }
    pos += ext.len;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::cow_write(
    std::uint64_t vaddr, std::span<const std::uint8_t> src,
    bool fill_from_backing) {
  // Precondition: [vaddr, vaddr+len) holds no data clusters here.
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(vaddr, cs);

  // Copy-on-write fill: the parts of the boundary clusters not covered by
  // the write come from the backing chain (which may itself populate a
  // cache image below us — data from the base is allowed into the cache).
  // Zero-flagged clusters fill with zeros instead.
  VMIC_CO_TRY(buf, co_await cluster_buffer(vaddr, src, fill_from_backing));
  const std::uint64_t hi = lo + buf.size();
  const std::uint64_t l2_span = ly_.bytes_per_l2();
  for (std::uint64_t pos = lo; pos < hi;) {
    // Store runs must not cross an L2 boundary.
    const std::uint64_t chunk =
        std::min(hi - pos, l2_span - (pos & (l2_span - 1)));
    const std::span<const std::uint8_t> run(buf.data() + (pos - lo), chunk);
    VMIC_CO_TRY(got, co_await store_run(pos, run, /*cor=*/false));
    pos += got * cs;
  }
  co_return ok_result();
}

// ===========================================================================
// zero clusters / discard / resize
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::free_clusters(std::uint64_t host_off,
                                                   std::uint64_t count,
                                                   RefHint hint) {
  assert(alloc_mutex_.locked() && "freeing requires alloc_mutex_");
  const std::uint64_t first = host_off / ly_.cluster_size();
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (i >= refcounts_.size() || refcounts_[i] == 0) {
      co_return Errc::corrupt;
    }
    --refcounts_[i];
    if (refcounts_[i] == 0) release_run(i, i + 1);
  }
  // Lazy refcounts: decrements stay in the mirror while the dirty bit is
  // set — a crash leaves the on-disk count stale-high (a leak repair()
  // drops), never stale-low. Clean close persists the mirror. The same
  // holds in journal mode: a free record that never becomes durable
  // leaves a replay-surviving leak, never a corruption (the dereference
  // was flushed before the record was appended).
  if (!lazy_) {
    if (journal_) {
      VMIC_CO_TRY_VOID(co_await journal_append(
          kJournalOpFree | (hint.run ? kJournalRefRun : 0), first, count,
          hint));
    } else {
      VMIC_CO_TRY_VOID(co_await write_refcount_entries(first, count));
    }
  }
  free_guess_ = std::min(free_guess_, first);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::set_l2_raw_run(
    std::uint64_t vaddr, std::span<const std::uint64_t> entries) {
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  const std::uint64_t cs = ly_.cluster_size();
  std::uint64_t done = 0;
  while (done < entries.size()) {
    const std::uint64_t pos = vaddr + done * cs;
    VMIC_CO_TRY_VOID(co_await ensure_l2_table(pos));
    VMIC_CO_TRY(l2, co_await load_l2(l1_[ly_.l1_index(pos)] & kOffsetMask));
    const std::uint64_t i2 = ly_.l2_index(pos);
    const std::uint64_t count = std::min<std::uint64_t>(
        entries.size() - done, ly_.l2_entries() - i2);
    std::vector<std::uint8_t> be(count * 8);
    for (std::uint64_t k = 0; k < count; ++k) {
      (*l2)[i2 + k] = entries[done + k];
      store_be64(be.data() + k * 8, entries[done + k]);
    }
    VMIC_CO_TRY_VOID(co_await file_->pwrite(l2_slot(pos), be));
    done += count;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_zeroes(std::uint64_t off,
                                                  std::uint64_t len) {
  if (off + len > h_.size) co_return Errc::out_of_range;
  if (read_only() || is_cache_image()) co_return Errc::read_only;
  if (len == 0) co_return ok_result();
  const std::uint64_t cs = ly_.cluster_size();

  const std::uint64_t lo = align_up(off, cs);
  const std::uint64_t hi = align_down(off + len, cs);

  if (hi <= lo) {
    // Entire range inside one cluster: plain zero write.
    std::vector<std::uint8_t> zeros(len, 0);
    co_return co_await write(off, zeros);
  }
  // Head fragment.
  if (off < lo) {
    std::vector<std::uint8_t> zeros(lo - off, 0);
    VMIC_CO_TRY_VOID(co_await write(off, zeros));
  }
  // Whole clusters: flip to the zero flag, releasing any data clusters.
  // The head/tail write() fragments stay outside the allocator mutex that
  // the unmap holds: cow_write acquires it itself.
  VMIC_CO_TRY_VOID(co_await unmap_clusters(lo, hi, kFlagZero, MapKind::zero));
  // Tail fragment.
  if (off + len > hi) {
    std::vector<std::uint8_t> zeros(off + len - hi, 0);
    VMIC_CO_TRY_VOID(co_await write(hi, zeros));
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::discard(std::uint64_t off,
                                             std::uint64_t len) {
  if (off + len > h_.size) co_return Errc::out_of_range;
  if (read_only() || is_cache_image()) co_return Errc::read_only;
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_up(off, cs);
  const std::uint64_t hi = align_down(off + len, cs);
  // Sub-cluster fragments of a discard are dropped (advisory semantics,
  // like real discard).
  if (hi <= lo) co_return ok_result();

  if (backing_ != nullptr) {
    // With a backing image, plain deallocation would resurface stale
    // backing data; leave zero clusters instead (QEMU does the same).
    co_return co_await write_zeroes(lo, hi - lo);
  }
  co_return co_await unmap_clusters(lo, hi, 0, MapKind::unallocated);
}

sim::Task<Result<void>> Qcow2Device::unmap_clusters(std::uint64_t lo,
                                                    std::uint64_t hi,
                                                    std::uint64_t entry,
                                                    MapKind keep) {
  const std::uint64_t cs = ly_.cluster_size();
  auto guard = co_await lock_alloc();
  std::uint64_t pos = lo;
  while (pos < hi) {
    VMIC_CO_TRY(ext, co_await map_range(pos, hi - pos));
    const std::uint64_t clusters = div_ceil(ext.len, cs);
    if (ext.kind != keep) {
      // Extents from map_range never cross an L2 boundary.
      const std::vector<std::uint64_t> entries(clusters, entry);
      VMIC_CO_TRY_VOID(co_await set_l2_raw_run(pos, entries));
    }
    if (ext.kind == MapKind::data || ext.kind == MapKind::compressed) {
      // Barrier: the L2 dereference must be durable before the refcounts
      // drop — the reverse order could persist the decrement alone and
      // hand a still-referenced cluster to the allocator.
      VMIC_CO_TRY_VOID(co_await file_->flush());
      const RefHint slots{l2_slot(pos), /*run=*/false};
      if (ext.kind == MapKind::data) {
        VMIC_CO_TRY_VOID(
            co_await free_clusters(ext.host_off, clusters, slots));
        data_clusters_ -= clusters;
      } else {
        // A payload's host cluster frees when its last sharer leaves.
        VMIC_CO_TRY_VOID(co_await free_compressed_entry(ext.entry, slots));
      }
    }
    pos += clusters * cs;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::resize(std::uint64_t new_size) {
  if (read_only()) co_return Errc::read_only;
  if (new_size < h_.size) co_return Errc::invalid_argument;  // grow-only
  if (new_size == h_.size) co_return ok_result();

  const std::uint32_t needed = ly_.l1_entries_for(new_size);
  if (needed > l1_.size()) {
    // Relocate the L1 table into a larger run of clusters.
    auto guard = co_await lock_alloc();
    const std::uint64_t cs = ly_.cluster_size();
    const std::uint64_t new_clusters =
        div_ceil(std::uint64_t{needed} * 8, cs);
    // The relocated L1 is referenced by the header's l1_table_offset
    // field (offset 40) once the switch-over publishes.
    VMIC_CO_TRY(new_off,
                co_await alloc_clusters(new_clusters,
                                        RefHint{40, /*run=*/true}));

    std::vector<std::uint64_t> new_l1(new_clusters * cs / 8, 0);
    std::copy(l1_.begin(), l1_.end(), new_l1.begin());
    std::vector<std::uint8_t> be(new_clusters * cs, 0);
    for (std::size_t i = 0; i < new_l1.size(); ++i) {
      store_be64(be.data() + i * 8, new_l1[i]);
    }
    VMIC_CO_TRY_VOID(co_await file_->pwrite(new_off, be));
    // Barrier: the new table must be durable before the header points at
    // it.
    VMIC_CO_TRY_VOID(co_await file_->flush());

    // Release the old table and point the header at the new one.
    const std::uint64_t old_off = h_.l1_table_offset;
    const std::uint64_t old_clusters =
        div_ceil(std::uint64_t{h_.l1_size} * 8, cs);
    l1_ = std::move(new_l1);
    h_.l1_table_offset = new_off;
    h_.l1_size = static_cast<std::uint32_t>(l1_.size());
    std::uint8_t hdr[12];
    store_be32(hdr, h_.l1_size);
    store_be64(hdr + 4, h_.l1_table_offset);
    VMIC_CO_TRY_VOID(co_await file_->pwrite(36, hdr));
    // Barrier: the switch-over must be durable before the old table's
    // clusters are reusable.
    VMIC_CO_TRY_VOID(co_await file_->flush());
    VMIC_CO_TRY_VOID(co_await free_clusters(old_off, old_clusters,
                                            RefHint{40, /*run=*/true}));
    if (journal_) {
      // Earlier L2-table records name their L1 slot by file offset —
      // inside the *old* table, whose clusters are reusable now. Retire
      // every record before reuse can scramble their reference checks.
      VMIC_CO_TRY_VOID(co_await journal_checkpoint());
    }
  }

  h_.size = new_size;
  std::uint8_t be[8];
  store_be64(be, h_.size);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(24, be));
  co_return ok_result();
}

// ===========================================================================
// flush / close
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::flush() {
  VMIC_CO_TRY_VOID(co_await file_->flush());
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::close() {
  if (cache_ && !read_only() && !file_->read_only()) {
    // §4.3 "close": persist the cache's current size into the header
    // extension.
    cache_->current_size = file_bytes();
    std::uint8_t be[8];
    store_be64(be, cache_->current_size);
    VMIC_CO_TRY_VOID(
        co_await file_->pwrite(cache_ext_payload_offset_ + 8, be));
  }
  if (dirty_ && !dirty_inherited_ && !file_->read_only()) {
    // Clean shutdown: settle deferred refcounts, then drop the dirty
    // mark behind a barrier. In journal mode the on-disk blocks are
    // stale for every journaled mutation — a checkpoint writes them back
    // and retires the records; in lazy mode the mirror holds deferred
    // decrements. Inherited dirt (opened dirty with auto-repair off,
    // never repaired) stays — only repair() earns it.
    if (journal_) {
      VMIC_CO_TRY_VOID(co_await journal_checkpoint());
      if (lazy_) {
        VMIC_CO_TRY_VOID(co_await persist_refcounts());
      }
    } else if (lazy_) {
      VMIC_CO_TRY_VOID(co_await persist_refcounts());
    }
    VMIC_CO_TRY_VOID(co_await write_clean_bit());
  }
  VMIC_CO_TRY_VOID(co_await file_->flush());
  if (backing_) {
    VMIC_CO_TRY_VOID(co_await backing_->close());
  }
  co_return ok_result();
}

// ===========================================================================
// durability: dirty bit, lazy refcounts, repair
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::ensure_dirty() {
  if (dirty_) co_return ok_result();
  assert(alloc_mutex_.locked() && "dirty transition requires alloc_mutex_");
  h_.incompatible_features |= kIncompatDirty;
  std::uint8_t be[8];
  store_be64(be, h_.incompatible_features);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(72, be));
  // New session generation: retires any record a previous session left
  // behind (e.g. after a clean close, which does not rewind the journal).
  // The bump rides the same flush as the dirty bit, so every record this
  // session appends — all issued after this flush — sees a durable
  // generation; a cut before the flush leaves only stale-generation
  // records, which replay as no-ops against the cleanly persisted state.
  if (journal_) VMIC_CO_TRY_VOID(co_await journal_retire(journal_gen_ + 1));
  // Barrier: the dirty mark must be durable before any metadata mutation
  // it covers — otherwise a crash could leave stale refcounts behind a
  // header that claims the image is clean.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  dirty_ = true;
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::persist_refcounts() {
  assert(refcounts_loaded_);
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    if ((rt_[bi] & kOffsetMask) == 0) continue;
    const std::uint64_t first = bi * rpb;
    if (first >= refcounts_.size()) break;
    const std::uint64_t count =
        std::min<std::uint64_t>(rpb, refcounts_.size() - first);
    VMIC_CO_TRY_VOID(co_await write_refcount_entries(first, count));
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_clean_bit() {
  // Barrier: every metadata write of this session must be durable before
  // the image may claim to be clean again.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  h_.incompatible_features &= ~kIncompatDirty;
  std::uint8_t be[8];
  store_be64(be, h_.incompatible_features);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(72, be));
  VMIC_CO_TRY_VOID(co_await file_->flush());
  dirty_ = false;
  co_return ok_result();
}

// ===========================================================================
// refcount journal
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::journal_retire(std::uint64_t gen) {
  assert(journal_);
  journal_gen_ = gen;
  journal_seq_ = 0;
  journal_head_ = 1;
  journal_dirty_blocks_.clear();
  journal_header_bad_ = false;
  std::uint8_t sec[kJournalSectorSize];
  encode_journal_header(JournalHeader{journal_gen_, journal_sector_count_},
                        sec);
  co_return co_await file_->pwrite(journal_->offset, sec);
}

sim::Task<Result<void>> Qcow2Device::journal_append(std::uint32_t flags,
                                                    std::uint64_t first_cluster,
                                                    std::uint64_t count,
                                                    RefHint hint) {
  assert(journal_);
  assert(alloc_mutex_.locked() && "journal append requires alloc_mutex_");
  if (journal_head_ >= journal_sector_count_) {
    VMIC_CO_TRY_VOID(co_await journal_checkpoint());
  }
  JournalRecord r;
  r.flags = flags;
  r.generation = journal_gen_;
  r.seq = journal_seq_++;
  r.first_cluster = first_cluster;
  r.count = count;
  r.ref_off = hint.ref_off;
  std::uint8_t sec[kJournalSectorSize];
  encode_journal_record(r, sec);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(
      journal_->offset + journal_head_ * std::uint64_t{kJournalSectorSize},
      sec));
  ++journal_head_;
  // The on-disk refcount blocks covering this run are stale until the
  // next checkpoint writes them back.
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::uint64_t bi = first_cluster / rpb;
       bi <= (first_cluster + count - 1) / rpb; ++bi) {
    journal_dirty_blocks_.insert(bi);
  }
  bump(agg_.journal_appends);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::journal_checkpoint() {
  assert(journal_);
  assert(refcounts_loaded_);
  // Write every stale block back from the mirror, then retire the records
  // behind a barrier by bumping the header generation. Ordering: a cut
  // that keeps the bump but drops a block write-back is impossible — the
  // flush below makes the blocks durable before the header write is even
  // issued; a cut the other way round simply replays the (idempotent)
  // records again.
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (const std::uint64_t bi : journal_dirty_blocks_) {
    const std::uint64_t first = bi * rpb;
    if (first >= refcounts_.size()) continue;
    const std::uint64_t count =
        std::min<std::uint64_t>(rpb, refcounts_.size() - first);
    VMIC_CO_TRY_VOID(co_await write_refcount_entries(first, count));
  }
  VMIC_CO_TRY_VOID(co_await file_->flush());
  VMIC_CO_TRY_VOID(co_await journal_retire(journal_gen_ + 1));
  bump(agg_.journal_checkpoints);
  co_return ok_result();
}

sim::Task<Result<Qcow2Device::JournalScan>> Qcow2Device::journal_scan() {
  assert(journal_);
  JournalScan out;
  std::vector<std::uint8_t> region(journal_->size, 0);
  VMIC_CO_TRY_VOID(co_await file_->pread(journal_->offset, region));

  JournalHeader jh;
  if (!decode_journal_header(std::span(region.data(), kJournalSectorSize),
                             jh) ||
      jh.sector_count != journal_sector_count_) {
    co_return out;  // header_ok stays false
  }
  out.header_ok = true;
  out.generation = jh.generation;

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t file_size = file_->size();
  const std::uint64_t file_clusters = div_ceil(file_size, cs);

  for (std::uint64_t s = 1; s < journal_sector_count_; ++s) {
    JournalRecord r;
    if (!decode_journal_record(
            std::span(region.data() + s * kJournalSectorSize,
                      kJournalSectorSize),
            r)) {
      continue;  // torn/stale/garbage sector: discard
    }
    if (r.generation != jh.generation) continue;  // retired record
    ++out.entries;
    if (r.count == 0 ||
        r.count > file_clusters + ly_.refcounts_per_block()) {
      out.inconsistent = true;  // checksum-valid but nonsensical
      continue;
    }
    // Verified recompute: a cluster's effective refcount is 1 iff its
    // recorded reference slot durably points at it. Barrier ordering
    // guarantees at most one slot can (publishes ride a flush that makes
    // the record durable first), so any-match accumulation is sound and
    // replay is order-independent and idempotent.
    if ((r.flags & kJournalRefRun) != 0) {
      bool referenced = false;
      if (r.ref_off + 8 <= file_size) {
        std::uint8_t be[8];
        VMIC_CO_TRY_VOID(co_await file_->pread(r.ref_off, be));
        referenced = (load_be64(be) & kOffsetMask) == r.first_cluster * cs;
      }
      for (std::uint64_t k = 0; k < r.count; ++k) {
        auto& e = out.effective[r.first_cluster + k];
        if (referenced) e = 1;
      }
      if (referenced && r.first_cluster + r.count > file_clusters) {
        out.inconsistent = true;  // durable reference past EOF
      }
    } else {
      for (std::uint64_t k = 0; k < r.count; ++k) {
        const std::uint64_t c = r.first_cluster + k;
        bool referenced = false;
        const std::uint64_t slot = r.ref_off + k * 8;
        if (slot + 8 <= file_size) {
          std::uint8_t be[8];
          VMIC_CO_TRY_VOID(co_await file_->pread(slot, be));
          referenced = (load_be64(be) & kOffsetMask) == c * cs;
        }
        auto& e = out.effective[c];
        if (referenced) {
          e = 1;
          if (c >= file_clusters) out.inconsistent = true;
        }
      }
    }
  }
  co_return out;
}

sim::Task<Result<bool>> Qcow2Device::journal_repair_fast(RepairReport& rep) {
  assert(journal_);
  if (journal_header_bad_) co_return false;
  VMIC_CO_TRY(scan, co_await journal_scan());
  if (!scan.header_ok || scan.inconsistent) co_return false;

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t rpb = ly_.refcounts_per_block();

  // Patch the touched refcount blocks — O(journal) I/O, no L1/L2 walk.
  // scan.effective is ordered by cluster, so blocks load at most once.
  std::vector<std::uint8_t> buf(cs, 0);
  std::uint64_t cur_bi = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t cur_off = 0;
  bool block_dirty = false;
  const auto flush_block = [&]() -> sim::Task<Result<void>> {
    if (block_dirty) {
      VMIC_CO_TRY_VOID(co_await file_->pwrite(cur_off, buf));
      block_dirty = false;
    }
    co_return ok_result();
  };
  for (const auto& [c, v] : scan.effective) {
    const std::uint64_t bi = c / rpb;
    if (bi >= rt_.size() || (rt_[bi] & kOffsetMask) == 0) {
      // No block to patch. A durable reference with nowhere to store its
      // count means the journal cannot prove consistency — fall back.
      if (v != 0) co_return false;
      continue;  // absent block already reads as refcount 0
    }
    if (bi != cur_bi) {
      VMIC_CO_TRY_VOID(co_await flush_block());
      cur_bi = bi;
      cur_off = rt_[bi] & kOffsetMask;
      VMIC_CO_TRY_VOID(co_await file_->pread(cur_off, buf));
    }
    const std::uint64_t k = c - bi * rpb;
    const std::uint16_t old = load_be16(buf.data() + k * 2);
    if (old == v) continue;
    if (old > v) {
      ++rep.leaks_dropped;
    } else {
      ++rep.corruptions_fixed;
    }
    store_be16(buf.data() + k * 2, v);
    block_dirty = true;
  }
  VMIC_CO_TRY_VOID(co_await flush_block());

  // Barrier: the patched blocks must be durable before the generation
  // bump retires the records they were derived from — a cut that kept the
  // bump but dropped a patch would silence the journal over a stale
  // block. The header write itself rides write_clean_bit()'s flush.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  VMIC_CO_TRY_VOID(co_await journal_retire(scan.generation + 1));
  VMIC_CO_TRY_VOID(co_await write_clean_bit());
  dirty_inherited_ = false;

  // Drop any stale in-memory mirror so the allocator reloads the repaired
  // truth (repair() at open runs before load_refcounts, but an explicit
  // repair() mid-session must refresh).
  if (refcounts_loaded_) {
    refcounts_loaded_ = false;
    refcounts_.clear();
    free_runs_.clear();
    free_guess_ = 0;
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }

  rep.journal_replayed = true;
  rep.journal_entries = scan.entries;
  bump(agg_.repair_runs);
  bump(agg_.journal_replays);
  bump(agg_.journal_entries_replayed, scan.entries);
  bump(agg_.repair_leaks_dropped, rep.leaks_dropped);
  bump(agg_.repair_corruptions_fixed, rep.corruptions_fixed);
  co_return true;
}

sim::Task<Result<RepairReport>> Qcow2Device::repair() {
  if (file_->read_only()) co_return Errc::read_only;
  RepairReport rep;
  rep.was_dirty = dirty_ || (h_.incompatible_features & kIncompatDirty) != 0;

  // O(journal) fast path: a dirty journaled image is repaired by
  // replaying the journal — no L1/L2 walk, no full refcount rebuild.
  // Falls through to the rebuild when replay cannot prove consistency.
  if (journal_ && rep.was_dirty) {
    VMIC_CO_TRY(done, co_await journal_repair_fast(rep));
    if (done) co_return rep;
    rep.journal_fallback = true;
    bump(agg_.journal_fallbacks);
  }

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t rpb = ly_.refcounts_per_block();
  std::uint64_t file_clusters = div_ceil(file_->size(), cs);
  std::vector<std::uint16_t> expected(file_clusters, 0);
  std::uint64_t data_clusters = 0;
  std::uint64_t l2_clusters = 0;

  const auto valid = [&](std::uint64_t off) {
    return off != 0 && off % cs == 0 && off / cs < file_clusters;
  };
  const auto mark = [&](std::uint64_t off, std::uint64_t clusters) {
    const std::uint64_t first = off / cs;
    for (std::uint64_t i = 0; i < clusters; ++i) {
      if (expected[first + i] != 0xffff) ++expected[first + i];
    }
  };
  const auto clear_l1_entry = [&](std::size_t i1) -> sim::Task<Result<void>> {
    l1_[i1] = 0;
    ++rep.entries_cleared;
    const std::uint8_t be[8] = {0};
    co_return co_await file_->pwrite(h_.l1_table_offset + i1 * 8, be);
  };

  // The fixed infrastructure (header area, refcount table, L1) must be
  // sane — those offsets come from the header, which is only ever
  // rewritten in single-sector (atomic) writes, so a crash cannot damage
  // them. Anything else is beyond in-place repair.
  const std::uint64_t header_clusters =
      div_ceil(header_area_size(cache_, journal_, backing_path_), cs);
  const std::uint64_t l1_clusters =
      div_ceil(std::uint64_t{h_.l1_size} * 8, cs);
  const std::uint64_t journal_clusters =
      journal_ ? div_ceil(journal_->size, cs) : 0;
  if (header_clusters > file_clusters ||
      h_.refcount_table_offset % cs != 0 ||
      h_.refcount_table_offset / cs + h_.refcount_table_clusters >
          file_clusters ||
      h_.l1_table_offset % cs != 0 ||
      h_.l1_table_offset / cs + l1_clusters > file_clusters ||
      (journal_ &&
       journal_->offset / cs + journal_clusters > file_clusters)) {
    co_return Errc::corrupt;
  }
  mark(0, header_clusters);
  mark(h_.refcount_table_offset, h_.refcount_table_clusters);
  mark(h_.l1_table_offset, l1_clusters);
  if (journal_) mark(journal_->offset, journal_clusters);

  // Walk L1 -> L2, dropping invalid pointers: a cleared entry reads from
  // the backing chain / as zeros again, which is the only safe meaning
  // left for a pointer into nowhere.
  for (std::size_t i1 = 0; i1 < l1_.size(); ++i1) {
    const std::uint64_t l2_off = l1_[i1] & kOffsetMask;
    if (l2_off == 0) {
      if (l1_[i1] != 0) VMIC_CO_TRY_VOID(co_await clear_l1_entry(i1));
      continue;
    }
    if (!valid(l2_off)) {
      VMIC_CO_TRY_VOID(co_await clear_l1_entry(i1));
      continue;
    }
    mark(l2_off, 1);
    ++l2_clusters;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    bool table_changed = false;
    for (std::uint64_t i2 = 0; i2 < l2->size(); ++i2) {
      const std::uint64_t e = (*l2)[i2];
      if ((e & kFlagCompressed) != 0) {
        // A compressed payload holds one reference on its (possibly
        // shared) host cluster. Validate the descriptor's extent; a
        // pointer into nowhere is cleared like any other.
        const Layout::CompressedDesc d = ly_.decode_compressed(e);
        const std::uint64_t payload_end = d.offset + d.sectors * 512;
        if (!ly_.compressed_desc_sane(d) ||
            payload_end > file_clusters * cs) {
          (*l2)[i2] = 0;
          table_changed = true;
          ++rep.entries_cleared;
          continue;
        }
        const std::uint64_t host = align_down(d.offset, cs);
        if (expected[host / cs] == 0) ++data_clusters;
        mark(host, 1);
        continue;
      }
      const std::uint64_t off = e & kOffsetMask;
      if (off != 0 && !valid(off)) {
        (*l2)[i2] = 0;
        table_changed = true;
        ++rep.entries_cleared;
        continue;
      }
      if (off != 0) {
        mark(off, 1);
        ++data_clusters;
      }
    }
    if (table_changed) {
      std::vector<std::uint8_t> be(l2->size() * 8);
      pack_be64(l2->data(), l2->size(), be.data());
      VMIC_CO_TRY_VOID(co_await file_->pwrite(l2_off, be));
    }
  }

  // Keep valid existing refcount blocks (rebuilding reuses their
  // clusters), drop pointers into nowhere.
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    const std::uint64_t off = rt_[bi] & kOffsetMask;
    if (off == 0) {
      if (rt_[bi] != 0) {
        rt_[bi] = 0;
        ++rep.entries_cleared;
      }
      continue;
    }
    if (!valid(off)) {
      rt_[bi] = 0;
      ++rep.entries_cleared;
      continue;
    }
    mark(off, 1);
  }

  // Every referenced cluster needs a covering refcount block; allocate
  // missing blocks from clusters the walk proved free. A new block may
  // itself land in an uncovered range — iterate to the fixed point.
  std::uint64_t scan = 0;
  for (bool again = true; again;) {
    again = false;
    for (std::uint64_t i = 0; i < file_clusters; ++i) {
      if (expected[i] == 0) continue;
      const std::uint64_t bi = i / rpb;
      if (bi >= rt_.size()) {
        // Would need refcount-table growth: impossible for crash states
        // (growth is barrier-ordered), so treat as unrepairable.
        co_return Errc::corrupt;
      }
      if ((rt_[bi] & kOffsetMask) != 0) continue;
      while (scan < file_clusters && expected[scan] != 0) ++scan;
      std::uint64_t b = scan;
      if (b == file_clusters) {
        ++file_clusters;
        expected.resize(file_clusters, 0);
      }
      expected[b] = 1;
      rt_[bi] = b * cs;
      again = true;
    }
  }

  // Diff the rebuilt counts against the on-disk ones for the report.
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  for (std::uint64_t i = 0; i < file_clusters; ++i) {
    const std::uint16_t actual =
        i < refcounts_.size() ? refcounts_[i] : std::uint16_t{0};
    if (actual > expected[i]) {
      ++rep.leaks_dropped;
    } else if (actual < expected[i]) {
      ++rep.corruptions_fixed;
    }
  }

  // Persist: every allocated block from the rebuilt mirror, then the
  // table, then clear the dirty bit behind a barrier.
  //
  // Barrier: the L1/L2 entry clears above must be durable before any
  // lowered refcount lands — a cut that kept the lowered count but
  // dropped the clear would leave a referenced cluster the allocator
  // hands out again (refcount < references). Repair must survive a cut
  // mid-repair as well as any other writer.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  refcounts_ = std::move(expected);
  refcounts_loaded_ = true;
  std::vector<std::uint8_t> buf(cs, 0);
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    const std::uint64_t off = rt_[bi] & kOffsetMask;
    if (off == 0) continue;
    std::memset(buf.data(), 0, buf.size());
    const std::uint64_t first = bi * rpb;
    for (std::uint64_t k = 0; k < rpb; ++k) {
      if (first + k < refcounts_.size() && refcounts_[first + k] != 0) {
        store_be16(buf.data() + k * 2, refcounts_[first + k]);
      }
    }
    VMIC_CO_TRY_VOID(co_await file_->pwrite(off, buf));
  }
  // Barrier: block contents before the table that publishes them — the
  // rebuild may have pointed table entries at fresh block clusters, and
  // a cut that kept such a pointer but dropped the block's contents
  // would publish a block of garbage counts.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  {
    std::vector<std::uint8_t> tbuf(
        std::uint64_t{h_.refcount_table_clusters} * cs, 0);
    pack_be64(rt_.data(), rt_.size(), tbuf.data());
    VMIC_CO_TRY_VOID(co_await file_->pwrite(h_.refcount_table_offset, tbuf));
  }
  if (journal_) {
    // Retire every record: the rebuilt state is authoritative now.
    // Barrier first — the generation bump must not outlive a cut that
    // dropped part of the rebuild, or a re-open would trust a clean
    // journal over a half-persisted rebuild. The header write itself
    // rides write_clean_bit()'s leading flush.
    VMIC_CO_TRY_VOID(co_await file_->flush());
    VMIC_CO_TRY_VOID(co_await journal_retire(journal_gen_ + 1));
  }
  VMIC_CO_TRY_VOID(co_await write_clean_bit());
  dirty_inherited_ = false;

  // Refresh the allocator's view of the world.
  data_clusters_ = data_clusters;
  l2_clusters_ = l2_clusters;
  free_guess_ = 0;
  index_free_runs();

  bump(agg_.repair_runs);
  bump(agg_.repair_entries_cleared, rep.entries_cleared);
  bump(agg_.repair_leaks_dropped, rep.leaks_dropped);
  bump(agg_.repair_corruptions_fixed, rep.corruptions_fixed);
  co_return rep;
}

// ===========================================================================
// consistency check
// ===========================================================================

sim::Task<Result<CheckResult>> Qcow2Device::check() {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t file_clusters = div_ceil(file_->size(), cs);
  std::vector<std::uint16_t> expected(file_clusters, 0);
  // What marked each host cluster: 0 = nothing, 1 = a normal (exclusive)
  // reference, 2 = compressed payloads. Compressed payloads may share a
  // host cluster with each other (refcount = number of referencing L2
  // entries), never with a normal reference.
  std::vector<std::uint8_t> mark_kind(file_clusters, 0);
  CheckResult res;

  auto mark = [&](std::uint64_t off, std::uint64_t clusters,
                  bool metadata) -> bool {
    const std::uint64_t first = off / cs;
    if (off % cs != 0 || first + clusters > file_clusters) {
      ++res.corruptions;
      return false;
    }
    for (std::uint64_t i = 0; i < clusters; ++i) {
      if (expected[first + i] != 0) ++res.corruptions;  // overlap
      expected[first + i] = 1;
      mark_kind[first + i] = 1;
    }
    if (metadata) {
      res.metadata_clusters += clusters;
    } else {
      res.data_clusters += clusters;
    }
    return true;
  };

  auto mark_compressed = [&](std::uint64_t entry) {
    const Layout::CompressedDesc d = ly_.decode_compressed(entry);
    const std::uint64_t end = d.offset + d.sectors * 512;
    if (!ly_.compressed_desc_sane(d) || end > file_clusters * cs) {
      ++res.corruptions;
      return;
    }
    const std::uint64_t c = d.offset / cs;
    if (mark_kind[c] == 1) {
      ++res.corruptions;  // collides with an exclusive reference
      return;
    }
    if (mark_kind[c] == 0) {
      mark_kind[c] = 2;
      ++res.data_clusters;
    }
    if (expected[c] != 0xffff) ++expected[c];
    ++res.compressed_clusters;
  };

  // Header area.
  mark(0, div_ceil(header_area_size(cache_, journal_, backing_path_), cs),
       true);
  // Journal region.
  if (journal_) mark(journal_->offset, div_ceil(journal_->size, cs), true);
  // Refcount table and blocks.
  mark(h_.refcount_table_offset, h_.refcount_table_clusters, true);
  for (const std::uint64_t e : rt_) {
    if ((e & kOffsetMask) != 0) mark(e & kOffsetMask, 1, true);
  }
  // L1 and L2 tables, then data clusters.
  mark(h_.l1_table_offset, div_ceil(std::uint64_t{h_.l1_size} * 8, cs), true);
  for (const std::uint64_t l1e : l1_) {
    const std::uint64_t l2_off = l1e & kOffsetMask;
    if (l2_off == 0) continue;
    if (!mark(l2_off, 1, true)) continue;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    for (const std::uint64_t l2e : *l2) {
      if ((l2e & kFlagCompressed) != 0) {
        mark_compressed(l2e);
        continue;
      }
      const std::uint64_t off = l2e & kOffsetMask;
      if (off != 0) mark(off, 1, false);
    }
  }

  // Compare against the on-disk refcounts.
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  for (std::uint64_t i = 0; i < file_clusters; ++i) {
    const std::uint16_t actual =
        i < refcounts_.size() ? refcounts_[i] : std::uint16_t{0};
    if (actual > expected[i]) {
      ++res.leaked_clusters;
    } else if (actual < expected[i]) {
      ++res.corruptions;
    }
  }
  co_return res;
}

// ===========================================================================
// probing
// ===========================================================================

sim::Task<Result<block::DevicePtr>> open_any(io::BackendPtr file,
                                             const block::OpenOptions& opt) {
  if (file == nullptr) co_return Errc::invalid_argument;
  if (file->size() >= 4) {
    std::uint8_t magic[4];
    VMIC_CO_TRY_VOID(co_await file->pread(0, magic));
    if (load_be32(magic) == kMagic) {
      co_return co_await Qcow2Device::open(std::move(file), opt);
    }
  }
  if (!opt.writable) file->set_read_only(true);
  co_return block::RawDevice::open(std::move(file));
}

}  // namespace vmic::qcow2
