#include "crash/explore.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include "block/raw.hpp"
#include "crash/crash_backend.hpp"
#include "io/mem_backend.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/sparse_buffer.hpp"

namespace vmic::crash {

namespace {

constexpr std::size_t kNoFlush = ~std::size_t{0};

/// One scripted guest operation. The same list replays against every
/// crash point, so every run takes the identical path up to its cut.
struct GuestOp {
  enum class Kind { write, flush, zeroes, discard, read };
  Kind kind;
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  std::uint64_t tag = 0;  ///< pattern seed for writes
};

void fill_pattern(std::uint64_t tag, std::span<std::uint8_t> dst) {
  std::uint64_t sm = tag;
  for (auto& b : dst) b = static_cast<std::uint8_t>(splitmix64(sm));
}

std::vector<GuestOp> make_ops(const ExploreConfig& cfg) {
  std::vector<GuestOp> ops;
  Rng rng(cfg.seed ^ 0x0b5e55edull);
  const std::uint64_t cs = 1ull << cfg.cluster_bits;
  for (int i = 0; i < cfg.guest_ops; ++i) {
    const double roll = rng.uniform();
    if (roll < cfg.flush_probability) {
      ops.push_back({GuestOp::Kind::flush});
      continue;
    }
    if (cfg.chain == ChainShape::cache_over_base) {
      // Cache images reject guest writes; the workload that matters is
      // reads pulling clusters in through copy-on-read.
      const std::uint64_t len = 512 * rng.range(1, (2 * cs) / 512);
      const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
      ops.push_back({GuestOp::Kind::read, off, len});
      continue;
    }
    if (cfg.chain == ChainShape::overlay_over_cache) {
      // Overlay-over-cache: reads pull clusters into the cache (CoR
      // writes file 1), writes CoW into the overlay (writes file 2) —
      // both files mutate, so a shared cut exercises their interplay.
      const std::uint64_t len = 512 * rng.range(1, (2 * cs) / 512);
      const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
      if (rng.chance(0.5)) {
        ops.push_back({GuestOp::Kind::read, off, len});
      } else {
        ops.push_back({GuestOp::Kind::write, off, len, rng.next()});
      }
      continue;
    }
    if (roll < cfg.flush_probability + cfg.zero_probability ||
        roll < cfg.flush_probability + cfg.zero_probability +
                   cfg.discard_probability) {
      const bool zero = roll < cfg.flush_probability + cfg.zero_probability;
      // Cluster-aligned so the guest-visible effect is exactly
      // "range reads zero" in both the zero-flag and deallocation paths.
      const std::uint64_t clusters = rng.range(1, 3);
      const std::uint64_t off =
          cs * rng.below(cfg.image_size / cs - clusters + 1);
      ops.push_back({zero ? GuestOp::Kind::zeroes : GuestOp::Kind::discard, off,
                     clusters * cs});
      continue;
    }
    const std::uint64_t len = 512 * rng.range(1, (3 * cs) / 512);
    const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
    ops.push_back({GuestOp::Kind::write, off, len, rng.next()});
  }
  // End on a barrier so the final crash point verifies the full content.
  ops.push_back({GuestOp::Kind::flush});
  return ops;
}

/// Content of the raw base under a chain (empty for a standalone image).
SparseBuffer make_base(const ExploreConfig& cfg) {
  SparseBuffer base;
  if (cfg.chain == ChainShape::standalone) return base;
  std::vector<std::uint8_t> tmp(64 * 1024);
  std::uint64_t sm = cfg.seed ^ 0xba5eba11ull;
  for (std::uint64_t off = 0; off < cfg.image_size; off += tmp.size()) {
    for (auto& b : tmp) b = static_cast<std::uint8_t>(splitmix64(sm));
    base.write(off, tmp);
  }
  return base;
}

/// Fresh qcow2 files of the chain, bottom first: the lone image or the
/// copy-on-read cache over the raw base, then the CoW overlay over it.
Result<void> create_chain(std::vector<SparseBuffer>& disks,
                          const ExploreConfig& cfg) {
  disks = std::vector<SparseBuffer>(
      cfg.chain == ChainShape::overlay_over_cache ? 2 : 1);
  for (std::size_t i = 0; i < disks.size(); ++i) {
    io::MemBackend direct(&disks[i]);
    qcow2::Qcow2Device::CreateOptions copt;
    copt.virtual_size = cfg.image_size;
    copt.cluster_bits = cfg.cluster_bits;
    copt.journal_sectors = cfg.journal_sectors;
    if (i > 0) {
      copt.backing_file = "cache";
    } else if (cfg.chain != ChainShape::standalone) {
      copt.backing_file = "base";
      copt.cache_quota = cfg.image_size * 4;
    }
    VMIC_TRY_VOID(sim::sync_wait(qcow2::Qcow2Device::create(direct, copt)));
  }
  return ok_result();
}

sim::Task<Result<block::DevicePtr>> open_base(SparseBuffer* buf,
                                              std::uint64_t size) {
  co_return block::RawDevice::open(
      io::BackendPtr{std::make_unique<io::MemBackend>(buf)}, size);
}

struct LinkOptions {
  std::uint64_t size;
  bool lazy;
  bool auto_repair;
  obs::Hub* hub;
  SparseBuffer* base;  ///< raw base under file 0 (nullptr: none)
};

/// Open the top one of `files` (bottom first) writable; its backing
/// resolves to the file below it, and file 0's to the raw base. All by
/// value: the coroutine must not reference a resolver lambda that may be
/// gone by resume time.
sim::Task<Result<block::DevicePtr>> open_link(
    std::vector<io::BackendPtr> files, LinkOptions lo) {
  io::BackendPtr top = std::move(files.back());
  files.pop_back();
  block::OpenOptions opt;
  opt.writable = true;
  opt.lazy_refcounts = lo.lazy;
  opt.auto_repair_dirty = lo.auto_repair;
  opt.hub = lo.hub;
  if (lo.base != nullptr) {
    auto below =
        std::make_shared<std::vector<io::BackendPtr>>(std::move(files));
    opt.resolver = [below, lo](const std::string&, bool) {
      if (below->empty()) return open_base(lo.base, lo.size);
      return open_link(std::move(*below), lo);
    };
  }
  co_return co_await qcow2::Qcow2Device::open(std::move(top), opt);
}

Result<block::DevicePtr> open_chain(std::vector<io::BackendPtr> files,
                                    const ExploreConfig& cfg,
                                    SparseBuffer* base, bool auto_repair) {
  return sim::sync_wait(open_link(
      std::move(files),
      {cfg.image_size, cfg.lazy_refcounts, auto_repair, cfg.hub, base}));
}

/// Never-cut backends over the chain's files, for reopening after a cut.
std::vector<io::BackendPtr> plain_files(std::vector<SparseBuffer>& disks) {
  std::vector<io::BackendPtr> files;
  for (SparseBuffer& d : disks) {
    files.push_back(std::make_unique<io::MemBackend>(&d));
  }
  return files;
}

/// The qcow2 files of an opened chain of `n`, top first.
std::vector<qcow2::Qcow2Device*> qcow2_files(block::BlockDevice& top,
                                             std::size_t n) {
  std::vector<qcow2::Qcow2Device*> files;
  block::BlockDevice* d = &top;
  for (std::size_t i = 0; i < n; ++i) {
    files.push_back(static_cast<qcow2::Qcow2Device*>(d));
    d = files.back()->backing();
  }
  return files;
}

struct RunOutcome {
  std::size_t completed = 0;  ///< guest ops that returned ok
  Errc err = Errc::ok;        ///< first failure (io_error = the cut)
};

RunOutcome run_ops(block::BlockDevice& dev, const std::vector<GuestOp>& ops,
                   const SparseBuffer* base) {
  auto& q = static_cast<qcow2::Qcow2Device&>(dev);
  RunOutcome out;
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> want;
  for (const GuestOp& op : ops) {
    Result<void> r = ok_result();
    switch (op.kind) {
      case GuestOp::Kind::write:
        buf.resize(op.len);
        fill_pattern(op.tag, buf);
        r = sim::sync_wait(dev.write(op.off, buf));
        break;
      case GuestOp::Kind::read:
        buf.resize(op.len);
        r = sim::sync_wait(dev.read(op.off, buf));
        if (r.ok() && base != nullptr) {
          // Pre-crash reads through the cache must already be faithful.
          want.resize(op.len);
          base->read(op.off, want);
          if (buf != want) r = Errc::corrupt;
        }
        break;
      case GuestOp::Kind::flush:
        r = sim::sync_wait(dev.flush());
        break;
      case GuestOp::Kind::zeroes:
        r = sim::sync_wait(q.write_zeroes(op.off, op.len));
        break;
      case GuestOp::Kind::discard:
        r = sim::sync_wait(q.discard(op.off, op.len));
        break;
    }
    if (!r.ok()) {
      out.err = r.error();
      return out;
    }
    ++out.completed;
  }
  return out;
}

/// Bytes of flush-covered guest data the reopened (repaired) chain gets
/// wrong. Under a read-only workload every byte must match the base —
/// lost CoR fills are refetched through the backing chain, so there is no
/// dirty window at all.
std::uint64_t verify_content(block::BlockDevice& dev, const ExploreConfig& cfg,
                             const std::vector<GuestOp>& ops,
                             std::size_t completed, const SparseBuffer* base) {
  const auto n = static_cast<std::size_t>(cfg.image_size);
  std::vector<std::uint8_t> expect(n, 0);
  std::vector<std::uint8_t> dirty(n, 0);
  // Unwritten regions read as the base through the chain (or as zeros
  // standalone). A flush makes every guest op *before* it durable;
  // anything after the last completed flush (including the op the cut
  // interrupted) may hold old, new, or torn content — excluded from
  // comparison. Pure-read workloads mark nothing dirty, so every byte
  // must match the base.
  if (base != nullptr) base->read(0, expect);
  std::size_t last_flush = kNoFlush;
  for (std::size_t i = 0; i < completed; ++i) {
    if (ops[i].kind == GuestOp::Kind::flush) last_flush = i;
  }
  const std::size_t attempted = std::min(completed + 1, ops.size());
  for (std::size_t i = 0; i < attempted; ++i) {
    const GuestOp& op = ops[i];
    if (op.kind == GuestOp::Kind::flush || op.kind == GuestOp::Kind::read) {
      continue;
    }
    if (last_flush != kNoFlush && i < last_flush) {
      if (op.kind == GuestOp::Kind::write) {
        fill_pattern(op.tag, {expect.data() + op.off,
                              static_cast<std::size_t>(op.len)});
      } else {
        std::memset(expect.data() + op.off, 0,
                    static_cast<std::size_t>(op.len));
      }
    } else {
      std::memset(dirty.data() + op.off, 1, static_cast<std::size_t>(op.len));
    }
  }
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint64_t mismatches = 0;
  for (std::size_t off = 0; off < n; off += buf.size()) {
    const std::size_t len = std::min(buf.size(), n - off);
    auto r = sim::sync_wait(dev.read(off, {buf.data(), len}));
    if (!r.ok()) {
      mismatches += len;
      continue;
    }
    for (std::size_t j = 0; j < len; ++j) {
      if (!dirty.empty() && dirty[off + j] != 0) continue;
      if (buf[j] != expect[off + j]) ++mismatches;
    }
  }
  return mismatches;
}

/// Crash points to replay: every event of a recording run of `total`
/// events plus the point after the last one, or `max` of them sampled
/// evenly (always including the last).
std::vector<std::uint64_t> pick_points(std::uint64_t total,
                                       std::uint64_t max) {
  std::vector<std::uint64_t> points;
  const std::uint64_t all = total + 1;
  if (max > 0 && all > max) {
    for (std::uint64_t i = 0; i + 1 < max; ++i) points.push_back(i * all / max);
    points.push_back(total);
  } else {
    for (std::uint64_t k = 0; k < all; ++k) points.push_back(k);
  }
  return points;
}

struct Replay {
  Errc open_err = Errc::ok;  ///< the chain did not open (io_error: the cut)
  RunOutcome out;
  CrashStats stats;  ///< what the cut did, summed over the chain's files
};

/// Open the chain over `disks` (auto-repairing a dirty file) with every
/// qcow2 file on the power rail `dom`, bottom file first, and run `ops`.
/// With `die` the process then dies: the power is cut if it has not
/// failed yet. Either way the device is dropped without close().
Replay replay(CrashDomain& dom, std::vector<SparseBuffer>& disks,
              const ExploreConfig& cfg, SparseBuffer* base, obs::Hub* hub,
              const std::vector<GuestOp>& ops, bool die) {
  Replay r;
  std::vector<std::unique_ptr<io::MemBackend>> inner;
  std::vector<io::BackendPtr> files;
  for (SparseBuffer& d : disks) {
    inner.push_back(std::make_unique<io::MemBackend>(&d));
    files.push_back(
        std::make_unique<CrashBackend>(*inner.back(), dom, 512, hub));
  }
  auto dev = open_chain(std::move(files), cfg, base, /*auto_repair=*/true);
  if (!dev.ok()) {
    r.open_err = dev.error();
    return r;
  }
  // Reads through a cache that nothing writes must already be faithful.
  r.out = run_ops(**dev, ops,
                  cfg.chain == ChainShape::cache_over_base ? base : nullptr);
  if (die && !dom.dead) (void)sim::sync_wait(dom.members[0]->power_cut());
  for (const CrashBackend* m : dom.members) {
    r.stats.writes_kept += m->stats().writes_kept;
    r.stats.writes_dropped += m->stats().writes_dropped;
    r.stats.writes_torn += m->stats().writes_torn;
  }
  return r;
}

}  // namespace

ExploreReport explore(const ExploreConfig& cfg) {
  assert(cfg.image_size % (1ull << cfg.cluster_bits) == 0);
  ExploreReport rep;
  rep.leaks_allowed = cfg.journal_sectors > 0;
  const std::vector<GuestOp> ops = make_ops(cfg);
  SparseBuffer base = make_base(cfg);
  SparseBuffer* base_p = cfg.chain != ChainShape::standalone ? &base : nullptr;

  // Recording run: never cut, count the backend events the workload
  // produces. Every crash point k in [0, total] replays identically up to
  // its cut (k = total models a crash after the last op, before close).
  {
    std::vector<SparseBuffer> disks;
    if (!create_chain(disks, cfg).ok()) {
      ++rep.replay_failures;
      return rep;
    }
    CrashDomain dom;
    const Replay rec = replay(dom, disks, cfg, base_p, nullptr, ops, false);
    if (rec.open_err != Errc::ok || rec.out.err != Errc::ok) {
      ++rep.replay_failures;
      return rep;
    }
    rep.total_events = dom.events;
  }

  const std::vector<std::uint64_t> points =
      pick_points(rep.total_events, cfg.max_crash_points);
  rep.crash_points = points.size();

  std::uint64_t fnv = 0xcbf29ce484222325ull;
  const auto mix = [&fnv](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (8 * i)) & 0xff;
      fnv *= 0x100000001b3ull;
    }
  };
  // Adds a post-repair check to the report; false if it shows a blemish.
  const auto post_clean = [&rep](const qcow2::CheckResult& c) {
    rep.post_repair_corruptions += c.corruptions;
    rep.post_repair_leaks += c.leaked_clusters;
    return c.corruptions == 0 && (c.leaked_clusters == 0 || rep.leaks_allowed);
  };

  struct FileRepair {
    qcow2::CheckResult pre;
    qcow2::RepairReport fixed;
  };

  for (const std::uint64_t k : points) {
    bool point_ok = true;
    std::vector<SparseBuffer> disks;
    if (!create_chain(disks, cfg).ok()) {
      ++rep.replay_failures;
      continue;
    }
    CrashDomain dom{.cut_after_events = k, .seed = cfg.seed};
    const Replay run = replay(dom, disks, cfg, base_p, cfg.hub, ops, true);
    if (run.open_err != Errc::ok) {
      ++rep.replay_failures;
      continue;
    }
    const std::size_t completed = run.out.completed;
    if (run.out.err != Errc::ok && run.out.err != Errc::io_error) {
      ++rep.replay_failures;
      point_ok = false;
    }
    if (dom.dead) ++rep.power_cuts;

    // Snapshot the crashed state before the primary repair mutates it —
    // the repair-of-repair loop below replays repair from this state.
    std::vector<SparseBuffer> crashed;
    if (cfg.crash_during_repair) {
      for (const SparseBuffer& d : disks) crashed.push_back(d.clone());
    }

    auto reopened =
        open_chain(plain_files(disks), cfg, base_p, /*auto_repair=*/false);
    if (!reopened.ok()) {
      ++rep.replay_failures;
      continue;
    }
    std::vector<FileRepair> repaired;
    for (qcow2::Qcow2Device* q : qcow2_files(**reopened, disks.size())) {
      if (q->dirty()) ++rep.dirty_images;
      const auto pre = sim::sync_wait(q->check());
      if (!pre.ok()) break;
      rep.pre_repair_corruptions += pre->corruptions;
      rep.pre_repair_leaks += pre->leaked_clusters;
      if (pre->corruptions != 0) point_ok = false;

      const auto fixed = sim::sync_wait(q->repair());
      if (!fixed.ok()) break;
      rep.entries_cleared += fixed->entries_cleared;
      rep.leaks_dropped += fixed->leaks_dropped;
      rep.corruptions_fixed += fixed->corruptions_fixed;
      if (fixed->journal_replayed) ++rep.journal_replays;
      if (fixed->journal_fallback) ++rep.journal_fallbacks;

      const auto post = sim::sync_wait(q->check());
      if (!post.ok()) break;
      if (!post_clean(*post)) point_ok = false;
      repaired.push_back({*pre, *fixed});
    }
    if (repaired.size() != disks.size()) {
      ++rep.replay_failures;
      continue;
    }

    const std::uint64_t lost =
        verify_content(**reopened, cfg, ops, completed, base_p);
    rep.lost_flushed_bytes += lost;
    if (lost != 0) point_ok = false;
    (void)sim::sync_wait((*reopened)->close());

    // Repair-of-repair: the power can fail again at any instant of the
    // repair the crash forced. Replay that repair against a clone of the
    // crashed chain, cutting at every one of its own mutating events; the
    // half-repaired chain must reopen, repair, and verify like any other
    // crash state.
    if (cfg.crash_during_repair) {
      for (std::uint64_t j = 0; j < 100000; ++j) {
        std::vector<SparseBuffer> rdisks;
        for (const SparseBuffer& d : crashed) rdisks.push_back(d.clone());
        CrashDomain rdom{.cut_after_events = j, .seed = cfg.seed ^ 0x5ec0ecull};
        const Replay rr = replay(rdom, rdisks, cfg, base_p, nullptr, {}, false);
        if (rr.open_err != Errc::ok && rr.open_err != Errc::io_error) {
          ++rep.replay_failures;
          point_ok = false;
          break;
        }
        if (!rdom.dead) break;  // repair ran to completion before event j
        ++rep.repair_crash_points;
        auto r2 =
            open_chain(plain_files(rdisks), cfg, base_p, /*auto_repair=*/true);
        if (!r2.ok()) {
          ++rep.replay_failures;
          point_ok = false;
          break;
        }
        bool checked = true;
        for (qcow2::Qcow2Device* q : qcow2_files(**r2, rdisks.size())) {
          const auto chk = sim::sync_wait(q->check());
          if (!chk.ok()) {
            checked = false;
            break;
          }
          if (!post_clean(*chk)) point_ok = false;
        }
        if (!checked) {
          ++rep.replay_failures;
          point_ok = false;
          break;
        }
        const std::uint64_t rlost =
            verify_content(**r2, cfg, ops, completed, base_p);
        rep.lost_flushed_bytes += rlost;
        if (rlost != 0) point_ok = false;
        (void)sim::sync_wait((*r2)->close());
      }
    }

    if (point_ok) ++rep.verified_points;
    mix(k);
    mix(run.stats.writes_kept);
    mix(run.stats.writes_dropped);
    mix(run.stats.writes_torn);
    for (const FileRepair& f : repaired) {
      mix(f.pre.leaked_clusters);
      mix(f.pre.corruptions);
      mix(f.fixed.entries_cleared);
      mix(f.fixed.leaks_dropped);
      mix(f.fixed.corruptions_fixed);
    }
    mix(lost);
    if (cfg.journal_sectors > 0) {
      for (const FileRepair& f : repaired) {
        mix(f.fixed.journal_replayed ? 1 : 0);
        mix(f.fixed.journal_entries);
      }
    }
  }
  rep.digest = fnv;
  return rep;
}

std::string to_json(const ExploreReport& r, const ExploreConfig& cfg) {
  std::string s = "{\n";
  const auto field = [&s](const char* k, std::uint64_t v, bool comma = true) {
    s += "  \"";
    s += k;
    s += "\": ";
    s += std::to_string(v);
    if (comma) s += ",";
    s += "\n";
  };
  field("seed", cfg.seed);
  field("cluster_bits", cfg.cluster_bits);
  field("image_size", cfg.image_size);
  field("guest_ops", static_cast<std::uint64_t>(cfg.guest_ops));
  field("lazy_refcounts", cfg.lazy_refcounts ? 1 : 0);
  field("cor_chain", cfg.chain == ChainShape::cache_over_base ? 1 : 0);
  field("journal_sectors", cfg.journal_sectors);
  field("crash_during_repair", cfg.crash_during_repair ? 1 : 0);
  field("two_file", cfg.chain == ChainShape::overlay_over_cache ? 1 : 0);
  field("max_crash_points", cfg.max_crash_points);
  field("total_events", r.total_events);
  field("crash_points", r.crash_points);
  field("power_cuts", r.power_cuts);
  field("replay_failures", r.replay_failures);
  field("pre_repair_corruptions", r.pre_repair_corruptions);
  field("pre_repair_leaks", r.pre_repair_leaks);
  field("dirty_images", r.dirty_images);
  field("entries_cleared", r.entries_cleared);
  field("leaks_dropped", r.leaks_dropped);
  field("corruptions_fixed", r.corruptions_fixed);
  field("post_repair_corruptions", r.post_repair_corruptions);
  field("post_repair_leaks", r.post_repair_leaks);
  field("lost_flushed_bytes", r.lost_flushed_bytes);
  field("verified_points", r.verified_points);
  field("journal_replays", r.journal_replays);
  field("journal_fallbacks", r.journal_fallbacks);
  field("repair_crash_points", r.repair_crash_points);
  field("leaks_allowed", r.leaks_allowed ? 1 : 0);
  field("digest", r.digest);
  field("pass", r.pass() ? 1 : 0, /*comma=*/false);
  s += "}\n";
  return s;
}

}  // namespace vmic::crash
