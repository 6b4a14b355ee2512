// Tests for vmic::crash — the volatile write-back CrashBackend, qcow2
// crash consistency (dirty bit, repair, lazy refcounts), and the
// exhaustive crash-point sweep (crash::explore).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crash/crash_backend.hpp"
#include "crash/explore.hpp"
#include "io/mem_backend.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "qcow2/format.hpp"
#include "sim/task.hpp"
#include "util/bytes.hpp"
#include "util/units.hpp"

namespace vmic::crash {
namespace {

using io::MemBackend;
using io::MemImageStore;
using sim::sync_wait;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

std::vector<std::uint8_t> filled(std::size_t n, std::uint8_t v) {
  return std::vector<std::uint8_t>(n, v);
}

// --- CrashBackend ------------------------------------------------------

TEST(CrashBackend, BuffersWritesUntilFlush) {
  MemBackend inner;
  CrashBackend cb(inner, CrashPlan{});

  const auto data = filled(4096, 0xAB);
  ASSERT_TRUE(sync_wait(cb.pwrite(0, data)).ok());

  // The writer reads its own unflushed write...
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(sync_wait(cb.pread(0, out)).ok());
  EXPECT_EQ(out, data);
  // ...but the inner backend has not seen a byte of it.
  EXPECT_EQ(inner.size(), 0u);
  EXPECT_EQ(cb.size(), 4096u);

  ASSERT_TRUE(sync_wait(cb.flush()).ok());
  EXPECT_EQ(inner.size(), 4096u);
  std::vector<std::uint8_t> persisted(4096);
  ASSERT_TRUE(sync_wait(inner.pread(0, persisted)).ok());
  EXPECT_EQ(persisted, data);
}

TEST(CrashBackend, OverlayHonorsWriteOrder) {
  MemBackend inner;
  ASSERT_TRUE(sync_wait(inner.pwrite(0, filled(1024, 0x11))).ok());
  CrashBackend cb(inner, CrashPlan{});

  // Two overlapping unflushed writes: the later one wins on the overlap.
  ASSERT_TRUE(sync_wait(cb.pwrite(0, filled(512, 0x22))).ok());
  ASSERT_TRUE(sync_wait(cb.pwrite(256, filled(512, 0x33))).ok());

  std::vector<std::uint8_t> out(1024);
  ASSERT_TRUE(sync_wait(cb.pread(0, out)).ok());
  EXPECT_EQ(out[0], 0x22);
  EXPECT_EQ(out[255], 0x22);
  EXPECT_EQ(out[256], 0x33);
  EXPECT_EQ(out[767], 0x33);
  EXPECT_EQ(out[768], 0x11);  // untouched inner bytes show through
}

TEST(CrashBackend, TruncateShrinkReadsZeroTail) {
  MemBackend inner;
  ASSERT_TRUE(sync_wait(inner.pwrite(0, filled(2048, 0x44))).ok());
  CrashBackend cb(inner, CrashPlan{});

  ASSERT_TRUE(sync_wait(cb.truncate(1024)).ok());
  EXPECT_EQ(cb.size(), 1024u);

  std::vector<std::uint8_t> out(2048);
  ASSERT_TRUE(sync_wait(cb.pread(0, out)).ok());
  EXPECT_EQ(out[0], 0x44);
  EXPECT_EQ(out[1023], 0x44);
  EXPECT_EQ(out[1024], 0x00);  // beyond the shadow size
  EXPECT_EQ(out[2047], 0x00);
  // Inner file still holds the old length until a flush applies the op.
  EXPECT_EQ(inner.size(), 2048u);
}

TEST(CrashBackend, ScheduledCutFiresAndKillsBackend) {
  MemBackend inner;
  CrashPlan plan;
  plan.cut_after_events = 3;
  plan.seed = 7;
  CrashBackend cb(inner, plan);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sync_wait(cb.pwrite(i * 4096ull, filled(512, 0x55))).ok());
  }
  EXPECT_TRUE(cb.alive());
  EXPECT_EQ(cb.events(), 3u);

  // Event 4 is where the power fails *instead of* the op.
  EXPECT_EQ(sync_wait(cb.pwrite(0, filled(512, 0x66))).error(),
            Errc::io_error);
  EXPECT_FALSE(cb.alive());
  EXPECT_EQ(cb.stats().power_cuts, 1u);
  // Every unflushed write was adjudicated exactly once.
  EXPECT_EQ(cb.stats().writes_kept + cb.stats().writes_dropped +
                cb.stats().writes_torn,
            3u);

  // Dead means dead, for every operation class.
  std::vector<std::uint8_t> out(16);
  EXPECT_EQ(sync_wait(cb.pread(0, out)).error(), Errc::io_error);
  EXPECT_EQ(sync_wait(cb.flush()).error(), Errc::io_error);
  EXPECT_EQ(sync_wait(cb.truncate(0)).error(), Errc::io_error);
}

TEST(CrashBackend, FlushedWritesSurviveTheCut) {
  MemBackend inner;
  CrashBackend cb(inner, CrashPlan{.cut_after_events = ~0ull, .seed = 3});

  const auto durable = filled(4096, 0x77);
  ASSERT_TRUE(sync_wait(cb.pwrite(0, durable)).ok());
  ASSERT_TRUE(sync_wait(cb.flush()).ok());
  ASSERT_TRUE(sync_wait(cb.pwrite(8192, filled(4096, 0x88))).ok());

  ASSERT_TRUE(sync_wait(cb.power_cut()).ok());
  ASSERT_TRUE(sync_wait(cb.power_cut()).ok());  // idempotent
  EXPECT_EQ(cb.stats().power_cuts, 1u);

  // Whatever happened to the unflushed tail, the flushed prefix is intact.
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(sync_wait(inner.pread(0, out)).ok());
  EXPECT_EQ(out, durable);
}

TEST(CrashBackend, CutIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    auto inner = std::make_unique<MemBackend>();
    CrashBackend cb(*inner, CrashPlan{.cut_after_events = ~0ull,
                                      .seed = seed});
    // A window wide enough that keep/drop/tear all have room to differ.
    for (int i = 0; i < 12; ++i) {
      std::vector<std::uint8_t> d(3 * 512, static_cast<std::uint8_t>(i + 1));
      EXPECT_TRUE(sync_wait(cb.pwrite(i * 2048ull, d)).ok());
    }
    EXPECT_TRUE(sync_wait(cb.power_cut()).ok());
    std::vector<std::uint8_t> img(12 * 2048);
    EXPECT_TRUE(sync_wait(inner->pread(0, img)).ok());
    return std::pair(img, cb.stats());
  };

  const auto [img_a, st_a] = run(5);
  const auto [img_b, st_b] = run(5);
  EXPECT_EQ(img_a, img_b);
  EXPECT_EQ(st_a.writes_kept, st_b.writes_kept);
  EXPECT_EQ(st_a.writes_dropped, st_b.writes_dropped);
  EXPECT_EQ(st_a.writes_torn, st_b.writes_torn);

  const auto [img_c, st_c] = run(6);
  EXPECT_NE(img_a, img_c);  // a different seed slices the window differently
}

// --- qcow2 repair ------------------------------------------------------

class RepairTest : public ::testing::Test {
 protected:
  MemImageStore store_;

  // Create a small image with one cluster of data and close it cleanly.
  void make_image(const std::string& name) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 8_MiB;
    opt.cluster_bits = 16;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
    auto dev = sync_wait(qcow2::open_image(store_, name));
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(sync_wait((*dev)->write(0, filled(64_KiB, 0x5A))).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }

  SparseBuffer& raw(const std::string& name) {
    auto b = store_.buffer(name);
    EXPECT_TRUE(b.ok());
    return **b;
  }

  std::uint64_t header_u64(const std::string& name, std::uint64_t off) {
    std::uint8_t b[8];
    raw(name).read(off, b);
    return load_be64(b);
  }

  void poke_u64(const std::string& name, std::uint64_t off,
                std::uint64_t v) {
    std::uint8_t b[8];
    store_be64(b, v);
    raw(name).write(off, b);
  }
};

TEST_F(RepairTest, RepairClearsOutOfFilePointer) {
  make_image("a.qcow2");
  // Corrupt L1[0]: point it far beyond end-of-file (copied flag set).
  const std::uint64_t l1_off = header_u64("a.qcow2", 40);
  ASSERT_NE(l1_off, 0u);
  poke_u64("a.qcow2", l1_off, (1ull << 40) | qcow2::kFlagCopied);

  auto dev = sync_wait(qcow2::open_image(store_, "a.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);

  auto pre = sync_wait(q->check());
  ASSERT_TRUE(pre.ok());
  EXPECT_GT(pre->corruptions, 0u);

  auto rep = sync_wait(q->repair());
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep->entries_cleared, 0u);

  auto post = sync_wait(q->check());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->clean()) << "leaked=" << post->leaked_clusters
                             << " corrupt=" << post->corruptions;

  // The guest view of the orphaned cluster is now zero, not garbage.
  std::vector<std::uint8_t> out(64_KiB);
  ASSERT_TRUE(sync_wait((*dev)->read(0, out)).ok());
  EXPECT_TRUE(is_all_zero(out));
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST_F(RepairTest, RepairRebuildsUndercountedRefcount) {
  make_image("b.qcow2");
  // Zero the whole first refcount block: every allocated cluster becomes
  // refcount 0 while still referenced -> corruption, fixed by rebuild.
  const std::uint64_t rt_off = header_u64("b.qcow2", 48);
  ASSERT_NE(rt_off, 0u);
  const std::uint64_t rb_off = header_u64("b.qcow2", rt_off);
  ASSERT_NE(rb_off, 0u);
  std::vector<std::uint8_t> zeros(64_KiB, 0);
  raw("b.qcow2").write(rb_off, zeros);

  auto dev = sync_wait(qcow2::open_image(store_, "b.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);

  auto pre = sync_wait(q->check());
  ASSERT_TRUE(pre.ok());
  EXPECT_GT(pre->corruptions, 0u);

  auto rep = sync_wait(q->repair());
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep->corruptions_fixed, 0u);

  auto post = sync_wait(q->check());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->clean());

  // Data was never touched; it reads back exactly.
  std::vector<std::uint8_t> out(64_KiB);
  ASSERT_TRUE(sync_wait((*dev)->read(0, out)).ok());
  EXPECT_EQ(out, filled(64_KiB, 0x5A));
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST_F(RepairTest, DirtyBitAutoRepairsOnWritableOpen) {
  make_image("c.qcow2");
  // Simulate a crash: set the dirty bit by hand (byte 72, bit 0).
  poke_u64("c.qcow2", 72,
           header_u64("c.qcow2", 72) | qcow2::kIncompatDirty);

  // Default open (auto_repair_dirty) repairs and clears the bit.
  auto dev = sync_wait(qcow2::open_image(store_, "c.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  EXPECT_FALSE(q->dirty());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  EXPECT_EQ(header_u64("c.qcow2", 72) & qcow2::kIncompatDirty, 0u);
}

TEST_F(RepairTest, InheritedDirtyBitSurvivesCloseWithoutRepair) {
  make_image("d.qcow2");
  poke_u64("d.qcow2", 72,
           header_u64("d.qcow2", 72) | qcow2::kIncompatDirty);

  // Observe-only open: auto-repair off. close() must NOT bless the image
  // clean — only a repair() earns that.
  auto be = store_.open_file("d.qcow2", /*writable=*/true);
  ASSERT_TRUE(be.ok());
  block::OpenOptions opt;
  opt.auto_repair_dirty = false;
  auto dev = sync_wait(qcow2::open_any(std::move(*be), opt));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->dirty());
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  EXPECT_NE(header_u64("d.qcow2", 72) & qcow2::kIncompatDirty, 0u);
}

// Crash the power at every instant *inside* repair itself, starting from
// an artificially corrupted image (out-of-file L1 pointer + dirty bit) so
// the rebuild's entry-clearing and refcount-lowering paths actually run —
// natural crash states never corrupt (the barriers see to that), so a
// sweep over them alone cannot reach those paths. After each nested cut
// the half-repaired image must reopen, repair again, and check clean.
TEST_F(RepairTest, RepairIsRestartableFromEveryInternalCrashPoint) {
  make_image("rr.qcow2");
  const std::uint64_t l1_off = header_u64("rr.qcow2", 40);
  poke_u64("rr.qcow2", l1_off + 8, (1ull << 40) | qcow2::kFlagCopied);
  poke_u64("rr.qcow2", 72,
           header_u64("rr.qcow2", 72) | qcow2::kIncompatDirty);
  const SparseBuffer& corrupted = raw("rr.qcow2");

  std::uint64_t nested = 0;
  for (std::uint64_t j = 0; j < 10000; ++j) {
    SparseBuffer disk = corrupted.clone();
    bool cut_fired = false;
    {
      io::MemBackend inner(&disk);
      auto cb = std::make_unique<CrashBackend>(
          inner, CrashPlan{.cut_after_events = j, .seed = 13});
      CrashBackend* cbp = cb.get();
      block::OpenOptions opt;
      opt.writable = true;
      auto dev = sync_wait(qcow2::open_any(io::BackendPtr{std::move(cb)},
                                           opt));
      if (dev.ok()) {
        cut_fired = !cbp->alive();
      } else {
        ASSERT_EQ(dev.error(), Errc::io_error);
        cut_fired = true;
      }
    }
    if (!cut_fired) break;
    ++nested;
    block::OpenOptions opt;
    opt.writable = true;
    auto dev = sync_wait(qcow2::open_any(
        io::BackendPtr{std::make_unique<io::MemBackend>(&disk)}, opt));
    ASSERT_TRUE(dev.ok()) << "nested crash point " << j;
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean())
        << "nested crash point " << j << ": leaked=" << chk->leaked_clusters
        << " corrupt=" << chk->corruptions;
    // The surviving data cluster is untouched by any repair prefix.
    std::vector<std::uint8_t> out(64_KiB);
    ASSERT_TRUE(sync_wait((*dev)->read(0, out)).ok());
    EXPECT_EQ(out, filled(64_KiB, 0x5A));
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  EXPECT_GT(nested, 0u);  // the sweep must have covered real cut points
}

// --- qcow2 refcount journal --------------------------------------------

class JournalRepairTest : public RepairTest {
 protected:
  // Like make_image, but with a refcount journal.
  void make_journal_image(const std::string& name,
                          std::uint32_t sectors = 64) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 8_MiB;
    opt.cluster_bits = 16;
    opt.journal_sectors = sectors;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
    auto dev = sync_wait(qcow2::open_image(store_, name));
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(sync_wait((*dev)->write(0, filled(64_KiB, 0x5A))).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }

  std::uint64_t journal_offset(const std::string& name) {
    std::vector<std::uint8_t> hdr(4096);
    raw(name).read(0, hdr);
    auto parsed = qcow2::parse_header_area(hdr);
    EXPECT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed->journal.has_value());
    return parsed->journal->offset;
  }

  qcow2::Qcow2Device* as_q(const Result<block::DevicePtr>& dev) {
    return dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  }
};

TEST_F(JournalRepairTest, DirtyJournaledImageRepairsByReplay) {
  make_journal_image("j.qcow2");
  poke_u64("j.qcow2", 72,
           header_u64("j.qcow2", 72) | qcow2::kIncompatDirty);

  auto be = store_.open_file("j.qcow2", /*writable=*/true);
  ASSERT_TRUE(be.ok());
  block::OpenOptions opt;
  opt.auto_repair_dirty = false;
  auto dev = sync_wait(qcow2::open_any(std::move(*be), opt));
  ASSERT_TRUE(dev.ok());
  auto* q = as_q(dev);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->has_journal());

  auto rep = sync_wait(q->repair());
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->journal_replayed);
  EXPECT_FALSE(rep->journal_fallback);
  // The clean close checkpointed: every surviving record is stale.
  EXPECT_EQ(rep->journal_entries, 0u);

  auto post = sync_wait(q->check());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->clean());
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST_F(JournalRepairTest, TornRecordSectorsAreDiscarded) {
  make_journal_image("t.qcow2");
  // Garbage in two record sectors (checksum cannot match) plus the dirty
  // bit: replay must discard them and still prove consistency.
  const std::uint64_t joff = journal_offset("t.qcow2");
  std::vector<std::uint8_t> garbage(512);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  raw("t.qcow2").write(joff + 512, garbage);
  raw("t.qcow2").write(joff + 3 * 512, garbage);
  poke_u64("t.qcow2", 72,
           header_u64("t.qcow2", 72) | qcow2::kIncompatDirty);

  auto be = store_.open_file("t.qcow2", /*writable=*/true);
  ASSERT_TRUE(be.ok());
  block::OpenOptions opt;
  opt.auto_repair_dirty = false;
  auto dev = sync_wait(qcow2::open_any(std::move(*be), opt));
  ASSERT_TRUE(dev.ok());
  auto* q = as_q(dev);
  ASSERT_NE(q, nullptr);

  auto rep = sync_wait(q->repair());
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->journal_replayed);
  EXPECT_EQ(rep->journal_entries, 0u);  // garbage never counts as a record

  auto post = sync_wait(q->check());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->clean());
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST_F(JournalRepairTest, CorruptJournalHeaderFallsBackToRebuild) {
  make_journal_image("f.qcow2");
  const std::uint64_t joff = journal_offset("f.qcow2");
  std::vector<std::uint8_t> garbage(512, 0xEE);
  raw("f.qcow2").write(joff, garbage);
  poke_u64("f.qcow2", 72,
           header_u64("f.qcow2", 72) | qcow2::kIncompatDirty);

  auto be = store_.open_file("f.qcow2", /*writable=*/true);
  ASSERT_TRUE(be.ok());
  block::OpenOptions opt;
  opt.auto_repair_dirty = false;
  auto dev = sync_wait(qcow2::open_any(std::move(*be), opt));
  ASSERT_TRUE(dev.ok());
  auto* q = as_q(dev);
  ASSERT_NE(q, nullptr);

  auto rep = sync_wait(q->repair());
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->journal_replayed);
  EXPECT_TRUE(rep->journal_fallback);

  auto post = sync_wait(q->check());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->clean());

  // The rebuild rewrote a valid journal header; data survived.
  std::vector<std::uint8_t> out(64_KiB);
  ASSERT_TRUE(sync_wait((*dev)->read(0, out)).ok());
  EXPECT_EQ(out, filled(64_KiB, 0x5A));
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());

  // And the next dirty open replays instead of falling back again.
  poke_u64("f.qcow2", 72,
           header_u64("f.qcow2", 72) | qcow2::kIncompatDirty);
  auto again = sync_wait(qcow2::open_image(store_, "f.qcow2"));
  ASSERT_TRUE(again.ok());
  auto chk = sync_wait(as_q(again)->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  ASSERT_TRUE(sync_wait((*again)->close()).ok());
}

// The fallback rebuild on a journaled image must also be restartable from
// every internal crash point. The sharp edge is the journal generation
// bump at the rebuild's end: if it became durable while part of the
// rebuild did not, the next open's O(journal) fast path would see an
// empty (retired) journal and bless a half-rebuilt image — prevented by
// the flush barrier ahead of the bump.
TEST_F(JournalRepairTest, FallbackRebuildIsRestartableFromEveryCrashPoint) {
  make_journal_image("rr2.qcow2");
  const std::uint64_t joff = journal_offset("rr2.qcow2");
  std::vector<std::uint8_t> garbage(512, 0xEE);
  raw("rr2.qcow2").write(joff, garbage);  // header bad -> fallback path
  // Point the first refcount-table entry into nowhere, so the rebuild has
  // a real table change to persist (it must clear the bogus pointer and
  // publish a replacement block) — a content-no-op rebuild cannot expose
  // ordering bugs between the rebuild writes and the journal retirement.
  const std::uint64_t rt_off = header_u64("rr2.qcow2", 48);
  poke_u64("rr2.qcow2", rt_off, 1ull << 40);
  poke_u64("rr2.qcow2", 72,
           header_u64("rr2.qcow2", 72) | qcow2::kIncompatDirty);
  const SparseBuffer& corrupted = raw("rr2.qcow2");

  // The dangerous window holds exactly two unflushed writes (the rebuilt
  // refcount table and the journal generation bump), adjudicated by one
  // RNG draw per cut point — so sweep many seeds to hit every keep/drop
  // combination, in particular "keep the bump, drop the table".
  std::uint64_t nested = 0;
  for (std::uint64_t seed = 17; seed < 17 + 32; ++seed) {
  for (std::uint64_t j = 0; j < 10000; ++j) {
    SparseBuffer disk = corrupted.clone();
    bool cut_fired = false;
    {
      io::MemBackend inner(&disk);
      auto cb = std::make_unique<CrashBackend>(
          inner, CrashPlan{.cut_after_events = j, .seed = seed});
      CrashBackend* cbp = cb.get();
      block::OpenOptions opt;
      opt.writable = true;
      auto dev = sync_wait(qcow2::open_any(io::BackendPtr{std::move(cb)},
                                           opt));
      if (dev.ok()) {
        cut_fired = !cbp->alive();
      } else {
        ASSERT_EQ(dev.error(), Errc::io_error);
        cut_fired = true;
      }
    }
    if (!cut_fired) break;
    ++nested;
    block::OpenOptions opt;
    opt.writable = true;
    auto dev = sync_wait(qcow2::open_any(
        io::BackendPtr{std::make_unique<io::MemBackend>(&disk)}, opt));
    ASSERT_TRUE(dev.ok()) << "nested crash point " << j;
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean())
        << "nested crash point " << j << ": leaked=" << chk->leaked_clusters
        << " corrupt=" << chk->corruptions;
    std::vector<std::uint8_t> out(64_KiB);
    ASSERT_TRUE(sync_wait((*dev)->read(0, out)).ok());
    EXPECT_EQ(out, filled(64_KiB, 0x5A));
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
    if (HasFailure()) return;
  }
  }
  EXPECT_GT(nested, 0u);
}

// --- crash::explore sweeps ---------------------------------------------

TEST(Explore, EagerSweepPasses) {
  ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 24;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.crash_points, 0u);
  EXPECT_EQ(r.power_cuts, r.crash_points);
  EXPECT_GT(r.dirty_images, 0u);  // mid-run cuts leave the dirty bit set
  EXPECT_EQ(r.pre_repair_corruptions, 0u);  // the barrier induction claim
  EXPECT_EQ(r.lost_flushed_bytes, 0u);
}

TEST(Explore, LazySweepLeaksButNeverCorrupts) {
  ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 24;
  cfg.lazy_refcounts = true;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  // Lazy mode defers refcount decrements: crashes may strand stale-high
  // refcounts (leaks, dropped by repair) but must never corrupt.
  EXPECT_EQ(r.pre_repair_corruptions, 0u);
}

TEST(Explore, CorChainSweepPasses) {
  ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 24;
  cfg.chain = ChainShape::cache_over_base;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.crash_points, 0u);
}

TEST(Explore, JournalSweepPasses) {
  ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 24;
  cfg.journal_sectors = 64;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  // The whole point: dirty opens repair via O(journal) replay, and the
  // barrier discipline holds under the journal exactly as without it.
  EXPECT_GT(r.journal_replays, 0u);
  EXPECT_EQ(r.journal_fallbacks, 0u);
  EXPECT_EQ(r.pre_repair_corruptions, 0u);
  EXPECT_EQ(r.lost_flushed_bytes, 0u);
}

TEST(Explore, JournalCheckpointUnderCrashPasses) {
  // A 2-sector journal (header + one record) checkpoints on every second
  // append, so cuts land inside checkpoint windows all the time.
  ExploreConfig cfg;
  cfg.seed = 5;
  cfg.guest_ops = 24;
  cfg.journal_sectors = 2;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.journal_replays, 0u);
  EXPECT_EQ(r.journal_fallbacks, 0u);
}

TEST(Explore, JournalLazySweepPasses) {
  // Lazy + journal: frees stay mirror-only, allocations are journaled.
  ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 24;
  cfg.lazy_refcounts = true;
  cfg.journal_sectors = 16;
  cfg.max_crash_points = 16;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_EQ(r.pre_repair_corruptions, 0u);
}

TEST(Explore, RepairOfRepairSweepPasses) {
  // Cut the power again at every instant of every repair: repair must be
  // restartable from any of its own crash states.
  ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 12;
  cfg.crash_during_repair = true;
  cfg.max_crash_points = 8;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.repair_crash_points, 0u);
}

TEST(Explore, JournalRepairOfRepairSweepPasses) {
  ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 12;
  cfg.journal_sectors = 8;
  cfg.crash_during_repair = true;
  cfg.max_crash_points = 8;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
}

TEST(Explore, TwoFileSweepPasses) {
  // Cache + CoW overlay felled by one shared cut: no cross-file ordering
  // window may corrupt either image or lose flushed overlay writes.
  ExploreConfig cfg;
  cfg.seed = 9;
  cfg.guest_ops = 20;
  cfg.chain = ChainShape::overlay_over_cache;
  cfg.max_crash_points = 12;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.crash_points, 0u);
  EXPECT_EQ(r.pre_repair_corruptions, 0u);
  EXPECT_EQ(r.lost_flushed_bytes, 0u);
}

TEST(Explore, TwoFileRepairOfRepairSweepPasses) {
  // Repair of the overlay and the cache, cut at every instant of either:
  // the half-repaired chain must reopen, repair and verify.
  ExploreConfig cfg;
  cfg.seed = 9;
  cfg.guest_ops = 12;
  cfg.chain = ChainShape::overlay_over_cache;
  cfg.crash_during_repair = true;
  cfg.max_crash_points = 6;
  const ExploreReport r = explore(cfg);
  EXPECT_TRUE(r.pass()) << to_json(r, cfg);
  EXPECT_GT(r.repair_crash_points, 0u);
}

TEST(Explore, DigestIsDeterministic) {
  ExploreConfig cfg;
  cfg.seed = 11;
  cfg.guest_ops = 16;
  cfg.max_crash_points = 8;
  const ExploreReport a = explore(cfg);
  const ExploreReport b = explore(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.pre_repair_leaks, b.pre_repair_leaks);
  EXPECT_EQ(a.leaks_dropped, b.leaks_dropped);

  cfg.seed = 12;
  const ExploreReport c = explore(cfg);
  EXPECT_NE(a.digest, c.digest);
}

TEST(Explore, DigestCoversRepairOfRepair) {
  // The nested cuts' outcomes enter the digest, so a repair sweep of a
  // workload does not digest like the plain sweep of it.
  ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 12;
  cfg.max_crash_points = 4;
  const ExploreReport plain = explore(cfg);
  cfg.crash_during_repair = true;
  const ExploreReport nested = explore(cfg);
  ASSERT_GT(nested.repair_crash_points, 0u);
  EXPECT_NE(plain.digest, nested.digest);
}

TEST(Explore, CountersFlowIntoHub) {
  // One cut fells every file of the chain, but counts once.
  for (const ChainShape chain :
       {ChainShape::standalone, ChainShape::overlay_over_cache}) {
    obs::Hub hub;
    ExploreConfig cfg;
    cfg.seed = 4;
    cfg.guest_ops = 12;
    cfg.max_crash_points = 6;
    cfg.chain = chain;
    cfg.hub = &hub;
    const ExploreReport r = explore(cfg);
    EXPECT_TRUE(r.pass()) << to_json(r, cfg);
    EXPECT_EQ(r.power_cuts, r.crash_points);
    EXPECT_EQ(hub.registry.counter("crash.power_cuts", {}).value(),
              r.power_cuts);
  }
}

}  // namespace
}  // namespace vmic::crash
