// Failure-injection tests: the block layer must propagate (not mask, not
// crash on) backend I/O errors, and a failing cache medium must degrade
// to pass-through reads rather than failing the guest.
#include <gtest/gtest.h>

#include <memory>

#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/bytes.hpp"
#include "util/units.hpp"

namespace vmic {
namespace {

using sim::sync_wait;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

/// One-shot write failure: the write with index `fail_at` (0-based,
/// counted across every open of the faulty file) fails once; every other
/// write goes through.
struct OneShotWrite {
  std::int64_t fail_at = -1;
  std::int64_t seen = 0;
};

/// Backend wrapper that starts failing after a programmable number of
/// operations (reads and writes counted separately), and optionally fails
/// one chosen write on top of that.
class FaultyBackend final : public io::BlockBackend {
 public:
  FaultyBackend(io::BackendPtr inner, std::int64_t reads_before_fail,
                std::int64_t writes_before_fail,
                OneShotWrite* one_shot = nullptr)
      : inner_(std::move(inner)),
        reads_left_(reads_before_fail),
        writes_left_(writes_before_fail),
        one_shot_(one_shot) {}

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    if (reads_left_-- <= 0) co_return Errc::io_error;
    co_return co_await inner_->pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    if (writes_left_-- <= 0) co_return Errc::io_error;
    if (one_shot_ != nullptr && one_shot_->seen++ == one_shot_->fail_at) {
      co_return Errc::io_error;
    }
    co_return co_await inner_->pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    co_return co_await inner_->flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    co_return co_await inner_->truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::string describe() const override { return "faulty"; }

 private:
  io::BackendPtr inner_;
  std::int64_t reads_left_;
  std::int64_t writes_left_;
  OneShotWrite* one_shot_;
};

/// Directory that wraps every opened file in a FaultyBackend.
class FaultyStore final : public io::ImageDirectory {
 public:
  explicit FaultyStore(io::MemImageStore& inner) : inner_(inner) {}

  std::int64_t reads_before_fail = 1'000'000'000;
  std::int64_t writes_before_fail = 1'000'000'000;
  std::string faulty_file;  // only this file misbehaves ("" = none)
  OneShotWrite one_shot;

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(be, inner_.open_file(name, writable));
    if (name == faulty_file) {
      return io::BackendPtr{std::make_unique<FaultyBackend>(
          std::move(be), reads_before_fail, writes_before_fail, &one_shot)};
    }
    return io::BackendPtr{std::move(be)};
  }
  Result<io::BackendPtr> create_file(const std::string& name) override {
    return inner_.create_file(name);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }

 private:
  io::MemImageStore& inner_;
};

struct Rig {
  io::MemImageStore mem;
  FaultyStore store{mem};

  explicit Rig(std::uint32_t cache_bits = 9, bool noise = false) {
    auto be = mem.create_file("base.img");
    EXPECT_TRUE(be.ok());
    // `noise` puts a 4 KiB noise cluster in every 32 KiB of the 0x5A
    // runs, so compressed fills store both payload kinds.
    std::vector<std::uint8_t> data(4_MiB, 0x5A);
    for (std::size_t i = 0; noise && i < data.size(); i += 32_KiB) {
      for (std::size_t k = 0; k < 4_KiB; ++k) {
        data[i + k] = static_cast<std::uint8_t>((i + k) * 2654435761u >> 13);
      }
    }
    EXPECT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
    EXPECT_TRUE(
        sync_wait(qcow2::create_cache_image(mem, "vmi.cache", "base.img",
                                            2_MiB, {.cluster_bits = cache_bits,
                                                    .virtual_size = 0}))
            .ok());
    EXPECT_TRUE(
        sync_wait(qcow2::create_cow_image(mem, "vm.cow", "vmi.cache")).ok());
  }
};

TEST(FaultInjection, BaseReadFailurePropagates) {
  Rig rig;
  rig.store.faulty_file = "base.img";
  // Budget 1: the open-time format probe succeeds, the first real read
  // against the base fails.
  rig.store.reads_before_fail = 1;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  std::vector<std::uint8_t> buf(64_KiB);
  EXPECT_EQ(sync_wait((*dev)->read(0, buf)).error(), Errc::io_error);
}

TEST(FaultInjection, DeadBaseFailsOpen) {
  // A base that cannot even be probed fails the chain open cleanly.
  Rig rig;
  rig.store.faulty_file = "base.img";
  rig.store.reads_before_fail = 0;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error(), Errc::io_error);
}

TEST(FaultInjection, CacheWriteFailureDegradesToPassThrough) {
  // A cache that cannot be written must not fail the guest read: the
  // driver stops populating and serves from the base (same path as the
  // quota ENOSPC case).
  Rig rig;
  rig.store.faulty_file = "vmi.cache";
  rig.store.writes_before_fail = 0;  // CoR writes fail immediately
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  auto* cache = dynamic_cast<qcow2::Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);

  std::vector<std::uint8_t> buf(64_KiB);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  for (auto b : buf) ASSERT_EQ(b, 0x5A);
  EXPECT_FALSE(cache->cor_active());
  // Subsequent reads keep working (pass-through, no more cache writes).
  ASSERT_TRUE(sync_wait((*dev)->read(1_MiB, buf)).ok());
  for (auto b : buf) ASSERT_EQ(b, 0x5A);
}

TEST(FaultInjection, WarmCacheReadFailureSurfaces) {
  Rig rig;
  // Warm the cache fault-free first.
  {
    auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
    ASSERT_TRUE(dev.ok());
    std::vector<std::uint8_t> buf(1_MiB);
    ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  // Now the cache medium dies shortly after open: warm reads that hit the
  // cache surface the error.
  rig.store.faulty_file = "vmi.cache";
  rig.store.reads_before_fail = 30;  // enough for open-time metadata
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  if (!dev.ok()) {
    EXPECT_EQ(dev.error(), Errc::io_error);
    return;
  }
  std::vector<std::uint8_t> buf(64_KiB);
  Errc last = Errc::ok;
  for (int i = 0; i < 16 && last == Errc::ok; ++i) {
    last = sync_wait((*dev)->read(static_cast<std::uint64_t>(i) * buf.size(),
                                  buf))
               .error();
  }
  EXPECT_EQ(last, Errc::io_error);
}

TEST(FaultInjection, CowWriteFailurePropagates) {
  Rig rig;
  rig.store.faulty_file = "vm.cow";
  rig.store.writes_before_fail = 0;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  std::vector<std::uint8_t> data(4_KiB, 1);
  EXPECT_EQ(sync_wait((*dev)->write(0, data)).error(), Errc::io_error);
  // Reads still work (they don't touch the failing write path).
  std::vector<std::uint8_t> buf(4_KiB);
  EXPECT_TRUE(sync_wait((*dev)->read(1_MiB, buf)).ok());
}

/// Fail the Nth write to `file` exactly once, for every N that an
/// operation and its follow-up issue. A clean I/O failure may fail the
/// operation (or, for copy-on-read, stop population), but it must never
/// leak a cluster or corrupt the metadata of the image it hit.
enum class SweepOp { guest_write, cor_fill, compressed_cor_fill };

void sweep_one_shot_writes(SweepOp op) {
  const bool cor = op != SweepOp::guest_write;
  const bool compress = op == SweepOp::compressed_cor_fill;
  const std::string file = cor ? "vmi.cache" : "vm.cow";
  std::int64_t n = 0;
  for (;; ++n) {
    Rig rig(compress ? 12 : 9, compress);
    rig.store.faulty_file = file;
    rig.store.one_shot.fail_at = n;
    auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
    ASSERT_TRUE(dev.ok());
    auto* cache = dynamic_cast<qcow2::Qcow2Device*>((*dev)->backing());
    ASSERT_NE(cache, nullptr);
    cache->set_cor_compress(compress);
    if (cor) {
      // Reads always succeed: a failed fill only stops population.
      std::vector<std::uint8_t> buf(160_KiB);
      ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok()) << "write #" << n;
      ASSERT_TRUE(sync_wait((*dev)->read(1_MiB, buf)).ok()) << "write #" << n;
    } else {
      std::vector<std::uint8_t> data(4_KiB, 1);
      (void)sync_wait((*dev)->write(0, data));
      (void)sync_wait((*dev)->write(1_MiB, data));
    }
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(cor ? cache : dev->get());
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_EQ(chk->leaked_clusters, 0u) << "write #" << n;
    EXPECT_EQ(chk->corruptions, 0u) << "write #" << n;
    if (rig.store.one_shot.seen <= n) break;  // N never reached: done
  }
  EXPECT_GT(n, 5);
}

TEST(FaultInjection, OneShotWriteFailureNeverLeaksOverlay) {
  sweep_one_shot_writes(SweepOp::guest_write);
}

TEST(FaultInjection, OneShotWriteFailureNeverLeaksCorFill) {
  sweep_one_shot_writes(SweepOp::cor_fill);
}

TEST(FaultInjection, OneShotWriteFailureNeverLeaksCompressedFill) {
  sweep_one_shot_writes(SweepOp::compressed_cor_fill);
}

TEST(FaultInjection, TruncatedImageFileRejected) {
  io::MemImageStore store;
  {
    auto be = store.create_file("img.qcow2");
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  (*store.buffer("img.qcow2"))->resize(50);  // decapitate
  auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
  EXPECT_FALSE(dev.ok());
}

TEST(FaultInjection, CorruptL1PointerDetectedByCheck) {
  io::MemImageStore store;
  {
    auto be = store.create_file("img.qcow2");
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 4_MiB;
    opt.cluster_bits = 12;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  {
    auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
    ASSERT_TRUE(dev.ok());
    std::vector<std::uint8_t> data(64_KiB, 7);
    ASSERT_TRUE(sync_wait((*dev)->write(0, data)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  // Corrupt the first L1 entry: point it past the end of the file.
  {
    auto* buf = *store.buffer("img.qcow2");
    std::uint8_t hdr[104];
    buf->read(0, hdr);
    const std::uint64_t l1_off = load_be64(hdr + 40);
    std::uint8_t evil[8];
    store_be64(evil, (1ull << 40) | (1ull << 63));
    buf->write(l1_off, evil);
  }
  auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_GT(chk->corruptions, 0u);
}

}  // namespace
}  // namespace vmic
