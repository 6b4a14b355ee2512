// Qcow2Device tests: create/open/read/write/CoW, backing chains,
// persistence, refcount consistency — parameterized across cluster sizes
// (512 B ... 64 KiB), including the paper's two interesting points.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "block/raw.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace vmic::qcow2 {
namespace {

using block::DevicePtr;
using io::MemImageStore;
using sim::sync_wait;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

std::vector<std::uint8_t> pattern_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  Rng rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

/// Fixture parameterized on cluster_bits.
class Qcow2DeviceTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  std::uint32_t bits() const { return GetParam(); }
  std::uint64_t cs() const { return 1ull << bits(); }

  MemImageStore store_;

  void create_image(const std::string& name, std::uint64_t size,
                    const std::string& backing = "",
                    std::uint64_t quota = 0) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = size;
    opt.cluster_bits = bits();
    opt.backing_file = backing;
    opt.cache_quota = quota;
    auto r = sync_wait(Qcow2Device::create(**be, opt));
    ASSERT_TRUE(r.ok()) << to_string(r.error());
  }

  DevicePtr open(const std::string& name, bool writable = true) {
    auto dev = sync_wait(open_image(store_, name, writable));
    EXPECT_TRUE(dev.ok()) << to_string(dev.error());
    return dev.ok() ? std::move(*dev) : nullptr;
  }

  /// Create a raw base image filled with a deterministic pattern.
  void create_raw_base(const std::string& name, std::uint64_t size,
                       std::uint64_t seed = 1) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(seed, size);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }

  std::uint64_t file_digest(const std::string& name) {
    auto buf = store_.buffer(name);
    EXPECT_TRUE(buf.ok());
    std::vector<std::uint8_t> all((*buf)->size());
    (*buf)->read(0, all);
    return fnv1a(all);
  }
};

TEST_P(Qcow2DeviceTest, CreateAndOpen) {
  create_image("a.qcow2", 100_MiB);
  auto dev = open("a.qcow2");
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->size(), 100_MiB);
  EXPECT_EQ(dev->format_name(), "qcow2");
  EXPECT_FALSE(dev->is_cache_image());
  EXPECT_FALSE(dev->read_only());
  EXPECT_EQ(dev->backing(), nullptr);
}

TEST_P(Qcow2DeviceTest, FreshImageReadsZero) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  std::vector<std::uint8_t> buf(123456, 0xFF);
  ASSERT_TRUE(sync_wait(dev->read(777, buf)).ok());
  EXPECT_TRUE(is_all_zero(buf));
}

TEST_P(Qcow2DeviceTest, WriteReadRoundTrip) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  const auto data = pattern_bytes(7, 300000);
  // Deliberately unaligned offset.
  ASSERT_TRUE(sync_wait(dev->write(12345, data)).ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sync_wait(dev->read(12345, out)).ok());
  EXPECT_EQ(data, out);
  // Around the write, still zeros.
  std::vector<std::uint8_t> edge(12345);
  ASSERT_TRUE(sync_wait(dev->read(0, edge)).ok());
  EXPECT_TRUE(is_all_zero(edge));
}

TEST_P(Qcow2DeviceTest, OverwriteAllocatedCluster) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  const auto a = pattern_bytes(1, 100000);
  const auto b = pattern_bytes(2, 100000);
  ASSERT_TRUE(sync_wait(dev->write(0, a)).ok());
  ASSERT_TRUE(sync_wait(dev->write(0, b)).ok());
  std::vector<std::uint8_t> out(b.size());
  ASSERT_TRUE(sync_wait(dev->read(0, out)).ok());
  EXPECT_EQ(b, out);
}

TEST_P(Qcow2DeviceTest, PersistsAcrossReopen) {
  create_image("a.qcow2", 10_MiB);
  const auto data = pattern_bytes(3, 200000);
  {
    auto dev = open("a.qcow2");
    ASSERT_TRUE(sync_wait(dev->write(1_MiB + 17, data)).ok());
    ASSERT_TRUE(sync_wait(dev->close()).ok());
  }
  auto dev = open("a.qcow2", /*writable=*/false);
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sync_wait(dev->read(1_MiB + 17, out)).ok());
  EXPECT_EQ(data, out);
}

TEST_P(Qcow2DeviceTest, OutOfRangeRejected) {
  create_image("a.qcow2", 1_MiB);
  auto dev = open("a.qcow2");
  std::vector<std::uint8_t> buf(100);
  EXPECT_EQ(sync_wait(dev->read(1_MiB - 50, buf)).error(),
            Errc::out_of_range);
  EXPECT_EQ(sync_wait(dev->write(1_MiB, buf)).error(), Errc::out_of_range);
  // Boundary-exact access is fine.
  EXPECT_TRUE(sync_wait(dev->read(1_MiB - 100, buf)).ok());
}

TEST_P(Qcow2DeviceTest, ReadOnlyOpenRejectsWrites) {
  create_image("a.qcow2", 1_MiB);
  auto dev = open("a.qcow2", /*writable=*/false);
  std::vector<std::uint8_t> buf(100, 1);
  EXPECT_TRUE(dev->read_only());
  EXPECT_EQ(sync_wait(dev->write(0, buf)).error(), Errc::read_only);
}

TEST_P(Qcow2DeviceTest, UnalignedVirtualSizeTail) {
  // Virtual size deliberately not cluster-aligned.
  const std::uint64_t size = 4_MiB + 1234;
  create_image("a.qcow2", size);
  auto dev = open("a.qcow2");
  const auto data = pattern_bytes(5, 1000);
  ASSERT_TRUE(sync_wait(dev->write(size - 1000, data)).ok());
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(sync_wait(dev->read(size - 1000, out)).ok());
  EXPECT_EQ(data, out);
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

// ---------------------------------------------------------------------------
// Backing chains (plain CoW, §2)
// ---------------------------------------------------------------------------

TEST_P(Qcow2DeviceTest, CowReadsThroughToBase) {
  create_raw_base("base.img", 4_MiB, /*seed=*/11);
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");
  ASSERT_NE(dev->backing(), nullptr);
  EXPECT_EQ(dev->backing()->format_name(), "raw");

  const auto expect = pattern_bytes(11, 4_MiB);
  std::vector<std::uint8_t> out(100000);
  ASSERT_TRUE(sync_wait(dev->read(1_MiB + 3, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 1_MiB + 3, out.size()));
}

TEST_P(Qcow2DeviceTest, CowWritesDoNotTouchBase) {
  create_raw_base("base.img", 4_MiB, 11);
  const auto base_digest_before = file_digest("base.img");
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");

  const auto data = pattern_bytes(12, 500000);
  ASSERT_TRUE(sync_wait(dev->write(100000, data)).ok());
  ASSERT_TRUE(sync_wait(dev->close()).ok());
  EXPECT_EQ(file_digest("base.img"), base_digest_before);
}

TEST_P(Qcow2DeviceTest, PartialClusterWriteFillsFromBase) {
  // A sub-cluster write to an unallocated cluster must merge with base
  // content (copy-on-write fill).
  create_raw_base("base.img", 4_MiB, 11);
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");

  auto expect = pattern_bytes(11, 4_MiB);
  const std::uint64_t off = 2 * cs() + 100;  // inside cluster 2
  const auto data = pattern_bytes(13, 50);
  ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
  std::memcpy(expect.data() + off, data.data(), data.size());

  // The whole surrounding cluster must now read as base-with-patch.
  std::vector<std::uint8_t> out(3 * cs());
  ASSERT_TRUE(sync_wait(dev->read(cs(), out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + cs(), out.size()));
}

TEST_P(Qcow2DeviceTest, BaseIsDemotedToReadOnly) {
  // §4.3: backing images are opened RW, then demoted to RO when they turn
  // out not to be cache images.
  create_raw_base("base.img", 1_MiB, 11);
  create_image("cow.qcow2", 1_MiB, "base.img");
  auto dev = open("cow.qcow2");
  ASSERT_NE(dev->backing(), nullptr);
  EXPECT_TRUE(dev->backing()->read_only());
  std::vector<std::uint8_t> buf(10, 1);
  EXPECT_EQ(sync_wait(dev->backing()->write(0, buf)).error(),
            Errc::read_only);
}

TEST_P(Qcow2DeviceTest, QcowOverQcowChain) {
  // qcow2 base <- qcow2 overlay (not a cache): two-level chain.
  create_image("mid.qcow2", 2_MiB);
  {
    auto mid = open("mid.qcow2");
    const auto data = pattern_bytes(21, 1_MiB);
    ASSERT_TRUE(sync_wait(mid->write(0, data)).ok());
    ASSERT_TRUE(sync_wait(mid->close()).ok());
  }
  create_image("top.qcow2", 2_MiB, "mid.qcow2");
  auto top = open("top.qcow2");
  const auto expect = pattern_bytes(21, 1_MiB);
  std::vector<std::uint8_t> out(100000);
  ASSERT_TRUE(sync_wait(top->read(500000, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 500000, out.size()));
}

TEST_P(Qcow2DeviceTest, MissingBackingFails) {
  create_image("cow.qcow2", 1_MiB, "nonexistent.img");
  auto dev = sync_wait(open_image(store_, "cow.qcow2", true));
  EXPECT_FALSE(dev.ok());
  EXPECT_EQ(dev.error(), Errc::not_found);
}

// ---------------------------------------------------------------------------
// Consistency / refcounts
// ---------------------------------------------------------------------------

TEST_P(Qcow2DeviceTest, CheckCleanAfterRandomWrites) {
  create_image("a.qcow2", 16_MiB);
  auto dev = open("a.qcow2");
  Rng rng{42};
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t off = rng.below(16_MiB - 64_KiB);
    const auto data = pattern_bytes(i, 1 + rng.below(64_KiB));
    ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  EXPECT_GT(chk->data_clusters, 0u);
}

TEST_P(Qcow2DeviceTest, RefcountTableGrowth) {
  // Force the refcount table to be undersized so allocations must grow it.
  auto be = store_.create_file("tiny-rt.qcow2");
  ASSERT_TRUE(be.ok());
  Qcow2Device::CreateOptions opt;
  opt.virtual_size = 64_MiB;
  opt.cluster_bits = bits();
  opt.expected_file_size = 1;  // comically small => 1 refcount-table cluster
  ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());

  auto dev = open("tiny-rt.qcow2");
  // Write enough data to overflow the initial refcount coverage
  // (clusters_per_rt_cluster * cs bytes for one table cluster).
  const Layout ly{bits()};
  const std::uint64_t coverage = ly.clusters_per_rt_cluster() * cs();
  const std::uint64_t to_write = std::min<std::uint64_t>(
      48_MiB, coverage + 8 * cs());
  const auto chunk = pattern_bytes(9, 1_MiB);
  for (std::uint64_t off = 0; off + chunk.size() <= to_write;
       off += chunk.size()) {
    ASSERT_TRUE(sync_wait(dev->write(off, chunk)).ok()) << off;
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  // And the data is still intact after the table moved.
  std::vector<std::uint8_t> out(chunk.size());
  ASSERT_TRUE(sync_wait(dev->read(0, out)).ok());
  EXPECT_EQ(chunk, out);
}

// Property test: random interleaved reads/writes against a flat
// reference model must agree at every step.
TEST_P(Qcow2DeviceTest, PropertyMatchesReferenceModel) {
  const std::uint64_t size = 8_MiB;
  create_raw_base("base.img", size, 31);
  create_image("cow.qcow2", size, "base.img");
  auto dev = open("cow.qcow2");

  auto model = pattern_bytes(31, size);
  Rng rng{99};
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t len = 1 + rng.below(150000);
    const std::uint64_t off = rng.below(size - len);
    if (rng.chance(0.5)) {
      const auto data = pattern_bytes(1000 + i, len);
      ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
      std::memcpy(model.data() + off, data.data(), len);
    } else {
      std::vector<std::uint8_t> out(len);
      ASSERT_TRUE(sync_wait(dev->read(off, out)).ok());
      ASSERT_EQ(0, std::memcmp(out.data(), model.data() + off, len))
          << "step " << i << " off=" << off << " len=" << len;
    }
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, Qcow2DeviceTest,
                         ::testing::Values(9u, 12u, 16u),
                         [](const auto& info) {
                           return "cb" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Probing & helpers (not cluster-size dependent)
// ---------------------------------------------------------------------------

TEST(Qcow2OpenAny, ProbesRawVsQcow2) {
  MemImageStore store;
  {
    auto be = store.create_file("raw.img");
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(1, 1_MiB);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }
  {
    auto be = store.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  auto raw = sync_wait(open_image(store, "raw.img"));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)->format_name(), "raw");
  auto q = sync_wait(open_image(store, "img.qcow2"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->format_name(), "qcow2");
}

TEST(Qcow2Chain, CreateCowInheritsBackingSize) {
  MemImageStore store;
  {
    auto be = store.create_file("base.img");
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(1, 3_MiB);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }
  ASSERT_TRUE(sync_wait(create_cow_image(store, "vm.cow", "base.img")).ok());
  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->size(), 3_MiB);
  EXPECT_FALSE((*dev)->is_cache_image());
}

TEST(Qcow2Chain, BackingCycleRejected) {
  // a <- b <- a: resolving the chain must fail instead of recursing
  // forever.
  MemImageStore store;
  auto make = [&](const std::string& name, const std::string& backing) {
    auto be = store.create_file(name);
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.backing_file = backing;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  };
  make("a.qcow2", "b.qcow2");
  make("b.qcow2", "a.qcow2");
  auto dev = sync_wait(open_image(store, "a.qcow2"));
  EXPECT_FALSE(dev.ok());
}

TEST(Qcow2Chain, DeepButAcyclicChainOpens) {
  MemImageStore store;
  {
    auto be = store.create_file("l0");
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  for (int i = 1; i <= 5; ++i) {
    auto be = store.create_file(std::string("l").append(std::to_string(i)));
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.backing_file = std::string("l").append(std::to_string(i - 1));
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  auto dev = sync_wait(open_image(store, "l5"));
  ASSERT_TRUE(dev.ok());
  int depth = 0;
  for (const block::BlockDevice* d = dev->get(); d != nullptr;
       d = d->backing()) {
    ++depth;
  }
  EXPECT_EQ(depth, 6);
}

TEST(Qcow2Create, RejectsInvalidOptions) {
  MemImageStore store;
  auto be = store.create_file("x");
  ASSERT_TRUE(be.ok());
  Qcow2Device::CreateOptions opt;
  opt.virtual_size = 0;
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  opt.virtual_size = 1_MiB;
  opt.cluster_bits = 8;
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  opt.cluster_bits = 9;
  opt.cache_quota = 512;  // cannot even hold the metadata skeleton
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
}

}  // namespace
}  // namespace vmic::qcow2
