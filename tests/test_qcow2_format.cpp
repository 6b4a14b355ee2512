// Unit tests for the QCOW2 on-disk header/extension (de)serialisation and
// the address-translation math of §4.1.
#include <gtest/gtest.h>

#include <vector>

#include "qcow2/format.hpp"
#include "qcow2/layout.hpp"
#include "util/bytes.hpp"
#include "util/units.hpp"

namespace vmic::qcow2 {
namespace {

using vmic::literals::operator""_MiB;
using vmic::literals::operator""_GiB;

Header sample_header() {
  Header h;
  h.cluster_bits = 16;
  h.size = 10_GiB;
  h.l1_size = 20;
  h.l1_table_offset = 3 * 65536;
  h.refcount_table_offset = 1 * 65536;
  h.refcount_table_clusters = 1;
  return h;
}

TEST(Qcow2Format, HeaderRoundTripPlain) {
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);

  auto parsed = parse_header_area(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->h.magic, kMagic);
  EXPECT_EQ(parsed->h.version, kVersion);
  EXPECT_EQ(parsed->h.cluster_bits, 16u);
  EXPECT_EQ(parsed->h.size, 10_GiB);
  EXPECT_EQ(parsed->h.l1_size, 20u);
  EXPECT_EQ(parsed->h.l1_table_offset, 3u * 65536);
  EXPECT_FALSE(parsed->cache.has_value());
  EXPECT_TRUE(parsed->backing_file.empty());
}

TEST(Qcow2Format, HeaderRoundTripWithCacheAndBacking) {
  Header h = sample_header();
  const std::string backing = "images/centos-6.3.img";
  h.backing_file_offset =
      header_area_size(CacheExtension{}, std::nullopt, backing) - backing.size();
  h.backing_file_size = static_cast<std::uint32_t>(backing.size());

  CacheExtension ce{250_MiB, 42 * 65536};
  std::vector<std::uint8_t> buf(header_area_size(ce, std::nullopt, backing), 0);
  const auto payload_off = write_header_area(h, ce, std::nullopt, backing, buf);
  EXPECT_GT(payload_off, 0u);

  auto parsed = parse_header_area(buf);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->cache.has_value());
  EXPECT_EQ(parsed->cache->quota, 250_MiB);
  EXPECT_EQ(parsed->cache->current_size, 42u * 65536);
  EXPECT_EQ(parsed->cache_ext_payload_offset, payload_off);
  EXPECT_EQ(parsed->backing_file, backing);
}

TEST(Qcow2Format, MagicIsQfi) {
  // "QFI\xfb" on disk, byte for byte.
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  EXPECT_EQ(buf[0], 'Q');
  EXPECT_EQ(buf[1], 'F');
  EXPECT_EQ(buf[2], 'I');
  EXPECT_EQ(buf[3], 0xFB);
}

TEST(Qcow2Format, RejectsBadMagic) {
  std::vector<std::uint8_t> buf(kHeaderLength, 0);
  EXPECT_EQ(parse_header_area(buf).error(), Errc::invalid_format);
}

TEST(Qcow2Format, RejectsUnsupportedVersion) {
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  store_be32(buf.data() + 4, 7);
  EXPECT_EQ(parse_header_area(buf).error(), Errc::unsupported);
}

TEST(Qcow2Format, RejectsBadClusterBits) {
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  for (std::uint32_t bits : {0u, 8u, 22u, 63u}) {
    write_header_area(h, std::nullopt, std::nullopt, "", buf);
    store_be32(buf.data() + 20, bits);
    EXPECT_EQ(parse_header_area(buf).error(), Errc::invalid_format)
        << "bits=" << bits;
  }
}

TEST(Qcow2Format, RejectsEncryptionAndSnapshots) {
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  store_be32(buf.data() + 32, 1);  // crypt_method = AES
  EXPECT_EQ(parse_header_area(buf).error(), Errc::unsupported);

  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  store_be32(buf.data() + 60, 3);  // nb_snapshots
  EXPECT_EQ(parse_header_area(buf).error(), Errc::unsupported);
}

TEST(Qcow2Format, SkipsUnknownExtensions) {
  // Backward compatibility the other way around: a reader (like a stock
  // QEMU) that does not know the cache extension must be able to skip it;
  // symmetrically, our parser skips extensions it does not know.
  Header h = sample_header();
  std::vector<std::uint8_t> buf(512, 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  // Overwrite the end marker with {unknown ext, len 12} + end marker.
  std::size_t off = kHeaderLength;
  store_be32(buf.data() + off, 0xDEADF00D);
  store_be32(buf.data() + off + 4, 12);
  off += 8 + 16;  // payload padded to 8
  store_be32(buf.data() + off, kExtEnd);

  auto parsed = parse_header_area(buf);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->unknown_extensions.size(), 1u);
  EXPECT_EQ(parsed->unknown_extensions[0], 0xDEADF00Du);
}

TEST(Qcow2Format, ParsesVersion2Headers) {
  // qcow2 v2: 72-byte header, no extensions, no feature fields. Our
  // parser accepts it (read-only compatibility with old images).
  Header h = sample_header();
  std::vector<std::uint8_t> buf(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  store_be32(buf.data() + 4, 2);  // version = 2
  auto parsed = parse_header_area(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->h.version, 2u);
  EXPECT_EQ(parsed->h.header_length, 72u);
  EXPECT_FALSE(parsed->cache.has_value());  // extensions not walked in v2
}

TEST(Qcow2Format, TruncatedExtensionAreaIsCorrupt) {
  Header h = sample_header();
  std::vector<std::uint8_t> full(header_area_size(std::nullopt, std::nullopt, ""), 0);
  write_header_area(h, std::nullopt, std::nullopt, "", full);
  // Chop off the end marker.
  std::vector<std::uint8_t> buf(full.begin(), full.begin() + kHeaderLength);
  EXPECT_EQ(parse_header_area(buf).error(), Errc::corrupt);
}

TEST(Qcow2Format, WrappingBackingNameBoundsAreCorrupt) {
  // offset + size wraps to 0x100, inside the 4 KiB that open() reads: a
  // sum-based bounds check would pass it and read the name from 256
  // bytes before the buffer.
  Header h = sample_header();
  h.backing_file_offset = 0xFFFFFFFFFFFFFF00ull;
  h.backing_file_size = 0x200;
  std::vector<std::uint8_t> buf(4096, 0);
  write_header_area(h, std::nullopt, std::nullopt, "", buf);
  EXPECT_EQ(parse_header_area(buf).error(), Errc::corrupt);
}

// --------------------------------------------------------------------------
// Layout math (§4.1)
// --------------------------------------------------------------------------

TEST(Qcow2Format, TableBoundsAcceptSaneGeometry) {
  // sample_header's tables end at cluster 4; 20 L1 entries map 10 GiB.
  EXPECT_TRUE(check_table_bounds(sample_header(), 4 * 65536).ok());
}

TEST(Qcow2Format, TableBoundsRejectHostileHeaders) {
  const std::uint64_t file = 1_GiB;
  Header h = sample_header();
  h.l1_size = 0xFFFFFFF0;  // 32 GiB of L1: would abort on allocation
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);

  h = sample_header();
  h.refcount_table_clusters = 0xFFFFFFF0;
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);

  h = sample_header();
  h.size = 1ull << 63;  // the 20-entry L1 cannot map it
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);
  h.size = ~0ull;  // rounding up must not wrap to a small entry count
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);

  // Tables past the end of the file, including offsets that would wrap.
  h = sample_header();
  EXPECT_EQ(check_table_bounds(h, 3 * 65536 + 8).error(), Errc::corrupt);
  h.l1_table_offset = ~0ull - 7;
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);
  h = sample_header();
  h.refcount_table_offset = 4_GiB;
  EXPECT_EQ(check_table_bounds(h, file).error(), Errc::corrupt);
}

TEST(Qcow2Layout, SplitsAddressBits) {
  // With cluster_bits = d, an L2 table holds 2^(d-3) entries; the paper's
  // derivation m = d - 3 (8-byte entries in a one-cluster table).
  const Layout l64k{16};
  EXPECT_EQ(l64k.cluster_size(), 64u * KiB);
  EXPECT_EQ(l64k.l2_bits(), 13u);
  EXPECT_EQ(l64k.l2_entries(), 8192u);
  EXPECT_EQ(l64k.bytes_per_l2(), 512_MiB);

  const Layout l512{9};
  EXPECT_EQ(l512.cluster_size(), 512u);
  EXPECT_EQ(l512.l2_entries(), 64u);
  EXPECT_EQ(l512.bytes_per_l2(), 32u * KiB);
}

TEST(Qcow2Layout, IndexDecomposition) {
  const Layout ly{16};
  const std::uint64_t vaddr = 5_GiB + 123 * 64 * KiB + 777;
  // Recompose the address from its parts.
  const std::uint64_t recomposed =
      (ly.l1_index(vaddr) * ly.l2_entries() + ly.l2_index(vaddr)) *
          ly.cluster_size() +
      ly.in_cluster(vaddr);
  EXPECT_EQ(recomposed, vaddr);
  EXPECT_EQ(ly.in_cluster(vaddr), 777u);
}

TEST(Qcow2Layout, L1EntriesForImageSizes) {
  const Layout ly{16};
  EXPECT_EQ(ly.l1_entries_for(512_MiB), 1u);
  EXPECT_EQ(ly.l1_entries_for(512_MiB + 1), 2u);
  EXPECT_EQ(ly.l1_entries_for(10_GiB), 20u);
}

TEST(Qcow2Layout, L2BytesMatchPaperFigure) {
  // §5.1: "For a cache quota of 200 MB, only 3.1 MB is necessary for
  // L2-tables" — at 512 B clusters, 200 MiB of data needs
  // 200 MiB / 512 entries of 8 bytes = 3.125 MiB of L2 tables.
  const Layout ly{9};
  const std::uint64_t data = 200_MiB;
  const std::uint64_t l2_tables =
      div_ceil(data / ly.cluster_size(), ly.l2_entries());
  const double l2_bytes =
      static_cast<double>(l2_tables * ly.cluster_size()) / (1024.0 * 1024.0);
  EXPECT_NEAR(l2_bytes, 3.125, 0.01);
}

TEST(Qcow2Layout, RefcountGeometry) {
  const Layout ly{9};
  EXPECT_EQ(ly.refcounts_per_block(), 256u);      // 512/2
  EXPECT_EQ(ly.rt_entries_per_cluster(), 64u);    // 512/8
  EXPECT_EQ(ly.clusters_per_rt_cluster(), 16384u);
}

}  // namespace
}  // namespace vmic::qcow2
