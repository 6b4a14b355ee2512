// Concurrent copy-on-read bench: races K readers against one cold cache
// image on a sim-timed medium and checks the single-flight in-flight-fill
// protocol (the first reader of a cluster range fetches and fills it;
// overlapping readers wait and are served from the cache).
//
// Two scenarios:
//   * hotspot — every reader wants the same cold cluster. It must be
//     fetched from the base exactly once.
//   * cold population — readers fan out over disjoint clusters. Fills
//     must overlap: 16 readers must finish within kMaxColdRatio times one
//     reader's sim-time makespan. Fills serialised device-wide took about
//     6.4x; overlapped ones about 3.1x.
//
// Emits BENCH_concurrency_cor.json (override with --out <path>): wall-clock
// per run, sim makespan, backing-read counts. Exits 1 when a reader gets
// wrong bytes, when there are more backing reads than unique clusters (the
// dedup guarantee) or when the cold population misses the makespan bound —
// the CI gate — and 2 on a bad command line.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace vmic;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

constexpr std::uint64_t kBaseSize = 8_MiB;
constexpr std::uint64_t kSeed = 77;
constexpr int kReaders = 16;
constexpr double kMaxColdRatio = 4.0;

struct RunResult {
  bool ok = false;
  double wall_ms = 0;        ///< host wall-clock for the whole run
  double makespan_s = 0;     ///< sim time from first spawn to last reader
  std::uint64_t backing_reads = 0;
  std::uint64_t bytes_from_backing = 0;
  std::uint64_t inflight_waits = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t cor_clusters = 0;
};

sim::Task<bool> write_all(io::BlockBackend& be,
                          std::span<const std::uint8_t> data) {
  auto r = co_await be.pwrite(0, data);
  co_return r.ok();
}

sim::Task<void> reader(block::BlockDevice& dev, std::uint64_t off,
                       std::span<std::uint8_t> dst, bool& ok) {
  auto r = co_await dev.read(off, dst);
  ok = r.ok();
}

/// One cold boot of the base <- cache <- cow chain with `k` readers,
/// reader i reading `read_len` bytes at i * stride.
RunResult run_case(int k, std::uint64_t stride, std::uint64_t read_len) {
  RunResult res;
  const auto wall0 = std::chrono::steady_clock::now();

  sim::SimEnv env;
  storage::MemMedium mem{env, {.latency_us = 200.0, .bandwidth_bps = 200e6}};
  storage::SimDirectory dir{mem};

  std::vector<std::uint8_t> data(kBaseSize);
  Rng rng{kSeed};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  {
    auto be = dir.create_file("base.img");
    if (!be.ok() || !sim::run_sync(env, write_all(**be, data))) return res;
  }
  if (!sim::run_sync(env, qcow2::create_cache_image(
                              dir, "vmi.cache", "base.img", 4_MiB,
                              {.cluster_bits = 16, .virtual_size = 0}))
           .ok())
    return res;
  if (!sim::run_sync(env, qcow2::create_cow_image(dir, "vm.cow", "vmi.cache"))
           .ok())
    return res;
  auto opened = sim::run_sync(env, qcow2::open_image(dir, "vm.cow"));
  if (!opened.ok()) return res;
  block::DevicePtr cow = std::move(*opened);
  auto* cache = dynamic_cast<qcow2::Qcow2Device*>(cow->backing());
  if (cache == nullptr) return res;

  std::vector<std::vector<std::uint8_t>> bufs(k);
  std::deque<bool> oks(k, false);
  const sim::SimTime start = env.now();
  for (int i = 0; i < k; ++i) {
    bufs[i].resize(read_len);
    env.spawn(reader(*cow, i * stride, bufs[i], oks[i]));
  }
  env.run();

  res.ok = true;
  for (int i = 0; i < k; ++i) {
    if (!oks[i] || std::memcmp(bufs[i].data(), data.data() + i * stride,
                               read_len) != 0)
      res.ok = false;
  }
  res.makespan_s = sim::to_seconds(env.now() - start);
  const auto& st = cache->stats();
  res.backing_reads = st.backing_reads;
  res.bytes_from_backing = st.bytes_from_backing;
  res.inflight_waits = st.cor_inflight_waits;
  res.dedup_hits = st.cor_dedup_hits;
  res.cor_clusters = st.cor_clusters;
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  return res;
}

void print_row(const char* scenario, int readers, const RunResult& r) {
  std::printf("%16s%16d%16llu%16llu%16llu%16.6f%16.2f\n", scenario, readers,
              static_cast<unsigned long long>(r.backing_reads),
              static_cast<unsigned long long>(r.inflight_waits),
              static_cast<unsigned long long>(r.dedup_hits), r.makespan_s,
              r.wall_ms);
}

void json_run(std::FILE* f, const char* key, const RunResult& r,
              const char* trailing_comma) {
  std::fprintf(f,
               "    \"%s\": {\"ok\": %s, \"backing_reads\": %llu, "
               "\"bytes_from_backing\": %llu, \"inflight_waits\": %llu, "
               "\"dedup_hits\": %llu, \"cor_clusters\": %llu, "
               "\"sim_makespan_s\": %.9f, \"wall_ms\": %.3f}%s\n",
               key, r.ok ? "true" : "false",
               static_cast<unsigned long long>(r.backing_reads),
               static_cast<unsigned long long>(r.bytes_from_backing),
               static_cast<unsigned long long>(r.inflight_waits),
               static_cast<unsigned long long>(r.dedup_hits),
               static_cast<unsigned long long>(r.cor_clusters), r.makespan_s,
               r.wall_ms, trailing_comma);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_concurrency_cor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") != 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --out\n");
      return 2;
    }
    out = argv[++i];
  }

  bench::header(
      "Concurrent copy-on-read: single-flight fills",
      "§4.2 cache population, QEMU-style in-flight COW tracking",
      "hotspot: 1 backing read regardless of reader count; cold "
      "population: 16 readers within 4x one reader's makespan");

  const auto hot = run_case(kReaders, 0, 64_KiB);
  const auto cold_one = run_case(1, 512_KiB, 64_KiB);
  const auto cold = run_case(kReaders, 512_KiB, 64_KiB);

  bench::row_header({"scenario", "readers", "backing_rd", "waits", "dedup",
                     "makespan_s", "wall_ms"});
  print_row("hotspot", kReaders, hot);
  print_row("cold_pop", 1, cold_one);
  print_row("cold_pop", kReaders, cold);

  const std::uint64_t hot_unique = 1;
  const std::uint64_t cold_unique = kReaders;
  const bool data_ok = hot.ok && cold_one.ok && cold.ok;
  const bool dedup_ok =
      hot.backing_reads <= hot_unique && cold.backing_reads <= cold_unique;
  const double ratio =
      cold_one.makespan_s > 0 ? cold.makespan_s / cold_one.makespan_s : 0;
  const bool makespan_ok = ratio > 0 && ratio <= kMaxColdRatio;
  const bool pass = data_ok && dedup_ok && makespan_ok;

  std::printf("\nGate: dedup %s (hotspot %llu/%llu, cold %llu/%llu), "
              "cold population %.2fx one reader, bound %.1fx (%s)\n",
              dedup_ok ? "OK" : "FAIL",
              static_cast<unsigned long long>(hot.backing_reads),
              static_cast<unsigned long long>(hot_unique),
              static_cast<unsigned long long>(cold.backing_reads),
              static_cast<unsigned long long>(cold_unique), ratio,
              kMaxColdRatio, makespan_ok ? "OK" : "FAIL");

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"concurrency_cor\",\n");
  std::fprintf(f, "  \"readers\": %d,\n", kReaders);
  std::fprintf(f, "  \"hotspot\": {\n    \"unique_clusters\": %llu,\n",
               static_cast<unsigned long long>(hot_unique));
  json_run(f, "single_flight", hot, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cold_population\": {\n    \"unique_clusters\": %llu,\n",
               static_cast<unsigned long long>(cold_unique));
  std::fprintf(f, "    \"makespan_ratio\": %.4f,\n", ratio);
  std::fprintf(f, "    \"max_makespan_ratio\": %.1f,\n", kMaxColdRatio);
  json_run(f, "one_reader", cold_one, ",");
  json_run(f, "single_flight", cold, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gate\": {\"data_ok\": %s, \"dedup_ok\": %s, "
               "\"makespan_ok\": %s, \"pass\": %s}\n}\n",
               data_ok ? "true" : "false", dedup_ok ? "true" : "false",
               makespan_ok ? "true" : "false", pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  return pass ? 0 : 1;
}
