#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/backend.hpp"
#include "obs/hub.hpp"
#include "util/rng.hpp"

namespace vmic::crash {

class CrashBackend;

/// One power rail for one or more CrashBackends (several files of one
/// system — e.g. a cache image and a CoW overlay). The domain owns the
/// event clock: events are successful mutating operations on ANY member
/// (pwrite, truncate, flush — reads are free), and `cut_after_events = k`
/// means the first k events complete and the power fails *instead of*
/// event k+1. The cut destroys every member's unflushed window at the
/// same instant. That is what a host power loss does — per-file cuts
/// cannot catch ordering bugs that span files.
///
/// Members register themselves at construction and must outlive the
/// domain's last use; the domain is borrowed, not owned.
struct CrashDomain {
  /// Event index at which the power cut fires (default: never).
  std::uint64_t cut_after_events = ~std::uint64_t{0};
  /// Seed for the drop/reorder/tear decisions at cut time.
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  bool dead = false;
  std::vector<CrashBackend*> members{};  ///< `{}`: designators may omit it
};

/// Schedule of a standalone CrashBackend: a domain of one member.
struct CrashPlan {
  std::uint64_t cut_after_events = ~std::uint64_t{0};
  std::uint64_t seed = 1;
  /// Tear granularity: writes of at most this many bytes land atomically
  /// (sector semantics); larger writes may persist per-sector subsets.
  std::uint32_t sector = 512;
};

/// What a power cut did to the unflushed window (for counters/tests).
struct CrashStats {
  std::uint64_t events = 0;         ///< mutating ops completed
  std::uint64_t flushes = 0;        ///< flush barriers completed
  std::uint64_t power_cuts = 0;     ///< 0 or 1
  std::uint64_t writes_kept = 0;    ///< unflushed writes fully persisted
  std::uint64_t writes_dropped = 0; ///< unflushed writes fully lost
  std::uint64_t writes_torn = 0;    ///< unflushed writes partially persisted
};

/// Volatile write-back cache over an `io::BlockBackend`: pwrite/truncate
/// buffer in a pending window (the writer reads its own writes), and only
/// flush() applies the window to the inner backend — which makes flush()
/// exactly the durability barrier the BlockBackend contract promises.
///
/// A power cut (scheduled by the domain, or forced with power_cut())
/// destroys the pending window non-deterministically but reproducibly:
/// each unflushed write is kept, dropped, or torn at sector granularity,
/// driven by Rng(seed). Afterwards the backend is dead — every operation
/// returns Errc::io_error — and the inner backend holds one of the states
/// a real disk could expose after the crash.
///
/// The inner backend is borrowed and must outlive this wrapper.
class CrashBackend final : public io::BlockBackend {
 public:
  /// Standalone: the only member of a domain this backend owns.
  CrashBackend(io::BlockBackend& inner, CrashPlan plan,
               obs::Hub* hub = nullptr)
      : inner_(inner),
        sector_(plan.sector),
        shadow_size_(inner.size()),
        own_(CrashDomain{.cut_after_events = plan.cut_after_events,
                         .seed = plan.seed}),
        domain_(&*own_) {
    join(hub);
  }

  /// Domain member: the cut schedule and event clock live in `dom`,
  /// shared with every other member; `sector` still applies per-backend.
  /// `dom` must outlive this wrapper.
  CrashBackend(io::BlockBackend& inner, CrashDomain& dom,
               std::uint32_t sector = 512, obs::Hub* hub = nullptr)
      : inner_(inner), sector_(sector), shadow_size_(inner.size()),
        domain_(&dom) {
    join(hub);
  }

  /// Members are registered by address (and a standalone one points at
  /// its own domain), so a backend never moves.
  CrashBackend(const CrashBackend&) = delete;
  CrashBackend& operator=(const CrashBackend&) = delete;

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    if (dead_) co_return Errc::io_error;
    VMIC_CO_TRY_VOID(co_await inner_.pread(off, dst));
    // Overlay the pending window in order, so the writer observes its own
    // unflushed writes (and truncates).
    for (const Op& op : pending_) overlay(op, off, dst);
    // Bytes beyond the (possibly shrunk) shadow size read as zero.
    if (off + dst.size() > shadow_size_) {
      const std::uint64_t from =
          off >= shadow_size_ ? 0 : shadow_size_ - off;
      std::memset(dst.data() + from, 0, dst.size() - from);
    }
    co_return ok_result();
  }

  sim::Task<Result<void>> pwrite(
      std::uint64_t off, std::span<const std::uint8_t> src) override {
    VMIC_CO_TRY_VOID(co_await gate());
    VMIC_CO_TRY_VOID(check_writable());
    pending_.push_back(
        Op{false, off, {src.begin(), src.end()}});
    shadow_size_ = std::max(shadow_size_, off + src.size());
    tick();
    co_return ok_result();
  }

  sim::Task<Result<void>> flush() override {
    VMIC_CO_TRY_VOID(co_await gate());
    for (const Op& op : pending_) {
      if (op.is_trunc) {
        VMIC_CO_TRY_VOID(co_await inner_.truncate(op.off));
      } else {
        VMIC_CO_TRY_VOID(co_await inner_.pwrite(op.off, op.data));
      }
    }
    pending_.clear();
    VMIC_CO_TRY_VOID(co_await inner_.flush());
    tick();
    ++stats_.flushes;
    bump(c_flushes_);
    co_return ok_result();
  }

  sim::Task<Result<void>> truncate(std::uint64_t new_size) override {
    VMIC_CO_TRY_VOID(co_await gate());
    VMIC_CO_TRY_VOID(check_writable());
    pending_.push_back(Op{true, new_size, {}});
    shadow_size_ = new_size;
    tick();
    co_return ok_result();
  }

  [[nodiscard]] std::uint64_t size() const override { return shadow_size_; }

  [[nodiscard]] std::string describe() const override {
    return "crash:" + inner_.describe();
  }

  /// Cut the power now, regardless of the schedule. Idempotent. It
  /// fells the whole domain — one rail, one cut.
  sim::Task<Result<void>> power_cut() {
    if (!domain_->dead) VMIC_CO_TRY_VOID(co_await cut_domain());
    co_return ok_result();
  }

  [[nodiscard]] bool alive() const noexcept { return !dead_; }
  [[nodiscard]] const CrashStats& stats() const noexcept { return stats_; }
  /// Mutating events completed so far (the crash-point coordinate).
  [[nodiscard]] std::uint64_t events() const noexcept { return stats_.events; }

 private:
  struct Op {
    bool is_trunc;
    std::uint64_t off;  ///< write offset, or truncate size
    std::vector<std::uint8_t> data;
  };

  static void bump(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr) c->inc(n);
  }

  void join(obs::Hub* hub) {
    ro_ = inner_.read_only();
    domain_->members.push_back(this);
    if (hub != nullptr) {
      c_cuts_ = &hub->registry.counter("crash.power_cuts", {});
      c_kept_ = &hub->registry.counter("crash.writes_kept", {});
      c_dropped_ = &hub->registry.counter("crash.writes_dropped", {});
      c_torn_ = &hub->registry.counter("crash.writes_torn", {});
      c_flushes_ = &hub->registry.counter("crash.flushes", {});
    }
  }

  void overlay(const Op& op, std::uint64_t off,
               std::span<std::uint8_t> dst) const {
    if (op.is_trunc) {
      // Shrinks zero the tail of the view; grows change nothing (absent
      // bytes already read as zero).
      if (op.off < off + dst.size()) {
        const std::uint64_t from = op.off > off ? op.off - off : 0;
        std::memset(dst.data() + from, 0, dst.size() - from);
      }
      return;
    }
    const std::uint64_t lo = std::max(op.off, off);
    const std::uint64_t hi =
        std::min(op.off + op.data.size(), off + dst.size());
    if (lo < hi) {
      std::memcpy(dst.data() + (lo - off), op.data.data() + (lo - op.off),
                  hi - lo);
    }
  }

  /// Count a completed mutating op on the local and the domain clock.
  void tick() {
    ++stats_.events;
    ++domain_->events;
  }

  /// Check the schedule before a mutating op; fires the cut when due.
  sim::Task<Result<void>> gate() {
    if (!domain_->dead && domain_->events >= domain_->cut_after_events) {
      VMIC_CO_TRY_VOID(co_await cut_domain());
    }
    if (dead_) co_return Errc::io_error;
    co_return ok_result();
  }

  /// Fell every member of the domain at this instant. The hub of the
  /// member that fired the cut counts it once, however many files fall.
  sim::Task<Result<void>> cut_domain() {
    domain_->dead = true;
    for (std::size_t i = 0; i < domain_->members.size(); ++i) {
      CrashBackend* m = domain_->members[i];
      if (!m->dead_) {
        VMIC_CO_TRY_VOID(co_await m->apply_cut(
            domain_->seed ^ 0xCA54C0DEull ^ domain_->events ^
            (i * 0x9E3779B97F4A7C15ull)));
      }
    }
    bump(c_cuts_);
    co_return ok_result();
  }

  /// Destroy the pending window: apply a seed-chosen subset of it to the
  /// inner backend, with per-sector tearing for multi-sector writes, then
  /// go dead. The window is applied in issue order, so a kept later write
  /// still overwrites a kept earlier one (reordering only manifests as
  /// drops in between — the observable difference on a linear store).
  sim::Task<Result<void>> apply_cut(std::uint64_t seed) {
    Rng rng(seed);
    for (const Op& op : pending_) {
      if (op.is_trunc) {
        if (rng.chance(0.5)) {
          VMIC_CO_TRY_VOID(co_await inner_.truncate(op.off));
        }
        continue;
      }
      const auto roll = rng.below(4);
      if (roll == 0) {
        ++stats_.writes_dropped;
        bump(c_dropped_);
        continue;
      }
      if (roll == 3 && op.data.size() > sector_) {
        // Tear: persist a per-sector subset (sector grid is absolute, so
        // an unaligned write tears at its intersections with the grid).
        bool any = false;
        bool all = true;
        std::uint64_t p = op.off;
        const std::uint64_t end = op.off + op.data.size();
        while (p < end) {
          const std::uint64_t next = std::min<std::uint64_t>(
              end, (p / sector_ + 1) * sector_);
          if (rng.chance(0.5)) {
            VMIC_CO_TRY_VOID(co_await inner_.pwrite(
                p, std::span(op.data.data() + (p - op.off), next - p)));
            any = true;
          } else {
            all = false;
          }
          p = next;
        }
        if (any && !all) {
          ++stats_.writes_torn;
          bump(c_torn_);
        } else if (all) {
          ++stats_.writes_kept;
          bump(c_kept_);
        } else {
          ++stats_.writes_dropped;
          bump(c_dropped_);
        }
        continue;
      }
      VMIC_CO_TRY_VOID(co_await inner_.pwrite(op.off, op.data));
      ++stats_.writes_kept;
      bump(c_kept_);
    }
    pending_.clear();
    VMIC_CO_TRY_VOID(co_await inner_.flush());
    dead_ = true;
    ++stats_.power_cuts;
    co_return ok_result();
  }

  io::BlockBackend& inner_;
  std::uint32_t sector_;
  std::uint64_t shadow_size_;
  std::optional<CrashDomain> own_;  ///< a standalone backend's domain
  CrashDomain* domain_;
  std::vector<Op> pending_;
  bool dead_ = false;
  CrashStats stats_;
  obs::Counter* c_cuts_ = nullptr;
  obs::Counter* c_kept_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_torn_ = nullptr;
  obs::Counter* c_flushes_ = nullptr;
};

}  // namespace vmic::crash
