// The one allocation memo behind every server solve.
//
// Every serving decision (an online dispatch, an SPMF priority, a qos
// installment estimate or subset schedule, an isolated baseline) is the
// optimal single-round nonlinear allocation of (load, alpha) on some
// platform, matched to the communication model, and often its engine
// replay under that model. Both are pure functions of
// (platform, load, alpha, model), so one memo per model answers all of
// them:
//
//   allocation(platform, load, alpha)  the matched allocation
//                                      (nonlinear_single_round_for);
//   replay(platform, load, alpha)      its sim::Engine replay under the
//                                      bound model: {makespan, Σ busy},
//                                      memoized in the same entry.
//
// Platforms are interned by their exact (c, w) lists, compared bit for
// bit, so there is no hash and no collision: two distinct Platform
// objects with identical workers (the interleaved slots of a two-class
// platform) share entries, and platforms that merely tie on aggregates
// do not. The memo holds at most kCapacity entries and is cleared
// whole when full, so a stream whose keys never repeat keeps a bounded
// footprint. A cached answer is bit-identical to a direct solve; only
// the number of solves changes. Not safe for concurrent use.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "dlt/nonlinear_dlt.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::dlt {

class AllocationCache {
 public:
  /// Entries held before the memo is cleared whole.
  static constexpr std::size_t kCapacity = 1024;

  /// The engine replay of an allocation under the bound model.
  struct Replay {
    double makespan = 0.0;  ///< simulated makespan
    double busy = 0.0;      ///< Σ compute busy time across workers
  };

  /// Binds the memo to `model` (which must outlive it): allocations are
  /// matched to model.kind() and replays run under `model` itself.
  explicit AllocationCache(const sim::CommModel& model) : model_(model) {}

  /// The matched optimal allocation of `load` at `alpha` on `platform`.
  /// The reference stays valid until the next lookup.
  [[nodiscard]] const NonlinearAllocation& allocation(
      const platform::Platform& platform, double load, double alpha) {
    return lookup(platform, load, alpha).allocation;
  }

  /// sim::Engine(platform, {alpha}).run(allocation.to_schedule(), model).
  [[nodiscard]] Replay replay(const platform::Platform& platform,
                              double load, double alpha);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Lookups answered from an existing entry / that had to solve.
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  /// Engine replays run (at most one per entry).
  [[nodiscard]] std::size_t replays() const noexcept { return replays_; }

 private:
  struct Entry {
    NonlinearAllocation allocation;
    std::optional<Replay> replay = std::nullopt;  ///< set on first replay()
  };

  Entry& lookup(const platform::Platform& platform, double load,
                double alpha);
  std::size_t intern(const platform::Platform& platform);

  const sim::CommModel& model_;
  std::vector<std::vector<platform::Processor>> platforms_;
  /// Keyed by (interned platform index, load, alpha).
  std::map<std::tuple<std::size_t, double, double>, Entry> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t replays_ = 0;
};

}  // namespace nldl::dlt
