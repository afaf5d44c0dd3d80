// Pluggable multi-load queue policies for the online server.
//
// A Scheduler makes two decisions: how many disjoint processor partitions
// ("slots") the server should carve the platform into, and — whenever a
// slot frees up — which queued job starts next on it. Three policies ship:
//
//   FcfsScheduler        one slot (the whole platform), jobs in arrival
//                        order: the exclusive baseline.
//   FairShareScheduler   k slots (processor-partitioning fair share): up
//                        to k jobs run concurrently, each on a 1/k slice
//                        of the platform, still FCFS within the queue.
//                        Whether those k concurrent jobs also share the
//                        MASTER's bandwidth is the server's
//                        MasterMode (online/server.hpp): private ports
//                        flatter fair share, kSharedMaster charges the
//                        real contention bill (bench_contention).
//   SpmfScheduler        one slot, shortest-PREDICTED-makespan first: the
//                        priority is the nonlinear optimal makespan of
//                        dlt::nonlinear_parallel_single_round, not the raw
//                        load. With alpha > 1 jobs in the mix this
//                        matters: compute cost is superlinear in size, so
//                        a small quadratic job can out-cost a much larger
//                        linear one, and the classical smallest-size-first
//                        rule mis-ranks exactly where the paper's no-free-
//                        lunch effect bites (tests/test_analysis.cpp pins
//                        the ranking flip).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dlt/allocation_cache.hpp"
#include "online/arrivals.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::online {

/// Predicted makespan of `job` run alone on `platform`: the common finish
/// time of the optimal single-round nonlinear allocation MATCHED to the
/// communication model — one-port optimality conditions under kOnePort,
/// parallel-links otherwise (bounded multiport has no closed-form
/// allocator; parallel links is its uncapped limit). This is the SPMF
/// priority and the quantity whose predicted-vs-simulated agreement
/// test_analysis.cpp checks.
[[nodiscard]] double predicted_makespan(
    const Job& job, const platform::Platform& platform,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

/// Weighted mean predicted makespan of the mix's mean-load job across its
/// alpha classes: the exclusive-service capacity reference the drivers use
/// to map a target load factor to an arrival rate (rate = load / this).
[[nodiscard]] double mean_predicted_makespan(
    const JobMix& mix, const platform::Platform& platform,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of disjoint processor partitions the server should run; the
  /// server clamps it to the worker count. 1 = exclusive whole-platform
  /// service.
  [[nodiscard]] virtual std::size_t shares() const { return 1; }

  /// Index into `queue` (non-empty, in arrival order) of the job to start
  /// next on `slot_platform`.
  [[nodiscard]] virtual std::size_t pick(
      const std::vector<Job>& queue,
      const platform::Platform& slot_platform) const = 0;
};

/// FCFS on the whole platform, one job at a time.
class FcfsScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fcfs"; }
  [[nodiscard]] std::size_t pick(
      const std::vector<Job>& queue,
      const platform::Platform& slot_platform) const override;
};

/// FCFS over `shares` disjoint processor partitions.
class FairShareScheduler final : public Scheduler {
 public:
  explicit FairShareScheduler(std::size_t shares);

  [[nodiscard]] std::string name() const override { return "fair-share"; }
  [[nodiscard]] std::size_t shares() const override { return shares_; }
  [[nodiscard]] std::size_t pick(
      const std::vector<Job>& queue,
      const platform::Platform& slot_platform) const override;

 private:
  std::size_t shares_;
};

/// Shortest-predicted-makespan first on the whole platform, with the
/// prediction matched to the communication model the server simulates
/// under (pass the same CommModelKind as ServerOptions::comm). Ties go to
/// the earliest arrival.
///
/// Predictions go through the scheduler's own dlt::AllocationCache,
/// keyed by (slot platform, load, alpha): a queued job's priority never
/// changes, so a dispatch costs one solver run per NEW queued shape
/// instead of one per queued job. The memo is keyed by the exact slot
/// platform, so one instance can be reused across servers; concurrent
/// pick() calls on one instance are not supported (construct one
/// scheduler per sweep point, as bench_online does).
class SpmfScheduler final : public Scheduler {
 public:
  explicit SpmfScheduler(
      sim::CommModelKind comm = sim::CommModelKind::kParallelLinks)
      : model_(sim::make_comm_model(comm)), cache_(*model_) {}

  [[nodiscard]] std::string name() const override { return "spmf"; }
  [[nodiscard]] std::size_t pick(
      const std::vector<Job>& queue,
      const platform::Platform& slot_platform) const override;

  [[nodiscard]] const dlt::AllocationCache& cache() const noexcept {
    return cache_;
  }

 private:
  std::unique_ptr<sim::CommModel> model_;  ///< binds cache_'s allocator
  mutable dlt::AllocationCache cache_;
};

/// Discriminator for the built-in schedulers (bench/example sweep axis).
enum class SchedulerKind {
  kFcfs,
  kFairShare,
  kSpmf,
};

[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Factory; `shares` is only consulted for kFairShare, `comm` (the
/// server's communication model, for matched predictions) only for kSpmf.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, std::size_t shares = 4,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

}  // namespace nldl::online
