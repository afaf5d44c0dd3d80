// The online server: an open system of divisible-load jobs on one star
// platform.
//
// The server owns the queueing/admission layer and drives every job's
// service through the event-driven sim::Engine:
//
//   - the platform is carved into scheduler.shares() disjoint worker
//     partitions ("slots"), interleaved by worker index so heterogeneous
//     platforms split evenly (worker i goes to slot i mod S);
//   - whenever a slot is idle and the queue is non-empty, the scheduler
//     picks the next job; the job's load is split across the slot's
//     workers by the OPTIMAL single-round nonlinear allocation matched to
//     the communication model (dlt::nonlinear_one_port_single_round under
//     one-port, dlt::nonlinear_parallel_single_round otherwise; every
//     solve of a run goes through one run-local dlt::AllocationCache),
//     and the resulting schedule is replayed by sim::Engine under the
//     configured CommModel — the per-job finish time is timestamped by
//     the job's sim::SharedMasterPeriod (see "Master modes" below);
//   - simultaneous events resolve deterministically: completions first,
//     then arrivals, then dispatches in ascending slot index. The whole
//     simulation consumes no RNG, so a run is a pure function of the job
//     stream — bit-identical wherever it executes (the property
//     bench_online's serial-vs-parallel self-check rides on).
//
// Master modes: every job is served through a sim::SharedMasterPeriod,
// one engine run per busy period that multiplexes the chunks of every job
// dispatched into it (each job's chunks are released at its dispatch
// instant and contend under the ONE configured CommModel). The mode only
// decides which slots share a period: under kPrivatePort each slot has its
// own (a partitioned master, so every period holds one job at a time);
// under kSharedMaster all slots share one, which with a
// BoundedMultiportModel capacity is honest cross-slot bandwidth
// contention. A single-job period reproduces that job's solo replay bit
// for bit (chunk times are period-relative), so exclusive schedulers are
// unchanged by the mode and fair-share only diverges where contention is
// real. A period is flushed once all of its slots are idle and replayed
// after every fill pass that dispatched into it.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dlt/allocation_cache.hpp"
#include "obs/trace.hpp"
#include "online/job.hpp"
#include "online/scheduler.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::obs {
class MetricsRegistry;
}  // namespace nldl::obs

namespace nldl::online {

/// How concurrent slots reach the master (see the file comment).
enum class MasterMode {
  kPrivatePort,   ///< one busy period per slot: a partitioned master
  kSharedMaster,  ///< one busy period for all slots: honest contention
};

[[nodiscard]] std::string to_string(MasterMode mode);

struct ServerOptions {
  sim::CommModelKind comm = sim::CommModelKind::kParallelLinks;
  /// Master capacity / concurrency (consulted for kBoundedMultiport).
  double capacity = std::numeric_limits<double>::infinity();
  std::size_t max_concurrent = sim::BoundedMultiportModel::kUnlimited;
  /// Whether concurrent slots contend for the master's bandwidth:
  /// kPrivatePort gives every slot its own busy period, kSharedMaster
  /// multiplexes all slots through one.
  MasterMode master = MasterMode::kPrivatePort;
  /// Also simulate every job alone on the full platform to fill
  /// JobStats::isolated_makespan (the slowdown baseline). Costs one extra
  /// engine run per job.
  bool record_isolated = true;
  /// Busy periods resume each replay from a checkpoint of
  /// the settled prefix (sim::SharedMasterOptions::incremental) instead
  /// of re-simulating the whole period. Bit-identical results; off only
  /// buys the O(period²) reference behavior.
  bool incremental_replay = true;
  /// Optional trace sink (obs/trace.hpp, non-owning, must outlive the
  /// server's run). When set, the served timeline is emitted as typed
  /// events on the simulated clock: chunk transfer/compute spans with
  /// job/tenant/worker/alpha attribution, dispatch instants, whole-job
  /// spans, and the busy periods' replay bookkeeping.
  /// The isolated-baseline runs (record_isolated) stay untraced — they
  /// are counterfactuals, not the served timeline. Tracing never changes
  /// results: JobStats are bit-identical with or without a sink.
  obs::TraceSink* trace = nullptr;
};

class Server {
 public:
  explicit Server(const platform::Platform& platform,
                  ServerOptions options = {});

  [[nodiscard]] const platform::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Simulate the open system to completion (every job served, however
  /// far past the last arrival that takes). `jobs` must be in
  /// non-decreasing arrival order with ids 0..n-1 — the shape every
  /// ArrivalProcess produces. Returns one JobStats per job, in id order.
  /// `metrics`, when non-null, accumulates the busy periods' replay cost
  /// as counters (replay.engine_events / replay.replays /
  /// replay.busy_periods) — the soak bench's events/sec.
  [[nodiscard]] std::vector<JobStats> run(
      const std::vector<Job>& jobs, const Scheduler& scheduler,
      obs::MetricsRegistry* metrics = nullptr) const;

 private:
  /// kArrival instant when tracing: the job joined the wait queue with
  /// `ahead` jobs in front of it (the queue-position cause of its wait).
  void emit_arrival(const Job& job, std::size_t ahead) const;

  /// The event loop behind run(): carves the platform into the
  /// scheduler's slots and serves `jobs` through the mode's busy periods,
  /// solving every dispatch through the run's `cache` and filling `stats`
  /// (all but isolated_makespan) in place.
  void serve(const std::vector<Job>& jobs, const Scheduler& scheduler,
             dlt::AllocationCache& cache, std::vector<JobStats>& stats,
             obs::MetricsRegistry* metrics) const;

  const platform::Platform& platform_;
  ServerOptions options_;
  std::unique_ptr<sim::CommModel> model_;
};

}  // namespace nldl::online
