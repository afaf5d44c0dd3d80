// The benchmark's four workloads. Each one builds its inputs from a seed,
// then runs the same batch once per pass, from one caller thread.
//
//   online_stream   a long Poisson stream through online::Server
//   qos_stream      the soak's qos cell through qos::Server
//   solver_sweep    independent allocation requests straight into dlt
//   paper_kernels   the paper's Section 3-4 partition, sort and linalg
//                   kernels
//
// Every workload also sends allocation requests whose host latency is
// timed one by one: the served jobs' allocations on the streams, the
// sweep's requests, and the square partitions of paper_kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace nldl::perfbench {

/// What one pass of a workload's batch produced.
struct PassOutcome {
  double wall_s = 0.0;     ///< host time of the batch (the timed pass)
  std::size_t items = 0;   ///< jobs served / requests sent / kernels run
  std::size_t allocations = 0;  ///< allocations returned
  double solve_wall_s = 0.0;    ///< host time spent returning them
  std::vector<double> solve_us;  ///< latency of each allocation request
  std::size_t attempted = 0;     ///< operations attempted
  std::size_t throws = 0;        ///< library calls that threw
  /// Allocations returned that failed allocation_ok: the solver's known
  /// accuracy defects, counted as failed operations like throws.
  std::size_t bad_allocations = 0;
  /// Any other output that failed its check: served records, kernel
  /// results. These make the run incorrect.
  std::size_t violations = 0;
  double outer_iterations = 0.0;  ///< Σ solver_iterations of the requests
  std::uint64_t digest = 0;      ///< digest of the pass's outputs
  /// Counts the pass read from the library (engine events, preemptions,
  /// ...), keyed by per-layer metric name.
  std::map<std::string, double> counts;
  /// Simulated latency quantiles of the streams (printed, not a metric).
  double sim_latency_p50 = 0.0;
  double sim_latency_p99 = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build platforms and inputs from `seed`, replacing earlier ones.
  virtual void setup(std::uint64_t seed, SpanRecorder* spans) = 0;

  /// Counts describing the inputs the last setup() built, keyed by
  /// per-layer metric name.
  [[nodiscard]] virtual std::map<std::string, double> setup_counts() const {
    return {};
  }

  /// One pass over the batch. A null `spans` is the untraced pass; a
  /// traced pass records spans around every call into the library and
  /// runs the layer-only stages as well.
  [[nodiscard]] virtual PassOutcome pass(SpanRecorder* spans) = 0;

  /// Traced run only, after the passes: the obs-layer stage of the
  /// streams. Adds its metrics to `layer` and returns false when the
  /// recorded run's digest differs from `digest`.
  virtual bool observe(SpanRecorder& spans, double untraced_wall_s,
                       std::uint64_t digest,
                       std::map<std::string, double>& layer) {
    (void)spans;
    (void)untraced_wall_s;
    (void)digest;
    (void)layer;
    return true;
  }
};

/// The workload called `name`, or null when there is none.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// Names accepted by make_workload, in benchmark order.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace nldl::perfbench
