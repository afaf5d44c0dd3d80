// What a run reports: the metric catalogue (every name is declared in
// BENCHMARK.json), failure accounting over the passes, the per-layer
// metrics of a traced pass, and the one-line JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace nldl::perfbench {

/// A metric as the result line prints it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, in this order (declared in BENCHMARK.json).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"jobs_per_s", "1/s"},     {"solves_per_s", "1/s"},
    {"solve_p50_us", "us"},    {"solve_p99_us", "us"},
    {"peak_rss_mib", "MiB"},   {"ok_ratio", "ratio"},
};

/// Printed with --trace 1 on every workload; a layer a workload does not
/// reach reads 0 there.
inline constexpr MetricSpec kPerLayer[] = {
    {"platform.build_s", "s"},
    {"online.arrivals_s", "s"},
    {"online.arrivals_jobs", "count"},
    {"online.run_s", "s"},
    {"online.scheduler_calls", "count"},
    {"online.scheduler_s", "s"},
    {"qos.run_s", "s"},
    {"qos.policy_calls", "count"},
    {"qos.policy_s", "s"},
    {"qos.preemptions", "count"},
    {"qos.installment_keys", "count"},
    {"qos.installment_solve_s", "s"},
    {"dlt.calls", "count"},
    {"dlt.solve_s", "s"},
    {"dlt.outer_iterations", "count"},
    {"dlt.failures", "count"},
    {"dlt.parallel_us_p50", "us"},
    {"dlt.one_port_us_p50", "us"},
    {"dlt.slot_solve_s", "s"},
    {"dlt.share_of_run", "ratio"},
    {"sim.engine_events", "count"},
    {"sim.replays", "count"},
    {"sim.busy_periods", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.residual_s", "s"},
    {"obs.trace_events", "count"},
    {"obs.record_overhead", "ratio"},
    {"obs.critical_path_s", "s"},
    {"partition.calls", "count"},
    {"partition.peri_sum_s", "s"},
    {"partition.bisection_s", "s"},
    {"partition.layout_s", "s"},
    {"sort.sample_sort_s", "s"},
    {"sort.keys_per_s", "1/s"},
    {"linalg.outer_product_s", "s"},
    {"linalg.matmul_s", "s"},
    {"linalg.elements_shipped", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.failed_ratio", "ratio"},
};

/// Metric values by name.
using Values = std::map<std::string, double>;

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Failure accounting of a run. Every pass repeats the same batch, so the
/// batch's operations are counted once, from the first pass; each later
/// pass must reproduce that pass's digest and failure counts. The counts
/// then depend on the seed only, not on how many passes the run made.
struct Tally {
  std::size_t passes = 0;
  std::size_t attempted = 0;
  std::size_t throws = 0;
  std::size_t bad_allocations = 0;
  std::size_t violations = 0;
  /// Every pass reproduced the first pass's digest and failure counts.
  bool deterministic = true;

  void add(const PassOutcome& outcome, std::uint64_t reference);
  /// Throws, allocations failing their check and other check violations.
  [[nodiscard]] std::size_t failed() const {
    return throws + bad_allocations + violations;
  }
  [[nodiscard]] double failed_ratio() const;
  /// No served record or kernel output was wrong and every pass
  /// reproduced the first one. Solver throws and bad allocations are
  /// counted failures of the library, not of the benchmark.
  [[nodiscard]] bool correct() const {
    return violations == 0 && deterministic;
  }
};

/// Per-layer metrics of one traced pass, from its spans and counts.
[[nodiscard]] Values layer_metrics(const SpanTotals& spans,
                                   const PassOutcome& outcome);

/// Median per name over the samples that hold it.
[[nodiscard]] Values median_of(const std::vector<Values>& samples);

/// The result line: exactly correct / attempted / failed / metrics.
[[nodiscard]] std::string result_line(
    bool correct, const Tally& tally,
    const std::vector<std::pair<MetricSpec, double>>& metrics);

}  // namespace nldl::perfbench
