#include "report.hpp"

#include <string_view>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace nldl::perfbench {

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : util::quantile(std::move(values), 0.5);
}

void Tally::add(const PassOutcome& outcome, std::uint64_t reference) {
  if (passes++ == 0) {
    attempted = outcome.attempted;
    throws = outcome.throws;
    bad_allocations = outcome.bad_allocations;
    violations = outcome.violations;
  } else if (outcome.attempted != attempted || outcome.throws != throws ||
             outcome.bad_allocations != bad_allocations ||
             outcome.violations != violations) {
    deterministic = false;
  }
  if (outcome.digest != reference) deterministic = false;
}

double Tally::failed_ratio() const {
  return attempted > 0
             ? static_cast<double>(failed()) / static_cast<double>(attempted)
             : 1.0;
}

Values layer_metrics(const SpanTotals& spans, const PassOutcome& outcome) {
  const auto stat = [&](std::string_view name) -> const SpanStat* {
    const auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  const auto incl = [&](std::string_view name) {
    const SpanStat* s = stat(name);
    return s != nullptr ? s->inclusive_s : 0.0;
  };
  const auto self = [&](std::string_view name) {
    const SpanStat* s = stat(name);
    return s != nullptr ? s->self_s : 0.0;
  };
  const auto count = [&](std::string_view name) {
    const SpanStat* s = stat(name);
    return s != nullptr ? static_cast<double>(s->count) : 0.0;
  };
  const auto p50_us = [&](std::string_view name) {
    const SpanStat* s = stat(name);
    return s != nullptr ? 1e6 * median(s->durations) : 0.0;
  };
  const auto counted = [&](const char* name) {
    const auto it = outcome.counts.find(name);
    return it == outcome.counts.end() ? 0.0 : it->second;
  };

  Values m;
  m["online.run_s"] = incl("online.run");
  m["online.scheduler_calls"] = count("online.scheduler");
  m["online.scheduler_s"] = incl("online.scheduler");
  m["qos.run_s"] = incl("qos.run");
  m["qos.policy_calls"] = count("qos.policy");
  m["qos.policy_s"] = incl("qos.policy");
  m["qos.preemptions"] = counted("qos.preemptions");
  m["qos.installment_keys"] = counted("qos.installment_keys");
  m["qos.installment_solve_s"] = incl("qos.installment_solve");

  const double dlt_solve = self("dlt.parallel") + self("dlt.one_port");
  m["dlt.calls"] = count("dlt.parallel") + count("dlt.one_port");
  m["dlt.solve_s"] = dlt_solve;
  m["dlt.outer_iterations"] = outcome.outer_iterations;
  m["dlt.failures"] =
      static_cast<double>(outcome.throws + outcome.bad_allocations);
  m["dlt.parallel_us_p50"] = p50_us("dlt.parallel");
  m["dlt.one_port_us_p50"] = p50_us("dlt.one_port");
  m["dlt.slot_solve_s"] = incl("bench.resolve");

  // The run a stream serves, the outside solve stage that re-does its
  // allocations, and the decorated decision calls inside the run.
  const double online_run = incl("online.run");
  const double qos_run = incl("qos.run");
  const double run = online_run + qos_run;
  const double outside_solve =
      qos_run > 0.0 ? incl("qos.installment_solve") : incl("bench.resolve");
  const double decisions = incl("online.scheduler") + incl("qos.policy");
  if (run > 0.0) {
    m["dlt.share_of_run"] = outside_solve / run;
  } else {
    m["dlt.share_of_run"] =
        outcome.wall_s > 0.0 ? dlt_solve / outcome.wall_s : 0.0;
  }
  m["sim.engine_events"] = counted("sim.engine_events");
  m["sim.replays"] = counted("sim.replays");
  m["sim.busy_periods"] = counted("sim.busy_periods");
  m["sim.events_per_s"] = run > 0.0 ? counted("sim.engine_events") / run : 0.0;
  m["sim.residual_s"] = run > 0.0 ? run - outside_solve - decisions : 0.0;

  m["partition.calls"] =
      count("partition.peri_sum") + count("partition.bisection");
  m["partition.peri_sum_s"] = incl("partition.peri_sum");
  m["partition.bisection_s"] = incl("partition.bisection");
  m["partition.layout_s"] =
      incl("partition.discretize") + incl("partition.verify");
  const double sort_s = incl("sort.sample_sort");
  m["sort.sample_sort_s"] = sort_s;
  m["sort.keys_per_s"] = sort_s > 0.0 ? counted("sort.keys") / sort_s : 0.0;
  m["linalg.outer_product_s"] = incl("linalg.outer_product");
  m["linalg.matmul_s"] = incl("linalg.matmul");
  m["linalg.elements_shipped"] = counted("linalg.elements_shipped");
  return m;
}

Values median_of(const std::vector<Values>& samples) {
  std::map<std::string, std::vector<double>> columns;
  for (const Values& sample : samples) {
    for (const auto& [name, value] : sample) columns[name].push_back(value);
  }
  Values result;
  for (auto& [name, column] : columns) result[name] = median(column);
  return result;
}

std::string result_line(bool correct, const Tally& tally,
                        const std::vector<std::pair<MetricSpec, double>>&
                            metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    if (i > 0) line += ", ";
    line += util::json_quote(spec.name) + ": {\"value\": " +
            util::json_number(value) +
            ", \"unit\": " + util::json_quote(spec.unit) + "}";
  }
  line += "}}";
  return line;
}

}  // namespace nldl::perfbench
