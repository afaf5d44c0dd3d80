// Sustained-load soak: a million Poisson jobs through the shared-master
// event loops, proving the incremental-replay engine at scale.
//
// Six cells, each an independent open-system run:
//
//   online/incremental   --jobs (default 10^6) jobs, fair-share slots on
//                        a shared bounded-multiport master — the
//                        headline: jobs/sec, engine events/sec, peak RSS.
//   online/full          --compare-jobs jobs with full O(period²) replay,
//   online/incremental2  the same stream incrementally — the two must
//                        produce bitwise-identical per-job digests (part
//                        of the exit code) and their wall times give the
//                        replay speedup at this load.
//   qos/incremental      --qos-jobs jobs through qos::Server at
//                        concurrency 2 (installment-level shared master),
//   qos/full             plus the same full-vs-incremental comparison
//   qos/incremental2     pair as above.
//
// Every cell derives its job stream from a fixed seed (comparison pairs
// share one), so the whole bench is a util::Sweep under bench::Harness:
// parallel and serial passes must agree bit for bit. Per-cell wall times
// are measured inside the pass but excluded from the bitwise signature
// (they land in the measured sidecar, not the deterministic payload).
//
// --trace=FILE additionally re-runs the qos/incremental2 cell with an
// obs::TraceRecorder attached, proves the traced digest bit-identical to
// the untraced cell (part of the exit code), exports the timeline as
// Chrome trace-event JSON to FILE, and prints the ASCII time-attribution
// summary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"
#include "online/arrivals.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sim/multiplex.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

constexpr std::size_t kFairShareSlots = 4;
constexpr double kBoundedCapacity = 2.0;

online::JobMix job_mix() {
  online::JobMix mix;
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

/// FNV-1a over the bytes of per-job (dispatch, finish) pairs, exposed as
/// an exactly-representable double (53 bits) so it can ride the
/// harness's identical_doubles signature check.
class JobDigest {
 public:
  void add(double dispatch, double finish) noexcept {
    mix_bytes(dispatch);
    mix_bytes(finish);
  }
  [[nodiscard]] double value() const noexcept {
    return static_cast<double>(hash_ >> 11);
  }

 private:
  void mix_bytes(double value) noexcept {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (unsigned char byte : bytes) {
      hash_ ^= byte;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct CellSpec {
  const char* name;
  bool qos = false;
  bool incremental = true;
  std::size_t jobs_target = 0;
  std::uint64_t stream_seed = 0;
};

struct CellResult {
  std::size_t jobs = 0;
  double digest = 0.0;
  std::uint64_t engine_events = 0;
  std::uint64_t replays = 0;
  std::uint64_t busy_periods = 0;
  /// Wall seconds of this cell in the pass it was computed in — timing,
  /// not simulation output, so it is NOT part of the bitwise signature.
  double wall_seconds = 0.0;
};

struct SoakResults {
  std::vector<CellResult> cells;

  [[nodiscard]] std::vector<double> signature() const {
    std::vector<double> sig;
    for (const CellResult& cell : cells) {
      sig.push_back(static_cast<double>(cell.jobs));
      sig.push_back(cell.digest);
      sig.push_back(static_cast<double>(cell.engine_events));
      sig.push_back(static_cast<double>(cell.replays));
      sig.push_back(static_cast<double>(cell.busy_periods));
    }
    return sig;
  }
};

/// Horizon for ~`target` Poisson arrivals, padded 2% so the realized
/// count lands at or above the target (a 10^6-job soak should actually
/// complete 10^6 jobs, not 10^6 minus the realization shortfall).
double arrival_horizon(std::size_t target, double rate) {
  return 1.02 * static_cast<double>(target) / rate;
}

CellResult run_online_cell(const platform::Platform& plat,
                           const CellSpec& spec, double rate,
                           obs::TraceSink* trace = nullptr) {
  util::Rng rng(spec.stream_seed);
  const auto jobs = online::PoissonArrivals(rate, job_mix())
                        .generate(arrival_horizon(spec.jobs_target, rate), rng);

  online::ServerOptions options;
  options.comm = sim::CommModelKind::kBoundedMultiport;
  options.capacity = kBoundedCapacity;
  options.master = online::MasterMode::kSharedMaster;
  options.record_isolated = false;
  options.incremental_replay = spec.incremental;
  options.trace = trace;
  const online::FairShareScheduler fair(kFairShareSlots);

  obs::MetricsRegistry metrics;
  const auto stats =
      online::Server(plat, options).run(jobs, fair, &metrics);

  CellResult result;
  result.jobs = stats.size();
  JobDigest digest;
  for (const online::JobStats& job : stats) {
    digest.add(job.dispatch, job.finish);
  }
  result.digest = digest.value();
  result.engine_events = metrics.counter_value("replay.engine_events");
  result.replays = metrics.counter_value("replay.replays");
  result.busy_periods = metrics.counter_value("replay.busy_periods");
  return result;
}

CellResult run_qos_cell(const platform::Platform& plat,
                        const CellSpec& spec, double rate,
                        obs::TraceSink* trace = nullptr,
                        obs::MetricsRegistry* registry_out = nullptr,
                        std::vector<qos::JobRecord>* records_out = nullptr) {
  util::Rng rng(spec.stream_seed);
  const auto jobs = online::PoissonArrivals(rate, job_mix())
                        .generate(arrival_horizon(spec.jobs_target, rate), rng);

  qos::ServerOptions options;
  options.service.comm = sim::CommModelKind::kBoundedMultiport;
  options.service.capacity = kBoundedCapacity;
  options.service.plan.rounds = 3;
  options.service.plan.restart_load_fraction = 0.3;
  options.admission.mode = qos::AdmissionMode::kAdmitAll;
  options.concurrency = 2;
  options.incremental_replay = spec.incremental;
  options.trace = trace;
  qos::SrptPolicy policy;

  obs::MetricsRegistry local;
  obs::MetricsRegistry& metrics =
      registry_out != nullptr ? *registry_out : local;
  auto records = qos::Server(plat, options).run(jobs, policy, &metrics);

  CellResult result;
  result.jobs = records.size();
  JobDigest digest;
  for (const qos::JobRecord& record : records) {
    digest.add(record.dispatch, record.finish);
  }
  result.digest = digest.value();
  result.engine_events = metrics.counter_value("replay.engine_events");
  result.replays = metrics.counter_value("replay.replays");
  result.busy_periods = metrics.counter_value("replay.busy_periods");
  if (records_out != nullptr) *records_out = std::move(records);
  return result;
}

SoakResults compute_all(std::size_t threads,
                        const platform::Platform& plat,
                        const std::vector<CellSpec>& specs,
                        double online_rate, double qos_rate) {
  util::Grid grid;
  grid.axis("cell", specs.size());
  util::SweepOptions options;
  options.threads = threads;

  SoakResults results;
  results.cells =
      util::Sweep(std::move(grid), options)
          .map<CellResult>([&](const util::SweepPoint& point, util::Rng&) {
            const CellSpec& spec = specs[point.index_of("cell")];
            CellResult cell;
            {
              const bench::ProfileScope timer(cell.wall_seconds);
              cell = spec.qos ? run_qos_cell(plat, spec, qos_rate)
                              : run_online_cell(plat, spec, online_rate);
            }
            return cell;
          });
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (const auto code = bench::check_flags(
          args, "Sustained-load soak of the online and qos servers.",
          {{"jobs", "online jobs per headline cell (1000000)"},
           {"qos-jobs", "qos jobs per cell (100000)"},
           {"compare-jobs", "jobs per full-vs-incremental pair (10000)"},
           {"load", "offered load factor (0.9)"},
           {"p", "workers of the two-class platform (8)"},
           {"trace", "export one traced cell's timeline to FILE"},
           {"metrics", "dump that cell's MetricsRegistry JSON to FILE"},
           {"blame", "print that cell's critical-path blame table"},
           {"slo", "burn-rate objective of the traced cell (0.95)"}})) {
    return *code;
  }
  const auto jobs =
      static_cast<std::size_t>(args.get_int("jobs", 1000000));
  const auto qos_jobs =
      static_cast<std::size_t>(args.get_int("qos-jobs", 100000));
  const auto compare_jobs =
      static_cast<std::size_t>(args.get_int("compare-jobs", 10000));
  const double load = args.get_double("load", 0.9);
  const auto p = static_cast<std::size_t>(args.get_int("p", 8));

  const platform::Platform plat =
      platform::Platform::two_class(p, 1.0, 4.0);
  // Calibrate the offered load against the capacity of the fair-share
  // system as configured: each slot serves one job at a time on its
  // 1/k slice of the platform (where nonlinear jobs are much slower
  // than on the whole machine), so the service capacity is the sum of
  // the slices' job rates — NOT 1 / whole-platform makespan. Getting
  // this wrong turns "sustained load" into an overloaded system whose
  // wait queue (and wall time) grows without bound.
  const platform::Platform::Partition carve =
      plat.interleaved_partition(kFairShareSlots);
  double capacity = 0.0;
  for (const platform::Platform& slot : carve.subsets) {
    capacity += 1.0 / online::mean_predicted_makespan(
                          job_mix(), slot,
                          sim::CommModelKind::kBoundedMultiport);
  }
  const double online_rate = load * capacity;
  // The qos server amplifies each job into `rounds` installments plus
  // restart inflation, on concurrency-2 subsets; offer a
  // proportionally thinner stream so that open system stays stable too.
  const double qos_rate = online_rate / 4.0;

  const std::vector<CellSpec> specs{
      {"online/incremental", false, true, jobs, 0x50AC01},
      {"online/full", false, false, compare_jobs, 0x50AC02},
      {"online/incremental2", false, true, compare_jobs, 0x50AC02},
      {"qos/incremental", true, true, qos_jobs, 0x51AC01},
      {"qos/full", true, false, compare_jobs, 0x51AC02},
      {"qos/incremental2", true, true, compare_jobs, 0x51AC02},
  };

  bench::Harness harness("soak", bench::harness_options_from_args(args));
  harness.config("jobs", jobs);
  harness.config("qos_jobs", qos_jobs);
  harness.config("compare_jobs", compare_jobs);
  harness.config("load", load);
  harness.config("p", p);
  harness.config("platform", "two_class(slow=1, k=4)");
  harness.config("fair_share_slots", kFairShareSlots);
  harness.config("bounded_capacity", kBoundedCapacity);

  const SoakResults results = harness.run<SoakResults>(
      [&](std::size_t threads) {
        return compute_all(threads, plat, specs, online_rate, qos_rate);
      },
      [](const SoakResults& a, const SoakResults& b) {
        return bench::identical_doubles(a.signature(), b.signature());
      });

  std::size_t total_jobs = 0;
  for (const CellResult& cell : results.cells) total_jobs += cell.jobs;
  harness.items(total_jobs);

  std::printf("=== Shared-master soak: %zu-cell sustained load %.2f ===\n\n",
              results.cells.size(), load);
  util::Table table({"cell", "jobs", "busy periods", "replays",
                     "engine events", "wall s", "jobs/s", "events/s"});
  for (std::size_t i = 0; i < results.cells.size(); ++i) {
    const CellResult& cell = results.cells[i];
    const double wall = cell.wall_seconds > 0.0 ? cell.wall_seconds : 1e-9;
    table.row()
        .cell(specs[i].name)
        .cell(cell.jobs)
        .cell(static_cast<std::size_t>(cell.busy_periods))
        .cell(static_cast<std::size_t>(cell.replays))
        .cell(static_cast<std::size_t>(cell.engine_events))
        .cell(cell.wall_seconds, 3)
        .cell(static_cast<double>(cell.jobs) / wall, 0)
        .cell(static_cast<double>(cell.engine_events) / wall, 0)
        .done();
  }
  table.print(std::cout);

  // Incremental must reproduce full replay bit for bit — this is part of
  // the exit code, exactly like the harness's serial/parallel check.
  bool replay_identical = true;
  for (std::size_t full = 1; full + 1 < results.cells.size(); full += 3) {
    const CellResult& reference = results.cells[full];
    const CellResult& incremental = results.cells[full + 1];
    const bool match = reference.jobs == incremental.jobs &&
                       reference.digest == incremental.digest;  // nldl-lint: allow(double-eq): bitwise replay digest compare
    if (!match) replay_identical = false;
    const double speedup =
        incremental.wall_seconds > 0.0
            ? reference.wall_seconds / incremental.wall_seconds
            : 0.0;
    std::printf("\n%s vs %s: digests %s | replay speedup %.1fx "
                "(%.0f -> %.0f events)\n",
                specs[full].name, specs[full + 1].name,
                match ? "identical" : "DIFFER (replay bug!)", speedup,
                static_cast<double>(reference.engine_events),
                static_cast<double>(incremental.engine_events));
  }

  // --trace=FILE: re-run the small traced qos cell, prove traced ==
  // untraced bit for bit, export the Perfetto-loadable timeline, and
  // print where the worker-seconds went.
  bool trace_identical = true;
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
  const bool blame = args.get_bool("blame", false);
  if (!trace_path.empty() || !metrics_path.empty() || blame) {
    const std::size_t traced_cell = specs.size() - 1;  // qos/incremental2
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    std::vector<qos::JobRecord> cell_records;
    const CellResult traced = run_qos_cell(
        plat, specs[traced_cell], qos_rate, &recorder, &registry,
        &cell_records);
    const CellResult& untraced = results.cells[traced_cell];
    trace_identical = traced.jobs == untraced.jobs &&
                      traced.digest == untraced.digest &&  // nldl-lint: allow(double-eq): bitwise replay digest compare
                      traced.engine_events == untraced.engine_events;
    std::printf("\ntraced %s: %zu jobs, %zu events | vs untraced: %s\n",
                specs[traced_cell].name, traced.jobs,
                static_cast<std::size_t>(traced.engine_events),
                trace_identical ? "bit-identical"
                                : "DIFFER (tracing changed results!)");

    // Burn-rate over the soak's deadline budget (this stream is
    // best-effort — deadlines at infinity — so any alert is a bug worth
    // failing CI over; the monitor's accounting still exercises the full
    // path). Alerts land in the recorder before export.
    double cell_horizon = 0.0;
    for (const qos::JobRecord& record : cell_records) {
      cell_horizon = std::max(cell_horizon, record.finish);
    }
    if (cell_horizon <= 0.0) cell_horizon = 72.0;
    obs::BurnRateMonitor monitor(
        obs::SloPolicy::paging(args.get_double("slo", 0.95),
                               cell_horizon / 72.0),
        cell_horizon);
    for (const qos::JobRecord& record : cell_records) {
      if (!record.admitted) continue;
      monitor.observe(record.finish, record.finish > record.job.deadline);
    }
    monitor.finalize(&recorder, &registry);
    std::fputs(monitor.render().c_str(), stdout);

    // The blame decomposition must close bit-exactly on every job; the
    // check rides the exit code like the on/off identity above.
    const obs::CriticalPath analysis(recorder.events());
    for (const obs::JobBlame& job : analysis.jobs()) {
      if (job.total() != job.latency) {
        std::fprintf(stderr, "blame components do not sum to latency "
                             "for job %zu\n", job.job);
        trace_identical = false;
      }
    }
    if (blame) {
      std::fputs(
          obs::render_blame(analysis, 10, specs[traced_cell].name).c_str(),
          stdout);
    }

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      obs::ChromeTraceOptions trace_options;
      trace_options.workers = p;
      trace_options.label = "soak " + std::string(specs[traced_cell].name);
      trace_options.critical_path = &analysis;
      obs::write_chrome_trace(out, recorder.events(), trace_options);
      out.flush();
      if (out) {
        std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                    recorder.size());
      } else {
        std::fprintf(stderr, "warning: could not write %s\n",
                     trace_path.c_str());
        trace_identical = false;
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      util::JsonWriter json(out);
      registry.write_json(json);
      const bool complete = json.complete();
      out << '\n';
      out.flush();
      if (out && complete) {
        std::printf("metrics written to %s (%zu entries)\n",
                    metrics_path.c_str(), registry.size());
      } else {
        std::fprintf(stderr, "warning: could not write %s\n",
                     metrics_path.c_str());
        trace_identical = false;
      }
    }
    std::fputs(
        obs::render_attribution(obs::attribute_time(recorder.events(), p),
                                specs[traced_cell].name)
            .c_str(),
        stdout);
    // Downsampled gantt: a soak-scale stream renders at terminal width
    // instead of a column per chunk (sim::ascii_gantt max_cols).
    std::fputs(sim::ascii_gantt(recorder.events(), p, 4096, 96).c_str(),
               stdout);
  }

  const int harness_code = harness.finish(
      [&](util::JsonWriter& json) {
        for (std::size_t i = 0; i < results.cells.size(); ++i) {
          const CellResult& cell = results.cells[i];
          json.begin_object();
          json.key("cell").value(specs[i].name);
          json.key("incremental").value(specs[i].incremental);
          json.key("jobs").value(cell.jobs);
          json.key("digest").value(cell.digest);
          json.key("busy_periods")
              .value(static_cast<std::size_t>(cell.busy_periods));
          json.key("replays").value(static_cast<std::size_t>(cell.replays));
          json.key("engine_events")
              .value(static_cast<std::size_t>(cell.engine_events));
          json.end_object();
        }
      },
      [&](util::JsonWriter& json) {
        json.key("cells").begin_array();
        for (std::size_t i = 0; i < results.cells.size(); ++i) {
          const CellResult& cell = results.cells[i];
          const double wall =
              cell.wall_seconds > 0.0 ? cell.wall_seconds : 1e-9;
          json.begin_object();
          json.key("cell").value(specs[i].name);
          json.key("wall_seconds").value(cell.wall_seconds);
          json.key("jobs_per_sec")
              .value(static_cast<double>(cell.jobs) / wall);
          json.key("events_per_sec")
              .value(static_cast<double>(cell.engine_events) / wall);
          json.end_object();
        }
        json.end_array();
      });
  return replay_identical && trace_identical ? harness_code : 1;
}
