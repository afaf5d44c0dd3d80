// Online multi-job scheduling: load factor × scheduler × comm model.
//
// An open system of divisible-load jobs (Poisson arrivals, a mixed stream
// of linear alpha = 1 and quadratic alpha = 2 jobs) served by one
// heterogeneous star platform through online::Server. The sweep crosses
//
//   load factor   0.3 / 0.6 / 0.9 of the exclusive-service capacity,
//   scheduler     FCFS-exclusive, processor-partitioning fair share,
//                 shortest-predicted-makespan first (SPMF),
//   comm model    parallel-links, one-port, bounded-multiport,
//
// and reports per-job latency/slowdown percentiles (streaming P²
// estimators), throughput, and utilization. Every point draws its job
// stream from its own pre-split RNG sub-stream, so the whole bench is a
// util::Sweep under bench::Harness: serial and parallel passes must agree
// bit for bit, and the metrics land in BENCH_online.json.
//
// --trace=FILE runs one extra high-load fair-share bounded-multiport
// cell twice on a fresh deterministic stream — once bare, once with an
// obs::TraceRecorder attached — proves the two runs bit-identical (part
// of the exit code), exports the traced timeline as Chrome trace-event
// JSON to FILE, and prints the ASCII time-attribution summary.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/arrivals.hpp"
#include "online/metrics.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kLoadFactors{0.3, 0.6, 0.9};
const std::vector<online::SchedulerKind> kSchedulers{
    online::SchedulerKind::kFcfs, online::SchedulerKind::kFairShare,
    online::SchedulerKind::kSpmf};
const std::vector<sim::CommModelKind> kCommModels{
    sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
    sim::CommModelKind::kBoundedMultiport};

constexpr std::size_t kFairShareSlots = 4;
constexpr double kBoundedCapacity = 2.0;

online::JobMix job_mix() {
  online::JobMix mix;
  mix.load_lo = 50.0;
  mix.load_hi = 150.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

struct PointResult {
  double load_factor = 0.0;
  std::size_t scheduler = 0;
  std::size_t comm = 0;
  std::size_t jobs = 0;
  online::ServiceMetrics metrics;
};

struct OnlineResults {
  std::vector<PointResult> points;

  [[nodiscard]] std::vector<double> signature() const {
    std::vector<double> sig;
    for (const PointResult& point : points) {
      sig.push_back(point.load_factor);
      sig.push_back(static_cast<double>(point.scheduler));
      sig.push_back(static_cast<double>(point.comm));
      sig.push_back(static_cast<double>(point.jobs));
      const auto metrics = point.metrics.signature();
      sig.insert(sig.end(), metrics.begin(), metrics.end());
    }
    return sig;
  }
};

OnlineResults compute_all(std::size_t threads, const platform::Platform& plat,
                          double jobs_target, std::uint64_t seed) {
  // Exclusive-service capacity reference: a load factor L maps to
  // arrival rate L / T_ref. The parallel-links reference is used for
  // every comm cell so a given load factor means the same arrival stream
  // across the comm axis.
  const double t_ref = online::mean_predicted_makespan(job_mix(), plat);

  util::Grid grid;
  grid.axis("load", kLoadFactors)
      .axis("sched", kSchedulers.size())
      .axis("comm", kCommModels.size());
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  OnlineResults results;
  results.points =
      util::Sweep(std::move(grid), options)
          .map<PointResult>([&](const util::SweepPoint& point,
                                util::Rng& rng) {
            PointResult result;
            result.load_factor = point.value("load");
            result.scheduler = point.index_of("sched");
            result.comm = point.index_of("comm");

            const double rate = result.load_factor / t_ref;
            const double horizon = jobs_target / rate;
            const online::PoissonArrivals arrivals(rate, job_mix());
            const auto jobs = arrivals.generate(horizon, rng);
            result.jobs = jobs.size();

            online::ServerOptions server_options;
            server_options.comm = kCommModels[result.comm];
            if (server_options.comm ==
                sim::CommModelKind::kBoundedMultiport) {
              server_options.capacity = kBoundedCapacity;
            }
            const online::Server server(plat, server_options);
            const auto scheduler = online::make_scheduler(
                kSchedulers[result.scheduler], kFairShareSlots,
                server_options.comm);
            result.metrics =
                online::summarize(server.run(jobs, *scheduler),
                                  plat.size());
            return result;
          });
  return results;
}

void print_table(const OnlineResults& results) {
  util::Table table({"load", "scheduler", "comm", "jobs", "util",
                     "p50 lat", "p95 lat", "p99 lat", "mean slowdown",
                     "p99 slowdown"});
  for (const PointResult& point : results.points) {
    table.row()
        .cell(point.load_factor, 1)
        .cell(online::to_string(kSchedulers[point.scheduler]))
        .cell(sim::to_string(kCommModels[point.comm]))
        .cell(point.jobs)
        .cell(point.metrics.utilization, 3)
        .cell(point.metrics.p50_latency, 1)
        .cell(point.metrics.p95_latency, 1)
        .cell(point.metrics.p99_latency, 1)
        .cell(point.metrics.mean_slowdown, 3)
        .cell(point.metrics.p99_slowdown, 3)
        .done();
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (const auto code = bench::check_flags(
          args, "Online multi-job service: load x scheduler x comm sweep.",
          {{"jobs", "target jobs per stream (150)"},
           {"p", "workers of the two-class platform (8)"},
           {"seed", "job-stream seed"},
           {"trace", "export one traced cell's timeline to FILE"},
           {"metrics", "dump that cell's MetricsRegistry JSON to FILE"},
           {"blame", "print that cell's critical-path blame table"}})) {
    return *code;
  }
  const double jobs_target = args.get_double("jobs", 150.0);
  const auto p = static_cast<std::size_t>(args.get_int("p", 8));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat =
      platform::Platform::two_class(p, 1.0, 4.0);

  bench::Harness harness("online", bench::harness_options_from_args(args));
  harness.config("jobs_target", jobs_target);
  harness.config("p", p);
  harness.config("platform", "two_class(slow=1, k=4)");
  harness.config("fair_share_slots", kFairShareSlots);
  harness.config("bounded_capacity", kBoundedCapacity);
  harness.config("seed", static_cast<std::int64_t>(seed));

  const OnlineResults results = harness.run<OnlineResults>(
      [&](std::size_t threads) {
        return compute_all(threads, plat, jobs_target, seed);
      },
      [](const OnlineResults& a, const OnlineResults& b) {
        return bench::identical_doubles(a.signature(), b.signature());
      });

  std::printf("=== Online multi-job service: load x scheduler x comm "
              "(Poisson arrivals, mixed alpha in {1, 2}) ===\n\n");
  print_table(results);
  std::printf("\n(slowdown = latency / isolated whole-platform makespan; "
              "SPMF ranks by predicted nonlinear makespan, not size)\n");

  // --trace=FILE: one extra high-load fair-share bounded-multiport cell,
  // run untraced then traced on the same fresh stream; the pair must be
  // bit-identical, and the traced timeline is exported. --blame adds the
  // critical-path blame table (and the pid-4 path overlay in the trace);
  // --metrics=FILE dumps the cell's MetricsRegistry as JSON. Either flag
  // runs the cell even without --trace.
  bool trace_identical = true;
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
  const bool blame = args.get_bool("blame", false);
  if (!trace_path.empty() || !metrics_path.empty() || blame) {
    const double load = kLoadFactors.back();
    const double rate = load / online::mean_predicted_makespan(job_mix(),
                                                               plat);
    util::Rng stream_rng(seed ^ 0x7472616365ULL);  // independent stream
    const std::vector<online::Job> jobs =
        online::PoissonArrivals(rate, job_mix())
            .generate(jobs_target / rate, stream_rng);

    online::ServerOptions server_options;
    server_options.comm = sim::CommModelKind::kBoundedMultiport;
    server_options.capacity = kBoundedCapacity;
    const auto run_cell = [&](obs::TraceSink* trace,
                              obs::MetricsRegistry* metrics) {
      online::ServerOptions cell_options = server_options;
      cell_options.trace = trace;
      const online::Server server(plat, cell_options);
      const auto scheduler = online::make_scheduler(
          online::SchedulerKind::kFairShare, kFairShareSlots,
          cell_options.comm);
      return online::summarize(server.run(jobs, *scheduler, metrics),
                               plat.size());
    };
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    const online::ServiceMetrics bare = run_cell(nullptr, nullptr);
    const online::ServiceMetrics traced = run_cell(&recorder, &registry);
    trace_identical =
        bench::identical_doubles(bare.signature(), traced.signature());
    std::printf("\ntraced load=%.1f fair-share bounded: %zu jobs, "
                "%zu events | vs untraced: %s\n",
                load, jobs.size(), recorder.size(),
                trace_identical ? "bit-identical"
                                : "DIFFER (tracing changed results!)");

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
      std::fputs(obs::render_blame(analysis, 10, "online fair-share bounded")
                     .c_str(),
                 stdout);
    }

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      obs::ChromeTraceOptions trace_options;
      trace_options.workers = p;
      trace_options.label = "online fair-share bounded";
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
    std::fputs(obs::render_attribution(
                   obs::attribute_time(recorder.events(), p),
                   "online fair-share bounded")
                   .c_str(),
               stdout);
  }

  const int harness_code = harness.finish([&](util::JsonWriter& json) {
    for (const PointResult& point : results.points) {
      json.begin_object();
      json.key("load_factor").value(point.load_factor);
      json.key("scheduler")
          .value(online::to_string(kSchedulers[point.scheduler]));
      json.key("comm").value(sim::to_string(kCommModels[point.comm]));
      json.key("jobs").value(point.jobs);
      online::write_service_metrics(json, point.metrics);
      json.end_object();
    }
  });
  return trace_identical ? harness_code : 1;
}
