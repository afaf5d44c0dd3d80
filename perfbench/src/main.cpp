// perfbench: the repository's benchmark program. One workload per process,
// one caller thread.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--revision REV] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up is repeated, then one
// untimed warm-up pass, then passes over the same inputs for S seconds with
// more set-up rounds between them, reporting medians. Nothing kept across
// passes grows with their number, so the peak resident memory does not
// depend on how many passes fit in S seconds. --trace 1 alternates
// untraced and traced passes for S seconds and reports the per-layer
// metrics from the traced ones; the traced passes must reproduce the
// untraced outputs bit for bit.
//
// Every pass's outputs are checked; the operations are counted once, from
// the first pass (see Tally). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A result
// file with the run fingerprint lands in the output directory, with the
// recorded spans beside it after a traced run.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/profile.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nldl;
using namespace nldl::perfbench;

namespace {

using bench::WallClock;

/// Set-up rounds before the warm-up pass of a traced and of an end-to-end
/// run. Set-up time is the median of all rounds but the first, which also
/// pays for the process's first touch of its memory.
constexpr int kSetupRoundsTraced = 32;
constexpr int kSetupRoundsEndToEnd = 8;
/// Set-up rounds after each timed pass of an end-to-end run. The host's
/// speed shifts within a run, so set-up is sampled across the whole run,
/// not only before it.
constexpr int kSetupRoundsPerPass = 4;
/// Fewest timed passes per run, whatever --seconds says.
constexpr std::size_t kMinPasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string revision = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse(int argc, char** argv, Options& options) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = static_cast<double>(std::stoul(value));
      } else if (flag == "--trace") {
        options.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
      } else if (flag == "--revision") {
        options.revision = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !options.workload.empty() && have_seed && options.seconds > 0.0 &&
         options.trace >= 0;
}

/// Peak resident memory of this program, in MiB: VmHWM from
/// /proc/self/status, which starts afresh at exec. getrusage's ru_maxrss
/// is only the fallback: Linux carries it over exec, so under a launcher
/// larger than this program it reads the launcher's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Fingerprint {
  std::string revision;

  void write(util::JsonWriter& json) const {
    json.begin_object();
    json.key("compiler").value(PERFBENCH_COMPILER);
    json.key("flags").value(PERFBENCH_FLAGS);
    json.key("build_type").value(PERFBENCH_BUILD_TYPE);
    json.key("nproc").value(
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
    json.key("revision").value(revision);
    json.key("caller_threads").value(std::size_t{1});
    json.end_object();
  }
};

void write_result_file(const Options& options, const Fingerprint& fingerprint,
                       bool correct, const Tally& tally,
                       const std::vector<std::pair<MetricSpec, double>>&
                           metrics,
                       const std::vector<double>& setup_rounds,
                       const std::vector<double>& pass_walls) {
  const std::filesystem::path dir(options.out_dir);
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / (options.workload + ".trace" +
                           std::to_string(options.trace) + ".json"));
  util::JsonWriter json(out);
  json.begin_object();
  json.key("workload").value(options.workload);
  json.key("seed").value(static_cast<std::size_t>(options.seed));
  json.key("seconds").value(options.seconds);
  json.key("trace").value(options.trace);
  json.key("fingerprint");
  fingerprint.write(json);
  json.key("correct").value(correct);
  json.key("attempted").value(tally.attempted);
  json.key("throws").value(tally.throws);
  json.key("bad_allocations").value(tally.bad_allocations);
  json.key("violations").value(tally.violations);
  json.key("setup_round_s").begin_array();
  for (const double round : setup_rounds) json.value(round);
  json.end_array();
  json.key("pass_wall_s").begin_array();
  for (const double wall : pass_walls) json.value(wall);
  json.end_array();
  json.key("metrics").begin_object();
  for (const auto& [spec, value] : metrics) {
    json.key(spec.name).begin_object();
    json.key("value").value(value);
    json.key("unit").value(spec.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  out << '\n';
}

void print_summary(const Options& options, const Tally& tally,
                   std::size_t passes, const PassOutcome& sample,
                   std::size_t latency_samples) {
  std::printf("workload %s seed %llu trace %d: %zu passes\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace,
              passes);
  std::printf("operations: attempted %zu, failed %zu (%zu solver throws, "
              "%zu allocations failing their check, %zu other check "
              "violations), failed_ratio %.6g\n",
              tally.attempted, tally.failed(), tally.throws,
              tally.bad_allocations, tally.violations, tally.failed_ratio());
  std::printf("output digest %016llx, deterministic across passes: %s\n",
              static_cast<unsigned long long>(sample.digest),
              tally.deterministic ? "yes" : "NO");
  if (sample.sim_latency_p99 > 0.0) {
    const auto preemptions = sample.counts.find("qos.preemptions");
    std::printf("simulated latency p50 %.6g p99 %.6g; qos.preemptions %.0f\n",
                sample.sim_latency_p50, sample.sim_latency_p99,
                preemptions == sample.counts.end() ? 0.0
                                                   : preemptions->second);
  }
  std::printf("solve latency samples per pass: %zu\n", latency_samples);
}

/// Build the workload `rounds` times, each time from scratch from the same
/// seed; the last build stays. Appends the host time of each round to
/// `times`.
void set_up(const Options& options, int rounds,
            std::unique_ptr<Workload>& workload, std::vector<double>& times,
            SpanRecorder* spans, std::vector<Values>* setup_layers) {
  for (int round = 0; round < rounds; ++round) {
    workload.reset();
    workload = make_workload(options.workload);
    const std::size_t from = spans != nullptr ? spans->size() : 0;
    const double start = WallClock::now();
    workload->setup(options.seed, spans);
    times.push_back(WallClock::now() - start);
    if (spans != nullptr && setup_layers != nullptr) {
      const SpanTotals totals = spans->totals(from);
      Values layer = workload->setup_counts();
      const auto incl = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.inclusive_s;
      };
      layer["platform.build_s"] = incl("platform.build");
      layer["online.arrivals_s"] = incl("online.arrivals");
      setup_layers->push_back(std::move(layer));
    }
  }
}

int run_end_to_end(const Options& options, const Fingerprint& fingerprint) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_times;
  set_up(options, kSetupRoundsEndToEnd, workload, setup_times, nullptr,
         nullptr);
  setup_times.erase(setup_times.begin());

  const PassOutcome warm = workload->pass(nullptr);
  Tally tally;
  tally.add(warm, warm.digest);

  std::vector<double> walls;
  std::vector<double> item_rates;
  std::vector<double> solve_rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  const double deadline = WallClock::now() + options.seconds;
  while (walls.size() < kMinPasses || WallClock::now() < deadline) {
    PassOutcome outcome = workload->pass(nullptr);
    tally.add(outcome, warm.digest);
    set_up(options, kSetupRoundsPerPass, workload, setup_times, nullptr,
           nullptr);
    walls.push_back(outcome.wall_s);
    item_rates.push_back(static_cast<double>(outcome.items) / outcome.wall_s);
    solve_rates.push_back(static_cast<double>(outcome.allocations) /
                          outcome.solve_wall_s);
    std::vector<double>& latencies = outcome.solve_us;
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      p50s.push_back(util::quantile_sorted(latencies, 0.5));
      p99s.push_back(util::quantile_sorted(latencies, 0.99));
    }
  }

  const std::vector<std::pair<MetricSpec, double>> metrics{
      {kEndToEnd[0], median(setup_times)},
      {kEndToEnd[1], median(walls)},
      {kEndToEnd[2], median(item_rates)},
      {kEndToEnd[3], median(solve_rates)},
      {kEndToEnd[4], median(p50s)},
      {kEndToEnd[5], median(p99s)},
      {kEndToEnd[6], peak_rss_mib()},
      {kEndToEnd[7], 1.0 - tally.failed_ratio()},
  };
  const bool correct = tally.correct();
  print_summary(options, tally, walls.size(), warm, warm.solve_us.size());
  write_result_file(options, fingerprint, correct, tally, metrics,
                    setup_times, walls);
  std::cout << result_line(correct, tally, metrics) << std::endl;
  return correct ? 0 : 1;
}

int run_traced(const Options& options, const Fingerprint& fingerprint) {
  SpanRecorder spans;
  std::unique_ptr<Workload> workload;
  std::vector<Values> samples;
  std::vector<double> setup_times;
  set_up(options, kSetupRoundsTraced, workload, setup_times, &spans,
         &samples);
  setup_times.erase(setup_times.begin());

  const PassOutcome warm = workload->pass(nullptr);
  Tally tally;
  tally.add(warm, warm.digest);

  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  const double deadline = WallClock::now() + options.seconds;
  while (traced_walls.size() < kMinPasses || WallClock::now() < deadline) {
    const PassOutcome untraced = workload->pass(nullptr);
    tally.add(untraced, warm.digest);
    untraced_walls.push_back(untraced.wall_s);

    const std::size_t from = spans.size();
    const PassOutcome traced = workload->pass(&spans);
    tally.add(traced, warm.digest);
    traced_walls.push_back(traced.wall_s);
    samples.push_back(layer_metrics(spans.totals(from), traced));
  }

  Values layer = median_of(samples);
  const double untraced_wall = median(untraced_walls);
  const bool observed_identical =
      workload->observe(spans, untraced_wall, warm.digest, layer);
  layer["bench.trace_overhead"] = median(traced_walls) / untraced_wall;
  layer["bench.failed_ratio"] = tally.failed_ratio();

  std::vector<std::pair<MetricSpec, double>> metrics;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = layer.find(spec.name);
    metrics.emplace_back(spec, it == layer.end() ? 0.0 : it->second);
  }
  const bool identical = tally.deterministic && observed_identical;
  const bool correct = tally.correct() && observed_identical;
  print_summary(options, tally, traced_walls.size(), warm, 0);
  std::printf("traced vs untraced outputs: %s\n",
              identical ? "bit-identical" : "DIFFER (tracing changed results)");

  write_result_file(options, fingerprint, correct, tally, metrics,
                    setup_times, traced_walls);
  {
    std::ofstream out(std::filesystem::path(options.out_dir) /
                      (options.workload + ".spans.json"));
    spans.write_json(out);
    out << '\n';
  }
  std::cout << result_line(correct, tally, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--revision REV] [--out-dir DIR]\n");
    return 2;
  }
  if (make_workload(options.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 options.workload.c_str());
    for (const std::string& name : workload_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Fingerprint fingerprint{options.revision};
  {
    std::cout << "fingerprint: ";
    util::JsonWriter json(std::cout);
    fingerprint.write(json);
    std::cout << '\n';
  }
  try {
    return options.trace == 0 ? run_end_to_end(options, fingerprint)
                              : run_traced(options, fingerprint);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
