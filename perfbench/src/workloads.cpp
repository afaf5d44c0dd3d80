#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <set>
#include <utility>

#include "bench/profile.hpp"
#include "checks.hpp"
#include "decorators.hpp"
#include "dlt/nonlinear_dlt.hpp"
#include "linalg/matmul.hpp"
#include "linalg/matrix.hpp"
#include "linalg/outer_product.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/arrivals.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "partition/layout.hpp"
#include "partition/peri_sum.hpp"
#include "partition/recursive_bisection.hpp"
#include "platform/platform.hpp"
#include "platform/speed_distributions.hpp"
#include "qos/plan.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sort/sample_sort.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nldl::perfbench {

namespace {

using bench::WallClock;

// ---- the two streams: the soak's cells at benchmark length -----------------

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kFairShareSlots = 4;
constexpr double kBoundedCapacity = 2.0;
constexpr double kOfferedLoad = 0.9;
constexpr std::size_t kOnlineJobs = 60000;
constexpr std::size_t kQosJobs = 12000;
constexpr std::size_t kQosRounds = 3;

online::JobMix stream_mix() {
  online::JobMix mix;
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

/// Arrival rate that offers kOfferedLoad to the fair-share slots: the sum
/// of the slots' job rates, as bench_soak calibrates it.
double online_rate(const platform::Platform::Partition& carve) {
  double capacity = 0.0;
  for (const platform::Platform& slot : carve.subsets) {
    capacity += 1.0 / online::mean_predicted_makespan(
                          stream_mix(), slot,
                          sim::CommModelKind::kBoundedMultiport);
  }
  return kOfferedLoad * capacity;
}

void add_replay_counts(const obs::MetricsRegistry& metrics,
                       PassOutcome& outcome) {
  outcome.counts["sim.engine_events"] =
      static_cast<double>(metrics.counter_value("replay.engine_events"));
  outcome.counts["sim.replays"] =
      static_cast<double>(metrics.counter_value("replay.replays"));
  outcome.counts["sim.busy_periods"] =
      static_cast<double>(metrics.counter_value("replay.busy_periods"));
}

/// One allocation request, timed and checked; returns the allocation, or
/// nothing when the solver threw. Its latency joins the quantile sample
/// when `sampled`.
std::optional<dlt::NonlinearAllocation> request_allocation(
    const platform::Platform& platform, double load, double alpha,
    bool one_port, bool sampled, SpanRecorder* spans, PassOutcome& outcome) {
  ++outcome.attempted;
  const double start = WallClock::now();
  std::optional<dlt::NonlinearAllocation> alloc;
  try {
    if (one_port) {
      const SpanScope span(spans, "dlt.one_port");
      alloc = dlt::nonlinear_one_port_single_round(platform, load, alpha);
    } else {
      const SpanScope span(spans, "dlt.parallel");
      alloc = dlt::nonlinear_parallel_single_round(platform, load, alpha);
    }
  } catch (const std::exception&) {
    ++outcome.throws;
  }
  const double elapsed = WallClock::now() - start;
  if (sampled) outcome.solve_us.push_back(elapsed * 1e6);
  outcome.solve_wall_s += elapsed;
  if (!alloc) return alloc;
  ++outcome.allocations;
  outcome.outer_iterations += alloc->solver_iterations;
  if (!allocation_ok(platform, load, alpha, *alloc, !one_port)) {
    ++outcome.bad_allocations;
  }
  return alloc;
}

/// The streams' outside requests: each served job's allocation under the
/// parallel model. Only nonlinear requests (alpha > 1) join the latency
/// sample: the streams mix alpha = 1 and alpha = 2 half and half, the two
/// classes' latencies do not overlap, and a median over both would sit in
/// the gap between them and jump with each seed's class ratio.
void request_stream_allocation(const platform::Platform& platform,
                               double load, double alpha, SpanRecorder* spans,
                               PassOutcome& outcome) {
  (void)request_allocation(platform, load, alpha, false, alpha > 1.0, spans,
                           outcome);
}

template <typename Record>
void add_sim_latency(const std::vector<Record>& records,
                     PassOutcome& outcome) {
  std::vector<double> latency;
  latency.reserve(records.size());
  for (const Record& record : records) latency.push_back(record.latency());
  if (latency.empty()) return;
  std::sort(latency.begin(), latency.end());
  outcome.sim_latency_p50 = util::quantile_sorted(latency, 0.5);
  outcome.sim_latency_p99 = util::quantile_sorted(latency, 0.99);
}

/// Obs-layer metrics of a served run recorded through `recorder`, which
/// took `traced_wall` where the untraced passes took `untraced_wall_s`.
/// Returns false unless the recorded run reproduced the untraced digest
/// and its critical-path analysis found jobs.
bool record_obs(SpanRecorder& spans, const obs::TraceRecorder& recorder,
                double traced_wall, double untraced_wall_s, bool identical,
                std::map<std::string, double>& layer) {
  const double start = WallClock::now();
  std::size_t blamed = 0;
  {
    const SpanScope span(&spans, "obs.critical_path");
    const obs::CriticalPath analysis(recorder.events());
    blamed = analysis.jobs().size();
  }
  layer["obs.critical_path_s"] = WallClock::now() - start;
  layer["obs.trace_events"] = static_cast<double>(recorder.size());
  layer["obs.record_overhead"] =
      untraced_wall_s > 0.0 ? traced_wall / untraced_wall_s : 0.0;
  return identical && blamed > 0;
}

class OnlineStream final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    {
      const SpanScope span(spans, "platform.build");
      platform_.emplace(
          platform::Platform::two_class(kWorkers, 1.0, 4.0));
      carve_ = platform_->interleaved_partition(kFairShareSlots);
    }
    const SpanScope span(spans, "online.arrivals");
    const double rate = online_rate(carve_);
    util::Rng rng(seed);
    jobs_ = online::PoissonArrivals(rate, stream_mix())
                .generate(1.02 * static_cast<double>(kOnlineJobs) / rate,
                          rng);
  }

  [[nodiscard]] std::map<std::string, double> setup_counts() const override {
    return {{"online.arrivals_jobs", static_cast<double>(jobs_.size())}};
  }

  static online::ServerOptions server_options() {
    online::ServerOptions options;
    options.comm = sim::CommModelKind::kBoundedMultiport;
    options.capacity = kBoundedCapacity;
    options.master = online::MasterMode::kSharedMaster;
    options.record_isolated = false;
    return options;
  }

  PassOutcome pass(SpanRecorder* spans) override {
    PassOutcome outcome;
    const online::ServerOptions options = server_options();
    const online::FairShareScheduler fair(kFairShareSlots);
    const TimedScheduler timed(fair, spans);
    const online::Scheduler& scheduler =
        spans != nullptr ? static_cast<const online::Scheduler&>(timed)
                         : fair;

    obs::MetricsRegistry metrics;
    std::vector<online::JobStats> stats;
    const double start = WallClock::now();
    {
      const SpanScope span(spans, "online.run");
      stats = online::Server(*platform_, options)
                  .run(jobs_, scheduler, &metrics);
    }
    outcome.wall_s = WallClock::now() - start;
    outcome.items = stats.size();
    outcome.attempted = jobs_.size();
    outcome.violations = stream_violations(jobs_, stats);
    outcome.digest = job_digest(stats);
    add_replay_counts(metrics, outcome);
    add_sim_latency(stats, outcome);

    // Re-solve each served job's allocation from outside, on the slot
    // that served it.
    {
      const SpanScope stage(spans, "bench.resolve");
      for (const online::JobStats& job : stats) {
        if (job.slot >= carve_.subsets.size()) {
          ++outcome.violations;
          continue;
        }
        request_stream_allocation(carve_.subsets[job.slot], job.job.load,
                                  job.job.alpha, spans, outcome);
      }
    }
    return outcome;
  }

  bool observe(SpanRecorder& spans, double untraced_wall_s,
               std::uint64_t digest,
               std::map<std::string, double>& layer) override {
    obs::TraceRecorder recorder;
    online::ServerOptions options = server_options();
    options.trace = &recorder;
    const online::FairShareScheduler fair(kFairShareSlots);
    std::vector<online::JobStats> stats;
    const double start = WallClock::now();
    {
      const SpanScope span(&spans, "obs.traced_run");
      stats = online::Server(*platform_, options).run(jobs_, fair);
    }
    const double traced_wall = WallClock::now() - start;
    return record_obs(spans, recorder, traced_wall, untraced_wall_s,
                      job_digest(stats) == digest, layer);
  }

 private:
  std::optional<platform::Platform> platform_;
  platform::Platform::Partition carve_;
  std::vector<online::Job> jobs_;
};

class QosStream final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    platform::Platform::Partition carve;
    {
      const SpanScope span(spans, "platform.build");
      platform_.emplace(
          platform::Platform::two_class(kWorkers, 1.0, 4.0));
      carve = platform_->interleaved_partition(kFairShareSlots);
    }
    const SpanScope span(spans, "online.arrivals");
    // The qos server turns each job into kQosRounds installments plus
    // restart inflation on concurrency-2 subsets; bench_soak offers it a
    // quarter of the online rate so the open system stays stable.
    const double rate = online_rate(carve) / 4.0;
    util::Rng rng(seed);
    jobs_ = online::PoissonArrivals(rate, stream_mix())
                .generate(1.02 * static_cast<double>(kQosJobs) / rate, rng);
  }

  [[nodiscard]] std::map<std::string, double> setup_counts() const override {
    return {{"online.arrivals_jobs", static_cast<double>(jobs_.size())}};
  }

  static qos::ServerOptions server_options() {
    qos::ServerOptions options;
    options.service.comm = sim::CommModelKind::kBoundedMultiport;
    options.service.capacity = kBoundedCapacity;
    options.service.plan.rounds = kQosRounds;
    options.service.plan.restart_load_fraction = 0.3;
    options.admission.mode = qos::AdmissionMode::kAdmitAll;
    options.concurrency = 2;
    return options;
  }

  PassOutcome pass(SpanRecorder* spans) override {
    PassOutcome outcome;
    const qos::ServerOptions options = server_options();
    qos::SrptPolicy srpt;
    TimedPolicy timed(srpt, spans);
    qos::Policy& policy =
        spans != nullptr ? static_cast<qos::Policy&>(timed) : srpt;

    obs::MetricsRegistry metrics;
    std::vector<qos::JobRecord> records;
    const double start = WallClock::now();
    {
      const SpanScope span(spans, "qos.run");
      records = qos::Server(*platform_, options).run(jobs_, policy, &metrics);
    }
    outcome.wall_s = WallClock::now() - start;
    outcome.items = records.size();
    outcome.attempted = jobs_.size();
    outcome.violations = stream_violations(jobs_, records);
    outcome.digest = job_digest(records);
    add_replay_counts(metrics, outcome);
    add_sim_latency(records, outcome);

    double preemptions = 0.0;
    std::set<std::pair<double, double>> keys;
    for (const qos::JobRecord& record : records) {
      preemptions += static_cast<double>(record.preemptions);
      keys.emplace(record.job.load, record.job.alpha);
    }
    outcome.counts["qos.preemptions"] = preemptions;
    outcome.counts["qos.installment_keys"] = static_cast<double>(keys.size());

    if (spans != nullptr) {
      // A fresh memoised solver predicting every job's service, as the
      // server's admission path does.
      const SpanScope stage(spans, "qos.installment_solve");
      const auto model = qos::make_model(options.service);
      qos::InstallmentSolver solver(*platform_, *model, options.service);
      for (const online::Job& job : jobs_) {
        const SpanScope span(spans, "qos.predicted_service");
        (void)solver.predicted_service(job.load, job.alpha);
      }
    }

    // Each job's installment allocation on the whole platform, requested
    // straight from dlt.
    {
      const SpanScope stage(spans, "bench.resolve");
      for (const online::Job& job : jobs_) {
        request_stream_allocation(
            *platform_, job.load / static_cast<double>(kQosRounds),
            job.alpha, spans, outcome);
      }
    }
    return outcome;
  }

  bool observe(SpanRecorder& spans, double untraced_wall_s,
               std::uint64_t digest,
               std::map<std::string, double>& layer) override {
    obs::TraceRecorder recorder;
    qos::ServerOptions options = server_options();
    options.trace = &recorder;
    qos::SrptPolicy policy;
    std::vector<qos::JobRecord> records;
    const double start = WallClock::now();
    {
      const SpanScope span(&spans, "obs.traced_run");
      records = qos::Server(*platform_, options).run(jobs_, policy);
    }
    const double traced_wall = WallClock::now() - start;
    return record_obs(spans, recorder, traced_wall, untraced_wall_s,
                      job_digest(records) == digest, layer);
  }

 private:
  std::optional<platform::Platform> platform_;
  std::vector<online::Job> jobs_;
};

// ---- solver_sweep: allocation requests with no cache or server ------------

constexpr std::size_t kSweepRequests = 4000;
constexpr std::size_t kSweepSizes = 40;
constexpr double kSweepMaxWorkers = 64.0;

struct SolveRequest {
  std::size_t platform = 0;
  double load = 0.0;
  double alpha = 1.0;
  bool one_port = false;
};

double log_uniform(util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// Platform shapes, one request in ten each for the three tied kinds.
enum class Shape { kSingle, kAllTied, kFastestTied, kHeterogeneous };

Shape shape_of(std::size_t stratum) {
  switch (stratum % 10) {
    case 0: return Shape::kSingle;
    case 1: return Shape::kAllTied;
    case 2: return Shape::kFastestTied;
    default: return Shape::kHeterogeneous;
  }
}

/// `p` workers with c and w log-uniform over six decades, tied as `shape`
/// says.
platform::Platform random_platform(Shape shape, std::size_t p,
                                   util::Rng& rng) {
  if (shape == Shape::kSingle) p = 1;
  std::vector<platform::Processor> workers;
  const platform::Processor first{log_uniform(rng, 1e-3, 1e3),
                                  log_uniform(rng, 1e-3, 1e3)};
  workers.push_back(first);
  for (std::size_t i = 1; i < p; ++i) {
    workers.push_back(shape == Shape::kAllTied
                          ? first
                          : platform::Processor{log_uniform(rng, 1e-3, 1e3),
                                                log_uniform(rng, 1e-3, 1e3)});
  }
  if (shape == Shape::kFastestTied && p >= 2) {
    workers.back() = *std::min_element(
        workers.begin(), workers.end(),
        [](const platform::Processor& a, const platform::Processor& b) {
          return a.w < b.w;
        });
  }
  return platform::Platform(std::move(workers));
}

class SolverSweep final : public Workload {
 public:
  /// Request i goes to the parallel model when i is even and to one-port
  /// when odd. Its pair index j = i / 2 sets the platform: p is the
  /// (j mod 40)-th of 40 log-spaced sizes from 2 to 64, stratified so
  /// every seed sends the same mix of sizes, and the shape cycles over
  /// (j / 40) mod 10. Loads are log-uniform over [1e-9, 1e12] and alpha
  /// uniform over [1, 5], both stratified.
  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    util::Rng rng(seed);
    util::Rng shapes = rng.split();
    platforms_.clear();
    requests_.clear();
    {
      const SpanScope span(spans, "platform.build");
      platforms_.reserve(kSweepRequests);
      for (std::size_t i = 0; i < kSweepRequests; ++i) {
        const std::size_t j = i / 2;
        const double quantile = static_cast<double>(j % kSweepSizes) /
                                static_cast<double>(kSweepSizes - 1);
        const auto p = static_cast<std::size_t>(
            std::lround(2.0 * std::pow(kSweepMaxWorkers / 2.0, quantile)));
        platforms_.push_back(
            random_platform(shape_of(j / kSweepSizes), p, shapes));
      }
    }
    const SpanScope span(spans, "bench.inputs");
    // Latin-hypercube draws: each of kSweepRequests equal strata of the
    // log-load and alpha ranges holds exactly one request, in a random
    // pairing, so seeds differ in the inputs but not in their spread.
    const std::vector<std::size_t> load_strata = strata(rng);
    const std::vector<std::size_t> alpha_strata = strata(rng);
    const auto n = static_cast<double>(kSweepRequests);
    requests_.reserve(kSweepRequests);
    for (std::size_t i = 0; i < kSweepRequests; ++i) {
      SolveRequest request;
      request.platform = i;
      const double u_load =
          (static_cast<double>(load_strata[i]) + rng.uniform()) / n;
      const double u_alpha =
          (static_cast<double>(alpha_strata[i]) + rng.uniform()) / n;
      request.load = std::pow(10.0, -9.0 + 21.0 * u_load);
      request.alpha = 1.0 + 4.0 * u_alpha;
      request.one_port = i % 2 == 1;
      requests_.push_back(request);
    }
  }

  PassOutcome pass(SpanRecorder* spans) override {
    PassOutcome outcome;
    Digest digest;
    const double start = WallClock::now();
    for (const SolveRequest& request : requests_) {
      const std::optional<dlt::NonlinearAllocation> alloc =
          request_allocation(platforms_[request.platform], request.load,
                             request.alpha, request.one_port, true, spans,
                             outcome);
      if (alloc) digest.add(alloc->makespan);
    }
    outcome.wall_s = WallClock::now() - start;
    outcome.items = requests_.size();
    outcome.digest = digest.value();
    return outcome;
  }

 private:
  /// 0 .. kSweepRequests-1 in random order.
  static std::vector<std::size_t> strata(util::Rng& rng) {
    std::vector<std::size_t> order(kSweepRequests);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    return order;
  }

  std::vector<platform::Platform> platforms_;
  std::vector<SolveRequest> requests_;
};

// ---- paper_kernels: Sections 3 and 4, executed ----------------------------

constexpr std::size_t kPartitionTrials = 24;
constexpr std::size_t kSortKeys = std::size_t{1} << 20;
constexpr std::size_t kSortBuckets = 16;
constexpr std::size_t kLayoutWorkers = 16;
constexpr long long kOuterProductN = 2048;
constexpr long long kMatmulN = 256;
constexpr std::size_t kMatmulPanel = 8;

bool partition_ok(const std::vector<double>& speeds,
                  const std::vector<partition::Rect>& rects) {
  if (rects.size() != speeds.size()) return false;
  double total = 0.0;
  for (const double s : speeds) total += s;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (std::fabs(rects[i].area() - speeds[i] / total) > 1e-9) return false;
  }
  return true;
}

class PaperKernels final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    util::Rng rng(seed);
    util::Rng data = rng.split();
    speeds_.clear();
    {
      const SpanScope span(spans, "platform.build");
      // Figure 4's three speed distributions at three platform sizes.
      for (const platform::SpeedModel model :
           {platform::SpeedModel::kHomogeneous,
            platform::SpeedModel::kUniform,
            platform::SpeedModel::kLogNormal}) {
        for (const std::size_t p : {16, 64, 256}) {
          for (std::size_t trial = 0; trial < kPartitionTrials; ++trial) {
            speeds_.push_back(
                platform::make_platform(model, p, rng).speeds());
          }
        }
      }
      layout_speeds_ =
          platform::make_platform(platform::SpeedModel::kLogNormal,
                                  kLayoutWorkers, rng)
              .speeds();
    }
    const SpanScope span(spans, "bench.inputs");
    keys_.resize(kSortKeys);
    for (std::uint64_t& key : keys_) key = data.next_u64();
    keys_checksum_ = key_checksum(keys_);
    a_.resize(static_cast<std::size_t>(kOuterProductN));
    b_.resize(static_cast<std::size_t>(kOuterProductN));
    for (double& x : a_) x = data.uniform(-1.0, 1.0);
    for (double& x : b_) x = data.uniform(-1.0, 1.0);
    const auto mm = static_cast<std::size_t>(kMatmulN);
    ma_ = linalg::Matrix::random(mm, mm, data);
    mb_ = linalg::Matrix::random(mm, mm, data);
    outer_reference_.reset();
    matmul_reference_.reset();
    sort_seed_ = data.next_u64();
  }

  PassOutcome pass(SpanRecorder* spans) override {
    PassOutcome outcome;
    Digest digest;
    const double start = WallClock::now();

    for (const std::vector<double>& speeds : speeds_) {
      {
        const double t0 = WallClock::now();
        partition::ColumnPartition columns;
        {
          const SpanScope span(spans, "partition.peri_sum");
          columns = partition::peri_sum_partition(speeds);
        }
        note_partition(outcome, WallClock::now() - t0,
                       partition_ok(speeds, columns.rects));
        digest.add(columns.total_half_perimeter);
      }
      {
        const double t0 = WallClock::now();
        partition::BisectionPartition halves;
        {
          const SpanScope span(spans, "partition.bisection");
          halves = partition::recursive_bisection_partition(speeds);
        }
        note_partition(outcome, WallClock::now() - t0,
                       partition_ok(speeds, halves.rects));
        digest.add(halves.total_half_perimeter);
      }
    }

    const double t0 = WallClock::now();
    partition::ColumnPartition columns;
    {
      const SpanScope span(spans, "partition.peri_sum");
      columns = partition::peri_sum_partition(layout_speeds_);
    }
    note_partition(outcome, WallClock::now() - t0,
                   partition_ok(layout_speeds_, columns.rects));
    const partition::GridLayout outer_layout =
        layout(columns, kOuterProductN, spans, outcome);
    const partition::GridLayout matmul_layout =
        layout(columns, kMatmulN, spans, outcome);

    std::vector<std::uint64_t> keys = keys_;
    std::vector<std::uint64_t> sorted;
    {
      const SpanScope span(spans, "sort.sample_sort");
      sort::SampleSortConfig config;
      config.num_buckets = kSortBuckets;
      config.seed = sort_seed_;
      sorted = sort::sample_sort(std::move(keys), config);
    }
    ++outcome.attempted;
    if (!sorted_permutation_ok(sorted, keys_checksum_)) ++outcome.violations;
    outcome.counts["sort.keys"] = static_cast<double>(sorted.size());

    linalg::DistributedOuterProduct outer;
    {
      const SpanScope span(spans, "linalg.outer_product");
      outer = linalg::outer_product_partitioned(a_, b_, outer_layout,
                                                layout_speeds_);
    }
    linalg::DistributedMatmul matmul;
    {
      const SpanScope span(spans, "linalg.matmul");
      matmul = linalg::matmul_outer_product(ma_, mb_, matmul_layout,
                                            layout_speeds_, kMatmulPanel);
    }
    outcome.wall_s = WallClock::now() - start;
    outcome.items = outcome.attempted + 2;
    outcome.counts["linalg.elements_shipped"] =
        static_cast<double>(outer.total_elements + matmul.total_elements);

    // The serial references are check machinery, computed once per setup
    // outside every timed region.
    if (!outer_reference_) {
      outer_reference_ = linalg::outer_product_serial(a_, b_);
      matmul_reference_ = linalg::multiply_blocked(ma_, mb_);
    }
    outcome.attempted += 2;
    if (!matrix_matches(outer.result, *outer_reference_, 0.0)) {
      ++outcome.violations;
    }
    if (!matrix_matches(matmul.result, *matmul_reference_,
                        1e-12 * static_cast<double>(kMatmulN))) {
      ++outcome.violations;
    }
    digest.add(static_cast<std::uint64_t>(outer.total_elements));
    digest.add(static_cast<std::uint64_t>(matmul.total_elements));
    outcome.digest = digest.value();
    return outcome;
  }

 private:
  static void note_partition(PassOutcome& outcome, double elapsed, bool ok) {
    ++outcome.attempted;
    ++outcome.allocations;
    outcome.solve_wall_s += elapsed;
    outcome.solve_us.push_back(elapsed * 1e6);
    if (!ok) ++outcome.violations;
  }

  static partition::GridLayout layout(const partition::ColumnPartition& cp,
                                      long long n, SpanRecorder* spans,
                                      PassOutcome& outcome) {
    partition::GridLayout grid;
    {
      const SpanScope span(spans, "partition.discretize");
      grid = partition::discretize(cp, n);
    }
    bool covered = false;
    {
      const SpanScope span(spans, "partition.verify");
      covered = partition::verify_exact_cover(grid);
    }
    ++outcome.attempted;
    if (!covered) ++outcome.violations;
    return grid;
  }

  std::vector<std::vector<double>> speeds_;
  std::vector<double> layout_speeds_;
  std::vector<std::uint64_t> keys_;
  KeyChecksum keys_checksum_;
  std::uint64_t sort_seed_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  linalg::Matrix ma_;
  linalg::Matrix mb_;
  std::optional<linalg::Matrix> outer_reference_;
  std::optional<linalg::Matrix> matmul_reference_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "online_stream", "qos_stream", "solver_sweep", "paper_kernels"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "online_stream") return std::make_unique<OnlineStream>();
  if (name == "qos_stream") return std::make_unique<QosStream>();
  if (name == "solver_sweep") return std::make_unique<SolverSweep>();
  if (name == "paper_kernels") return std::make_unique<PaperKernels>();
  return nullptr;
}

}  // namespace nldl::perfbench
