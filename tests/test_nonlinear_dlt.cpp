// Unit + property tests for the nonlinear DLT allocators — the machinery
// behind the paper's Section 2 "no free lunch" theorem.
#include "dlt/nonlinear_dlt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dlt/analysis.hpp"
#include "dlt/linear_dlt.hpp"
#include "platform/processor.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::dlt {
namespace {

using platform::Platform;

TEST(NonlinearParallel, HomogeneousMatchesClosedForm) {
  const std::size_t p = 8;
  const double alpha = 2.0;
  const double n = 100.0;
  const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
  const auto alloc = nonlinear_parallel_single_round(plat, n, alpha);
  for (const double amount : alloc.amounts) {
    EXPECT_NEAR(amount, n / static_cast<double>(p), 1e-6);
  }
  EXPECT_NEAR(alloc.makespan,
              homogeneous_nonlinear_makespan(p, 1.0, 1.0, n, alpha), 1e-6);
}

TEST(NonlinearParallel, RemainingFractionMatchesTheorem) {
  // (W − W_partial)/W = 1 − 1/p^(α−1) on homogeneous platforms.
  for (const std::size_t p : {2UL, 4UL, 16UL, 64UL}) {
    for (const double alpha : {1.5, 2.0, 3.0}) {
      const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
      const auto alloc = nonlinear_parallel_single_round(plat, 1000.0, alpha);
      EXPECT_NEAR(alloc.remaining_fraction,
                  remaining_fraction_homogeneous(p, alpha), 1e-6)
          << "p=" << p << " alpha=" << alpha;
    }
  }
}

TEST(NonlinearParallel, AlphaOneMatchesLinearClosedForm) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 5.0}, 0.5);
  const auto nonlinear = nonlinear_parallel_single_round(plat, 60.0, 1.0);
  const auto linear = linear_parallel_single_round(plat, 60.0);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    EXPECT_NEAR(nonlinear.amounts[i], linear.amounts[i], 1e-6);
  }
  EXPECT_NEAR(nonlinear.makespan, linear.makespan, 1e-6);
  EXPECT_NEAR(nonlinear.remaining_fraction, 0.0, 1e-9);
}

TEST(NonlinearParallel, EqualFinishTimes) {
  const Platform plat = Platform::from_speeds({1.0, 3.0, 9.0}, 2.0);
  const double alpha = 2.5;
  const auto alloc = nonlinear_parallel_single_round(plat, 40.0, alpha);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish =
        plat.c(i) * alloc.amounts[i] +
        plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-6 * alloc.makespan);
  }
}

TEST(NonlinearParallel, SimulatorConfirmsMakespan) {
  const Platform plat = Platform::from_speeds({2.0, 7.0}, 1.0);
  const double alpha = 2.0;
  const auto alloc = nonlinear_parallel_single_round(plat, 25.0, alpha);
  std::vector<sim::ChunkAssignment> schedule;
  for (std::size_t i = 0; i < alloc.amounts.size(); ++i) {
    schedule.push_back({i, alloc.amounts[i]});
  }
  const auto result = sim::Engine(plat, sim::EngineOptions{alpha})
                          .run(schedule, sim::CommModelKind::kParallelLinks);
  EXPECT_NEAR(result.makespan, alloc.makespan, 1e-6 * alloc.makespan);
  for (const double finish : result.worker_finish) {
    EXPECT_NEAR(finish, result.makespan, 1e-5 * result.makespan);
  }
}

TEST(NonlinearParallel, ZeroLoad) {
  const Platform plat = Platform::homogeneous(3);
  const auto alloc = nonlinear_parallel_single_round(plat, 0.0, 2.0);
  for (const double amount : alloc.amounts) EXPECT_EQ(amount, 0.0);
  EXPECT_EQ(alloc.makespan, 0.0);
}

TEST(NonlinearParallel, RejectsBadArguments) {
  const Platform plat = Platform::homogeneous(2);
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, -1.0, 2.0),
               util::PreconditionError);
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, 1.0, 0.5),
               util::PreconditionError);
}

TEST(NonlinearOnePort, EqualFinishForFedWorkers) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 0.2);
  const double alpha = 2.0;
  const auto alloc = nonlinear_one_port_single_round(plat, 30.0, alpha);
  // Recompute finish times along the schedule.
  double clock = 0.0;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    if (alloc.amounts[i] <= 0.0) continue;
    clock += plat.c(i) * alloc.amounts[i];
    const double finish =
        clock + plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-5 * alloc.makespan);
  }
}

TEST(NonlinearOnePort, MoreWorkersNeverHurtMakespan) {
  const double alpha = 2.0;
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t p : {1UL, 2UL, 4UL, 8UL, 16UL}) {
    const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
    const auto alloc = nonlinear_one_port_single_round(plat, 50.0, alpha);
    EXPECT_LE(alloc.makespan, previous + 1e-6);
    previous = alloc.makespan;
  }
}

TEST(NonlinearOnePort, WorkDoneNeverExceedsTotal) {
  util::Rng rng(5);
  for (int rep = 0; rep < 10; ++rep) {
    const Platform plat = platform::make_platform(
        platform::SpeedModel::kLogNormal, 6, rng);
    const auto alloc = nonlinear_one_port_single_round(plat, 20.0, 2.0);
    EXPECT_GE(alloc.remaining_fraction, 0.0);
    EXPECT_LE(alloc.remaining_fraction, 1.0);
    EXPECT_LE(alloc.work_done, alloc.total_work * (1.0 + 1e-9));
  }
}

// ---- canonical-bisection reference -------------------------------------
// The library's solves stop only when the bracket is two adjacent doubles
// and return the upper one. This reference reaches the same bracket by
// midpoint probes alone, on the same g and in the same summation order,
// so wherever the computed g is monotone the two must agree bitwise.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest double x > 0 with g(x) >= 0, for g increasing from g(0) < 0.
template <typename G>
double reference_root(G&& g, double hi) {
  while (g(hi) < 0.0) hi *= 2.0;
  double lo = 0.0;
  while (std::nextafter(lo, kInf) < hi) {
    const double mid = 0.5 * (lo + hi);
    (g(mid) < 0.0 ? lo : hi) = mid;
  }
  return hi;
}

double reference_chunk(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  return reference_root(
      [&](double n) { return c * n + w * std::pow(n, alpha) - budget; },
      std::max(std::min(budget / c, std::pow(budget / w, 1.0 / alpha)),
               std::numeric_limits<double>::denorm_min()));
}

/// Σ n_i(T) in worker order, writing the chunks into `amounts`.
double reference_fill(const Platform& plat, double alpha, bool one_port,
                      double T, std::vector<double>& amounts) {
  amounts.assign(plat.size(), 0.0);
  double clock = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    amounts[i] = reference_chunk(plat.c(i), plat.w(i), alpha,
                                 one_port ? T - clock : T);
    clock += plat.c(i) * amounts[i];
    sum += amounts[i];
  }
  return sum;
}

/// The parallel-links allocation by canonical bisection, rescaled and
/// reported exactly as nonlinear_parallel_single_round does.
NonlinearAllocation reference_parallel(const Platform& plat, double load,
                                       double alpha) {
  double t_hi = kInf;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    t_hi = std::min(t_hi, plat.c(i) * load + plat.w(i) * std::pow(load, alpha));
  }
  std::vector<double> amounts;
  const double T = reference_root(
      [&](double t) {
        return reference_fill(plat, alpha, false, t, amounts) - load;
      },
      t_hi);
  const double sum = reference_fill(plat, alpha, false, T, amounts);
  NonlinearAllocation alloc;
  alloc.amounts = amounts;
  for (double& n : alloc.amounts) n *= load / sum;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    alloc.makespan = std::max(
        alloc.makespan, plat.c(i) * alloc.amounts[i] +
                            plat.w(i) * std::pow(alloc.amounts[i], alpha));
  }
  return alloc;
}

struct SolveRequest {
  Platform platform;
  double load = 0.0;
  double alpha = 1.0;
};

/// The fuzz corpus over the solvers' documented domain: p uniform in
/// [1, max_workers], c and w log-uniform on [1e-3, 1e3], loads
/// log-uniform on [1e-9, 1e12], alpha uniform on [1, 5].
std::vector<SolveRequest> request_corpus(std::uint64_t seed, int count,
                                         int max_workers) {
  util::Rng rng(seed);
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  std::vector<SolveRequest> corpus;
  for (int rep = 0; rep < count; ++rep) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(1, max_workers));
    std::vector<platform::Processor> workers;
    for (std::size_t i = 0; i < p; ++i) {
      const double c = log_uniform(1e-3, 1e3);
      workers.push_back({c, log_uniform(1e-3, 1e3)});
    }
    const double load = log_uniform(1e-9, 1e12);
    corpus.push_back({Platform{std::move(workers)}, load,
                      rng.uniform(1.0, 5.0)});
  }
  return corpus;
}

/// Relative spread of the finish times of the workers given load; under
/// one-port each finishes after the transfers fed before it.
double finish_spread(const Platform& plat, const NonlinearAllocation& alloc,
                     bool one_port) {
  double clock = 0.0;
  double t_min = kInf;
  double t_max = 0.0;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double n = alloc.amounts[i];
    const double finish = (one_port ? clock : 0.0) + plat.c(i) * n +
                          plat.w(i) * std::pow(n, alloc.alpha);
    clock += plat.c(i) * n;
    if (n > 0.0) {
      t_min = std::min(t_min, finish);
      t_max = std::max(t_max, finish);
    }
  }
  return t_max > 0.0 ? (t_max - t_min) / t_max : 0.0;
}

// Seeded fuzz over the solvers' documented domain. Every request is
// valid, so neither solver may throw, and both must hand out the whole
// load. The outer solves' upper bracket (a single worker's solo makespan)
// can sit exactly on the root — always for p = 1 — where rounding used to
// flip g's sign and abort a plain bisection.
TEST(NonlinearSolvers, ValidRequestsNeverThrowAndConserveLoad) {
  int throws = 0;
  std::string first_throw;
  int rep = 0;
  for (const SolveRequest& request : request_corpus(20130520, 2000, 8)) {
    for (const bool one_port : {false, true}) {
      try {
        const auto alloc =
            one_port ? nonlinear_one_port_single_round(
                           request.platform, request.load, request.alpha)
                     : nonlinear_parallel_single_round(
                           request.platform, request.load, request.alpha);
        double total = 0.0;
        for (const double amount : alloc.amounts) total += amount;
        EXPECT_NEAR(total, request.load, 1e-9 * request.load)
            << "rep " << rep << (one_port ? " one-port" : " parallel");
      } catch (const std::exception& error) {
        if (throws++ == 0) {
          first_throw = "rep " + std::to_string(rep) +
                        (one_port ? " one-port: " : " parallel: ") +
                        error.what();
        }
      }
    }
    ++rep;
  }
  EXPECT_EQ(throws, 0) << "first: " << first_throw;
}

// Newton probes reach the canonical root: under parallel links the
// computed Σ n_i(T) is monotone in T, so amounts and makespan equal the
// canonical-bisection reference bitwise. Under one-port the T − clock
// budgets make the computed sum non-monotone, so the returned T must be a
// sign change of it. Under both, the finish times agree to 1e-4 relative.
class CanonicalRootCorpus
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CanonicalRootCorpus, NewtonMatchesBisectionReference) {
  const auto [count, max_workers] = GetParam();
  int rep = 0;
  for (const SolveRequest& request :
       request_corpus(20130520, count, max_workers)) {
    const Platform& plat = request.platform;
    const auto parallel =
        nonlinear_parallel_single_round(plat, request.load, request.alpha);
    const auto reference =
        reference_parallel(plat, request.load, request.alpha);
    ASSERT_EQ(parallel.amounts, reference.amounts) << "rep " << rep;
    ASSERT_EQ(parallel.makespan, reference.makespan) << "rep " << rep;
    EXPECT_LE(finish_spread(plat, parallel, false), 1e-4) << "rep " << rep;

    const auto one_port =
        nonlinear_one_port_single_round(plat, request.load, request.alpha);
    std::vector<double> amounts;
    const auto excess = [&](double T) {
      return reference_fill(plat, request.alpha, true, T, amounts) -
             request.load;
    };
    EXPECT_LT(excess(std::nextafter(one_port.makespan, -kInf)), 0.0)
        << "rep " << rep;
    EXPECT_GE(excess(one_port.makespan), 0.0) << "rep " << rep;
    EXPECT_LE(finish_spread(plat, one_port, true), 1e-4) << "rep " << rep;
    ++rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, CanonicalRootCorpus,
    ::testing::Values(std::pair{2000, 8}, std::pair{200, 64}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& corpus) {
      std::string name = "p";
      name += std::to_string(corpus.param.second);
      return name;
    });

// ---- the canonical root routine's own cases ------------------------------
// Seen through the allocators: each case below takes one path of the
// probe rule, and pure bisection would need at least 52 probes to bring
// a bracket [0, t_hi] down to two adjacent doubles.

// p = 1: the upper bracket, the worker's solo makespan, is the root
// itself. The first Newton step from it rounds onto it, so the probes
// walk down one ulp at a time while n(T) is flat, over at most a few ulps.
TEST(CanonicalRoot, SingleWorkerBracketSitsOnTheRoot) {
  util::Rng rng(1);
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  for (int rep = 0; rep < 500; ++rep) {
    const Platform plat{std::vector<platform::Processor>{
        {log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3)}}};
    const double load = log_uniform(1e-9, 1e12);
    const double alpha = rng.uniform(1.0, 5.0);
    const auto alloc = nonlinear_parallel_single_round(plat, load, alpha);
    ASSERT_EQ(alloc.amounts[0], load) << "rep " << rep;
    ASSERT_EQ(alloc.makespan, reference_parallel(plat, load, alpha).makespan)
        << "rep " << rep;
    EXPECT_LE(alloc.solver_iterations, 12) << "rep " << rep;
  }
}

// Homogeneous p = 64 at alpha = 3: t_hi is the makespan of one worker
// doing all the work, 64^3 times the root, and Σ n_i(T) is so concave
// there that Newton steps from above land below 0. Those steps bisect
// until Newton takes over.
TEST(CanonicalRoot, NewtonStepBelowTheBracketBisects) {
  const Platform plat = Platform::homogeneous(64, 1.0, 1.0);
  const auto alloc = nonlinear_parallel_single_round(plat, 1000.0, 3.0);
  const auto reference = reference_parallel(plat, 1000.0, 3.0);
  EXPECT_EQ(alloc.amounts, reference.amounts);
  EXPECT_EQ(alloc.makespan, reference.makespan);
  EXPECT_NEAR(alloc.makespan,
              homogeneous_nonlinear_makespan(64, 1.0, 1.0, 1000.0, 3.0),
              1e-12 * alloc.makespan);
  EXPECT_LE(alloc.solver_iterations, 40);
}

// Newton converges onto the root from one side, so its last steps round
// onto their own probe; moving one ulp inside then closes the bracket.
// Without that rule each solve would bisect the far side down to the
// root. Averaged over the corpus, a solve takes a handful of probes.
TEST(CanonicalRoot, StepsRoundingOntoTheirProbeMoveOneUlp) {
  long parallel = 0;
  long one_port = 0;
  const std::vector<SolveRequest> corpus = request_corpus(20130520, 500, 8);
  for (const SolveRequest& request : corpus) {
    parallel += nonlinear_parallel_single_round(request.platform,
                                                request.load, request.alpha)
                    .solver_iterations;
    one_port += nonlinear_one_port_single_round(request.platform,
                                                request.load, request.alpha)
                    .solver_iterations;
  }
  const auto solves = static_cast<double>(corpus.size());
  EXPECT_LT(static_cast<double>(parallel) / solves, 10.0);
  EXPECT_LT(static_cast<double>(one_port) / solves, 14.0);
}

// The central claim of Section 2: as p grows, the DLT round covers a
// vanishing fraction of a quadratic workload — even with the optimal
// allocation, and under both communication models.
TEST(NoFreeLunch, RemainingFractionTendsToOne) {
  const double alpha = 2.0;
  double last_parallel = 0.0;
  for (const std::size_t p : {2UL, 8UL, 32UL, 128UL}) {
    const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
    const auto parallel =
        nonlinear_parallel_single_round(plat, 10000.0, alpha);
    EXPECT_GT(parallel.remaining_fraction, last_parallel);
    last_parallel = parallel.remaining_fraction;
  }
  EXPECT_GT(last_parallel, 0.99);  // 1 − 1/128 ≈ 0.992
}

// Property sweep: allocations are valid (non-negative, sum to N, equal
// finish) over random heterogeneous platforms and exponents.
class NonlinearAllocationProperty : public ::testing::TestWithParam<int> {};

TEST_P(NonlinearAllocationProperty, ParallelAllocationIsValid) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const auto model = GetParam() % 2 == 0 ? platform::SpeedModel::kUniform
                                         : platform::SpeedModel::kLogNormal;
  const auto p =
      static_cast<std::size_t>(rng.uniform_int(2, 12));
  const Platform plat = platform::make_platform(model, p, rng);
  const double alpha = rng.uniform(1.1, 3.5);
  const double n = rng.uniform(1.0, 500.0);

  const auto alloc = nonlinear_parallel_single_round(plat, n, alpha);
  double total = 0.0;
  for (const double amount : alloc.amounts) {
    ASSERT_GE(amount, 0.0);
    total += amount;
  }
  EXPECT_NEAR(total, n, 1e-6 * n);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish = plat.c(i) * alloc.amounts[i] +
                          plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-5 * alloc.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NonlinearAllocationProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace nldl::dlt
