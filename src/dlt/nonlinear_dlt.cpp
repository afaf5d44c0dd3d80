#include "dlt/nonlinear_dlt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/roots.hpp"

namespace nldl::dlt {

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule() const {
  return sim::single_round_schedule(amounts);
}

namespace {

/// Outer-solve tolerances: on T relative to the bracket guess, on Σ n_i
/// relative to the load.
constexpr double kTolerance = 1e-10;
constexpr int kMaxIterations = 200;

/// Solve c·n + w·n^alpha = budget for n >= 0 (unique root; 0 if budget <= 0).
double chunk_for_budget(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  auto f = [&](double n) { return c * n + w * std::pow(n, alpha) - budget; };
  auto df = [&](double n) {
    return c + w * alpha * std::pow(n, alpha - 1.0);
  };
  // Upper bracket: communication alone (n = budget / c) or computation
  // alone (n = (budget / w)^(1/alpha)) spends the whole budget, so at
  // either bound the other term makes f >= 0 in exact arithmetic. When
  // that term is negligible, rounding can still leave f a hair below 0,
  // so widen the bracket until the sign really changes.
  double hi = std::min(budget / c, std::pow(budget / w, 1.0 / alpha));
  while (f(hi) < 0.0) hi *= 2.0;
  // Tolerances must scale with the problem: |f| carries the magnitude of
  // `budget` (double precision bottoms out near 1e-16·budget), and the
  // bracket carries the magnitude of the chunk size.
  util::RootOptions opts;
  opts.f_tol = 1e-12 * std::max(1.0, budget);
  opts.x_tol = 1e-13 * std::max(1.0, hi);
  const auto result = util::newton_safeguarded(f, df, 0.0, hi, opts);
  NLDL_ASSERT(result.converged, "nonlinear chunk solve did not converge");
  return result.x;
}

/// Makespan of worker i processing the whole load alone.
double solo_makespan(const platform::Platform& platform, std::size_t i,
                     double total_load, double alpha) {
  return platform.c(i) * total_load +
         platform.w(i) * std::pow(total_load, alpha);
}

void finalize(NonlinearAllocation& alloc, double total_load, double alpha) {
  alloc.alpha = alpha;
  alloc.total_work = std::pow(total_load, alpha);
  alloc.work_done = 0.0;
  for (const double n : alloc.amounts) {
    alloc.work_done += std::pow(n, alpha);
  }
  alloc.remaining_fraction =
      alloc.total_work > 0.0 ? 1.0 - alloc.work_done / alloc.total_work : 0.0;
}

/// The equal-finish-time system both allocators solve: find the makespan
/// T at which the chunks n_i(T) sum to total_load. `fill(T, amounts)`
/// sets every n_i(T) and returns Σ n_i in worker order; the sum is
/// continuous and increasing in T, so T is bisected from [0, t_hi], and
/// t_hi grows if it rounds below the root (it can sit exactly on it, e.g.
/// for p = 1). The final fill's residual is rescaled away so that
/// Σ n_i == total_load exactly, and alloc.makespan is the root T. Returns
/// the final fill's sum (0 when nothing was placed).
template <typename Fill>
double solve_equal_finish(NonlinearAllocation& alloc, std::size_t p,
                          double total_load, double alpha, double t_hi,
                          Fill&& fill) {
  NLDL_REQUIRE(total_load >= 0.0, "total_load must be >= 0");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  alloc.amounts.assign(p, 0.0);
  double sum = 0.0;
  if (total_load > 0.0) {
    std::vector<double> scratch(p, 0.0);
    auto f = [&](double T) { return fill(T, scratch) - total_load; };
    util::RootOptions root_opts;
    root_opts.x_tol = kTolerance * t_hi;
    root_opts.f_tol = kTolerance * total_load;
    root_opts.max_iterations = kMaxIterations;
    const auto root = util::solve_increasing(f, 0.0, t_hi, root_opts);
    NLDL_ASSERT(root.converged, "nonlinear outer bisection did not converge");
    alloc.makespan = root.x;
    alloc.solver_iterations = root.iterations;
    sum = fill(root.x, alloc.amounts);
    if (sum > 0.0) {
      const double scale = total_load / sum;
      for (double& n : alloc.amounts) n *= scale;
    }
  }
  finalize(alloc, total_load, alpha);
  return sum;
}

}  // namespace

NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha) {
  const std::size_t p = platform.size();
  // Any single worker finishes the whole load alone by its solo makespan,
  // so Σ n_i(T) >= total_load there.
  double t_hi = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < p; ++i) {
    t_hi = std::min(t_hi, solo_makespan(platform, i, total_load, alpha));
  }
  NonlinearAllocation alloc;
  const double sum = solve_equal_finish(
      alloc, p, total_load, alpha, t_hi,
      [&](double T, std::vector<double>& amounts) {
        double assigned = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
          amounts[i] =
              chunk_for_budget(platform.c(i), platform.w(i), alpha, T);
          assigned += amounts[i];
        }
        return assigned;
      });
  // The rescale moved every finish time off T; report the latest.
  if (sum > 0.0) {
    alloc.makespan = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.makespan = std::max(
          alloc.makespan, platform.c(i) * alloc.amounts[i] +
                              platform.w(i) *
                                  std::pow(alloc.amounts[i], alpha));
    }
  }
  return alloc;
}

NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha) {
  const std::size_t p = platform.size();
  // Worker 0 is fed first, from t = 0, so its solo makespan bounds T.
  const double t_hi = solo_makespan(platform, 0, total_load, alpha);
  NonlinearAllocation alloc;
  // The rescale's perturbation of finish times is within solver
  // tolerance, so the makespan stays the root T.
  (void)solve_equal_finish(
      alloc, p, total_load, alpha, t_hi,
      [&](double T, std::vector<double>& amounts) {
        // Feed workers in platform order; each takes the largest chunk it
        // can finish by T once the master's port frees up for it.
        double clock = 0.0;
        double assigned = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
          amounts[i] = chunk_for_budget(platform.c(i), platform.w(i), alpha,
                                        T - clock);
          clock += platform.c(i) * amounts[i];
          assigned += amounts[i];
        }
        return assigned;
      });
  return alloc;
}

double homogeneous_nonlinear_makespan(std::size_t p, double c, double w,
                                      double total_load, double alpha) {
  NLDL_REQUIRE(p >= 1, "p must be >= 1");
  NLDL_REQUIRE(c > 0.0 && w > 0.0, "c and w must be positive");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  const double share = total_load / static_cast<double>(p);
  return share * c + w * std::pow(share, alpha);
}

NonlinearAllocation nonlinear_single_round_for(
    sim::CommModelKind comm, const platform::Platform& platform,
    double total_load, double alpha) {
  if (comm == sim::CommModelKind::kOnePort) {
    return nonlinear_one_port_single_round(platform, total_load, alpha);
  }
  return nonlinear_parallel_single_round(platform, total_load, alpha);
}

}  // namespace nldl::dlt
