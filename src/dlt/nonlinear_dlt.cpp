#include "dlt/nonlinear_dlt.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/roots.hpp"

namespace nldl::dlt {

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule() const {
  return sim::single_round_schedule(amounts);
}

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule(
    const std::vector<std::size_t>& send_order) const {
  return sim::single_round_schedule(amounts, send_order);
}

namespace {

/// Solve c·n + w·n^alpha = budget for n >= 0 (unique root; 0 if budget <= 0).
double chunk_for_budget(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  // Upper bracket: n <= budget / c (communication alone) and
  // n <= (budget / w)^(1/alpha) (computation alone); either bounds the root.
  const double hi = std::min(budget / c, std::pow(budget / w, 1.0 / alpha));
  auto f = [&](double n) { return c * n + w * std::pow(n, alpha) - budget; };
  auto df = [&](double n) {
    return c + w * alpha * std::pow(n, alpha - 1.0);
  };
  // hi satisfies f(hi) <= 0 is impossible: both single-resource bounds give
  // f >= 0 at their own bound, and min of them keeps f(hi) <= budget-level
  // uncertainty; use a slightly inflated bracket to be safe.
  double lo = 0.0;
  double bracket_hi = hi;
  while (f(bracket_hi) < 0.0) bracket_hi *= 2.0;
  // Tolerances must scale with the problem: |f| carries the magnitude of
  // `budget` (double precision bottoms out near 1e-16·budget), and the
  // bracket carries the magnitude of the chunk size.
  util::RootOptions opts;
  opts.f_tol = 1e-12 * std::max(1.0, budget);
  opts.x_tol = 1e-13 * std::max(1.0, bracket_hi);
  const auto result = util::newton_safeguarded(f, df, lo, bracket_hi, opts);
  NLDL_ASSERT(result.converged, "nonlinear chunk solve did not converge");
  return result.x;
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

}  // namespace

NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha,
    const NonlinearOptions& options) {
  NLDL_REQUIRE(total_load >= 0.0, "total_load must be >= 0");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  const std::size_t p = platform.size();

  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  if (total_load == 0.0) {
    finalize(alloc, total_load, alpha);
    return alloc;
  }

  // Σ n_i(T) is continuous and strictly increasing in T, so bisect on T.
  auto assigned_load = [&](double T) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      sum += chunk_for_budget(platform.c(i), platform.w(i), alpha, T);
    }
    return sum;
  };

  // Upper bound: any single worker processing the whole load alone finishes
  // by (c + w·N^alpha-ish); at that T, Σ n_i(T) >= N.
  double t_hi = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < p; ++i) {
    t_hi = std::min(t_hi, platform.c(i) * total_load +
                              platform.w(i) * std::pow(total_load, alpha));
  }

  auto f = [&](double T) { return assigned_load(T) - total_load; };
  util::RootOptions root_opts;
  root_opts.x_tol = options.tolerance * t_hi;
  root_opts.f_tol = options.tolerance * total_load;
  root_opts.max_iterations = options.max_iterations;
  // t_hi bounds the root only up to rounding (it can sit exactly on it,
  // e.g. for p = 1), so let the bracket grow if f(t_hi) rounds negative.
  const auto root = util::solve_increasing(f, 0.0, t_hi, root_opts);
  NLDL_ASSERT(root.converged, "nonlinear outer bisection did not converge");

  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  for (std::size_t i = 0; i < p; ++i) {
    alloc.amounts[i] =
        chunk_for_budget(platform.c(i), platform.w(i), alpha, root.x);
  }
  // Rescale the tiny residual so Σ n_i == total_load exactly.
  const double sum = assigned_load(root.x);
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
    alloc.makespan = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.makespan = std::max(
          alloc.makespan, platform.c(i) * alloc.amounts[i] +
                              platform.w(i) *
                                  std::pow(alloc.amounts[i], alpha));
    }
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha,
    const std::vector<std::size_t>& send_order,
    const NonlinearOptions& options) {
  NLDL_REQUIRE(total_load >= 0.0, "total_load must be >= 0");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  const std::size_t p = platform.size();
  NLDL_REQUIRE(send_order.size() == p,
               "send order must cover every worker exactly once");
  std::vector<bool> seen(p, false);
  for (const std::size_t worker : send_order) {
    NLDL_REQUIRE(worker < p, "send order index out of range");
    NLDL_REQUIRE(!seen[worker], "send order repeats a worker");
    seen[worker] = true;
  }

  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  if (total_load == 0.0) {
    finalize(alloc, total_load, alpha);
    return alloc;
  }

  // For a candidate makespan T, feed workers in order; each takes the
  // largest chunk it can finish by T given when its reception can start.
  auto fill_for = [&](double T, std::vector<double>& amounts) {
    double clock = 0.0;  // master port becomes free
    double sum = 0.0;
    for (const std::size_t worker : send_order) {
      const double budget = T - clock;
      const double n = chunk_for_budget(platform.c(worker),
                                        platform.w(worker), alpha, budget);
      amounts[worker] = n;
      clock += platform.c(worker) * n;
      sum += n;
    }
    return sum;
  };

  const std::size_t first = send_order[0];
  const double t_hi = platform.c(first) * total_load +
                      platform.w(first) * std::pow(total_load, alpha);

  std::vector<double> scratch(p, 0.0);
  auto f = [&](double T) { return fill_for(T, scratch) - total_load; };
  util::RootOptions root_opts;
  root_opts.x_tol = options.tolerance * t_hi;
  root_opts.f_tol = options.tolerance * total_load;
  root_opts.max_iterations = options.max_iterations;
  // As above: t_hi is the first worker's solo makespan, a bracket only up
  // to the inner solves' rounding.
  const auto root = util::solve_increasing(f, 0.0, t_hi, root_opts);
  NLDL_ASSERT(root.converged, "one-port outer bisection did not converge");

  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  fill_for(root.x, alloc.amounts);
  // Rescale the residual onto the allocation (keeps Σ n_i exact; the
  // perturbation of finish times is within solver tolerance).
  double sum = 0.0;
  for (const double n : alloc.amounts) sum += n;
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha,
    const NonlinearOptions& options) {
  std::vector<std::size_t> order(platform.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return nonlinear_one_port_single_round(platform, total_load, alpha, order,
                                         options);
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
    double total_load, double alpha, const NonlinearOptions& options) {
  if (comm == sim::CommModelKind::kOnePort) {
    return nonlinear_one_port_single_round(platform, total_load, alpha,
                                           options);
  }
  return nonlinear_parallel_single_round(platform, total_load, alpha,
                                         options);
}

}  // namespace nldl::dlt
