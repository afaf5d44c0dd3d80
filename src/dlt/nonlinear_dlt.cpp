#include "dlt/nonlinear_dlt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace nldl::dlt {

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule() const {
  return sim::single_round_schedule(amounts);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One evaluation of an increasing function g: its value and its slope.
struct Probe {
  double x = 0.0;
  double g = 0.0;
  double slope = 0.0;
};

/// The canonical root of an increasing g with g(0) < 0: the bracket
/// [lo, hi] keeps g(lo) < 0 <= g(hi) and shrinks until lo and hi are
/// adjacent doubles, and the probe at hi is returned. When the computed g
/// is itself monotone, that is the smallest double at which g turns
/// non-negative, whatever the probes were. `eval(x)` returns the probe at
/// x > 0; hi starts at `hi_guess` and doubles until g(hi) >= 0. Probes
/// are safeguarded Newton steps from `start`, or from hi when `start` is
/// not inside the bracket. A step beyond the bracket bisects it instead; a
/// step that rounds onto an end of the bracket (its own probe, after the
/// probe became that end) moves one ulp inside from that end. Every probe
/// lies strictly inside the bracket, so each one shrinks it.
template <typename Eval>
Probe canonical_root(Eval&& eval, double hi_guess, double start) {
  Probe hi = eval(hi_guess);
  while (hi.g < 0.0) {
    NLDL_ASSERT(hi.x < kInf, "no sign change below the largest double");
    hi = eval(2.0 * hi.x);
  }
  double lo = 0.0;
  double x = lo < start && start < hi.x ? start : hi.x - hi.g / hi.slope;
  while (std::nextafter(lo, kInf) < hi.x) {
    if (!(x > lo)) {
      x = x < lo || std::isnan(x) ? 0.5 * (lo + hi.x)
                                  : std::nextafter(lo, kInf);
    } else if (!(x < hi.x)) {
      x = x > hi.x ? 0.5 * (lo + hi.x) : std::nextafter(hi.x, -kInf);
    }
    const Probe at = eval(x);
    if (at.g < 0.0) {
      lo = x;
    } else {
      hi = at;
    }
    x -= at.g / at.slope;
  }
  return hi;
}

/// Solve c·n + w·n^alpha = budget for n >= 0 (unique root; 0 if budget <=
/// 0): the canonical root, with its slope dg/dn, probed from `start`.
Probe chunk_for_budget(double c, double w, double alpha, double budget,
                       double start) {
  if (budget <= 0.0) return {};
  const auto eval = [&](double n) {
    const double power = std::pow(n, alpha);
    return Probe{n, c * n + w * power - budget, c + alpha * w * power / n};
  };
  // Communication alone (n = budget / c) or computation alone (n =
  // (budget / w)^(1/alpha)) spends the whole budget, so either bound
  // brackets the root in exact arithmetic; canonical_root widens it when
  // rounding leaves g a hair below 0 there, or when it underflows to 0.
  const double bound = std::max(std::min(budget / c, std::pow(budget / w,
                                                              1.0 / alpha)),
                                std::numeric_limits<double>::denorm_min());
  return canonical_root(eval, bound, start);
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

/// Σ n_i(T) in worker order and its derivative in T.
struct Fill {
  double sum = 0.0;
  double slope = 0.0;
};

/// The equal-finish-time system both allocators solve: find the makespan
/// T at which the chunks n_i(T) sum to total_load. `fill(T, amounts)`
/// sets every n_i(T), starting each inner solve from amounts[i] (the
/// previous probe's chunk), and returns Σ n_i with its slope. T is the
/// canonical root of Σ n_i(T) − total_load from [0, t_hi]. The residual of
/// the fill at T is rescaled away so that Σ n_i == total_load exactly, and
/// alloc.makespan is T. Returns the fill's sum at T (0 when nothing was
/// placed).
template <typename FillAt>
double solve_equal_finish(NonlinearAllocation& alloc, std::size_t p,
                          double total_load, double alpha, double t_hi,
                          FillAt&& fill) {
  NLDL_REQUIRE(total_load >= 0.0, "total_load must be >= 0");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  alloc.amounts.assign(p, 0.0);
  double sum = 0.0;
  if (total_load > 0.0) {
    std::vector<double> scratch(p, 0.0);
    // Every probe with g >= 0 becomes the bracket's upper end, so the
    // last such probe's chunks are the chunks at the returned root.
    const auto eval = [&](double T) {
      ++alloc.solver_iterations;
      const Fill at = fill(T, scratch);
      const double g = at.sum - total_load;
      if (g >= 0.0) {
        alloc.amounts = scratch;
        sum = at.sum;
      }
      return Probe{T, g, at.slope};
    };
    alloc.makespan = canonical_root(eval, t_hi, 0.0).x;
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
        // dn_i/dT = 1 / (c_i + alpha·w_i·n_i^(alpha−1)).
        Fill at;
        for (std::size_t i = 0; i < p; ++i) {
          const Probe chunk = chunk_for_budget(platform.c(i), platform.w(i),
                                               alpha, T, amounts[i]);
          amounts[i] = chunk.x;
          at.sum += chunk.x;
          at.slope += 1.0 / chunk.slope;
        }
        return at;
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
        // can finish by T once the master's port frees up for it. With
        // clock = Σ_{j<i} c_j·n_j, dn_i/dT = (1 − dclock/dT) / (c_i +
        // alpha·w_i·n_i^(alpha−1)), and 0 for workers fed no load.
        double clock = 0.0;
        double clock_slope = 0.0;
        Fill at;
        for (std::size_t i = 0; i < p; ++i) {
          const Probe chunk = chunk_for_budget(platform.c(i), platform.w(i),
                                               alpha, T - clock, amounts[i]);
          amounts[i] = chunk.x;
          const double slope =
              chunk.x > 0.0 ? (1.0 - clock_slope) / chunk.slope : 0.0;
          clock += platform.c(i) * chunk.x;
          clock_slope += platform.c(i) * slope;
          at.sum += chunk.x;
          at.slope += slope;
        }
        return at;
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
