// Nonlinear divisible load allocation (paper Section 2).
//
// Compute cost on worker i for a chunk of X load units is w_i · X^alpha with
// alpha > 1 (e.g. alpha = 2 for the "quadratic loads" of Hung & Robertazzi,
// Suresh et al. — refs [31–35] of the paper). Optimal single-round
// allocations equalize finish times; they have no closed form on
// heterogeneous platforms, so nldl solves the optimality conditions with
// its own root-finder: safeguarded Newton on T outside and on each n_i(T)
// inside, each run until its bracket is two adjacent doubles. The result is
// then the canonical root (the smallest double at which the computed
// residual turns non-negative) whenever that residual is monotone in
// floating point, as it is under parallel links: the probes only decide
// how fast the root is found, never which root it is.
//
// The headline quantity is `remaining_fraction`: the share of the total
// work W = N^alpha that is *not* performed by the single DLT round,
//   1 − Σ n_i^alpha / N^alpha,
// which the paper proves tends to 1 as p grows (homogeneous closed form:
// 1 − 1/p^(alpha−1)) — the "no free lunch" theorem.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace nldl::dlt {

struct NonlinearAllocation {
  std::vector<double> amounts;  ///< n_i load units to worker i
  double makespan = 0.0;        ///< common finish time T
  double alpha = 1.0;

  /// Convert to an engine schedule (one chunk per worker, in worker
  /// order). Replaying it with sim::Engine{platform, {alpha}} reproduces
  /// `makespan`.
  [[nodiscard]] std::vector<sim::ChunkAssignment> to_schedule() const;

  /// Work performed by the round, in unit-speed time: Σ n_i^alpha.
  double work_done = 0.0;
  /// Total work of the monolithic job: N^alpha.
  double total_work = 0.0;
  /// 1 − work_done / total_work (the paper's (W − W_partial)/W).
  double remaining_fraction = 0.0;

  /// Outer probes of T, the bracket's first end included: each one
  /// solves every n_i(T). 0 when nothing was placed.
  int solver_iterations = 0;
};

/// Optimal single-round allocation under the parallel-links model:
///   c_i·n_i + w_i·n_i^alpha = T for all i,  Σ n_i = total_load.
/// Solved by nested safeguarded Newton (outer on T, inner on each n_i(T)),
/// both run to adjacent doubles; T is the canonical root of the computed
/// Σ n_i(T) − total_load, which is monotone in T, so the result is the one
/// plain bisection to adjacent doubles would find, bit for bit.
/// Requires alpha >= 1; with alpha == 1 this matches the linear closed form.
[[nodiscard]] NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha);

/// Optimal single-round allocation under the one-port model. The master
/// feeds workers in platform order 0..p-1, so worker i starts receiving
/// at τ_i = Σ_{j<i} c_j·n_j and satisfies
///   τ_i + c_i·n_i + w_i·n_i^alpha = T.
/// This is the setting of the nonlinear-DLT literature ([31–35]); workers
/// that cannot receive anything before T contribute n_i = 0. Solved like
/// the parallel allocator, but the T − τ_i budgets make the computed
/// Σ n_i(T) non-monotone over a few ulps, so T is a sign change of it
/// rather than the smallest one.
[[nodiscard]] NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha);

/// The optimal single-round allocation MATCHED to a communication model
/// kind: the one-port optimality conditions under kOnePort (the master
/// serializes sends, platform feed order), parallel links otherwise —
/// bounded multiport has no closed-form allocator, and parallel links is
/// its uncapped limit. This is the one dispatch every scheduler, server,
/// and service-plan layer shares, so predictions and replays always
/// solve the same allocation for a given comm kind.
[[nodiscard]] NonlinearAllocation nonlinear_single_round_for(
    sim::CommModelKind comm, const platform::Platform& platform,
    double total_load, double alpha);

/// Closed-form makespan of the homogeneous optimum (paper Section 2):
/// every worker gets N/p, finishing at (N/p)·c + w·(N/p)^alpha.
[[nodiscard]] double homogeneous_nonlinear_makespan(std::size_t p, double c,
                                                    double w, double total_load,
                                                    double alpha);

}  // namespace nldl::dlt
