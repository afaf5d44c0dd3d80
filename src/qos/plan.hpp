// Preemptable per-job service plans: how the qos server turns one
// divisible-load job into a sequence of chunk-boundary checkpoints.
//
// online::Server dispatches a job's whole load as ONE optimal single-round
// allocation — atomic service, nothing can yield until the round finishes.
// The qos server instead serves a job as `rounds` sequential installments:
// each installment is the optimal single-round nonlinear allocation of
// (load / rounds) on the platform (dlt::nonlinear_*_single_round matched
// to the communication model), replayed through sim::Engine under the
// server's CommModel. Installment ends are the chunk boundaries where a
// running job can be paused and another dispatched — the divisible-load
// version of a checkpoint, at which a pause loses no in-flight work.
// (sim::Engine::run_until is the related standalone primitive for pausing
// MID-schedule, where in-flight chunks ARE lost; this plan does not use
// it — wiring pipelined installments onto run_until is future work, see
// ROADMAP.)
//
// Preemption is NOT free, and the price is nonlinear — the paper's no-free-
// lunch effect applied to restarts: when a paused job resumes, its first
// installment must re-dispatch `restart_load_fraction` ρ of an installment's
// worth of state (re-sent over the links and re-processed from scratch), so
// the resumed installment is the allocation of (1 + ρ)·(load / rounds).
// With compute cost w_i·X^alpha the inflated chunks pay superlinearly:
// the SAME ρ costs a quadratic (alpha = 2) job far more than a linear one,
// which is exactly the regime where classical SRPT optimality breaks
// (bench/bench_qos.cpp sweeps it; tests/test_qos.cpp pins the flip).
// With ρ = 0 a resumed plan is bit-identical to an uninterrupted one —
// the zero-restart-cost equivalence tests/test_qos.cpp pins.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>

#include "dlt/allocation_cache.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::qos {

/// Shape of preemptable service.
struct PlanOptions {
  /// Installments per job (chunk-boundary checkpoints). 1 = atomic
  /// service, exactly online::Server's shape.
  std::size_t rounds = 4;
  /// ρ: fraction of one installment's load re-dispatched (re-sent and
  /// re-processed) when a paused job resumes. 0 = free checkpoints.
  double restart_load_fraction = 0.0;
};

/// Everything that determines how the qos server serves work: the
/// communication model (with its bounded-multiport knobs) and the
/// installment plan. Shared by the server, the admission controller, and
/// the traffic generator so predictions and reality agree.
struct ServiceModel {
  sim::CommModelKind comm = sim::CommModelKind::kParallelLinks;
  double capacity = std::numeric_limits<double>::infinity();
  std::size_t max_concurrent = sim::BoundedMultiportModel::kUnlimited;
  PlanOptions plan;
};

/// Instantiate the comm model the ServiceModel describes.
[[nodiscard]] std::unique_ptr<sim::CommModel> make_model(
    const ServiceModel& service);

/// Installment solver: the optimal nonlinear allocation and engine
/// replay of one installment under a fixed (platform, model, service),
/// answered through one dlt::AllocationCache bound to the model.
/// Deadline assignment, admission, plan construction and (under
/// concurrency > 1) the qos server's subset schedules all need the same
/// solves, so sharing one solver per run collapses them into one per
/// distinct (platform, load, alpha). Results are bit-identical to
/// unmemoized solves (the memo only deduplicates). Holds references to
/// the platform and model, which must outlive it; not safe for
/// concurrent use.
class InstallmentSolver {
 public:
  InstallmentSolver(const platform::Platform& platform,
                    const sim::CommModel& model, ServiceModel service);

  /// Solve + replay one installment of `load` units on the platform:
  /// its simulated makespan and Σ compute busy time across workers.
  [[nodiscard]] dlt::AllocationCache::Replay solve(double load,
                                                   double alpha);

  /// Predicted uninterrupted service of a whole job: rounds ×
  /// solve(load / rounds).makespan — the admission controller's SLO
  /// yardstick and ServicePlan::total_duration(), equal by construction.
  [[nodiscard]] double predicted_service(double load, double alpha);

  /// The memo behind solve(), for solves on other platforms (the qos
  /// server's worker subsets) under the same model.
  [[nodiscard]] dlt::AllocationCache& cache() noexcept { return cache_; }

  [[nodiscard]] const ServiceModel& service() const noexcept {
    return service_;
  }

 private:
  const platform::Platform& platform_;
  ServiceModel service_;
  dlt::AllocationCache cache_;
};

/// The per-job service state machine the qos server drives.
///
/// Construction solves ONE installment allocation through the shared
/// solver (a memo hit when admission already predicted this job; the
/// restart-inflated variant is solved lazily on first pause), so a job
/// costs O(1) nonlinear solver runs however many installments or
/// preemptions it sees. The solver must outlive the plan.
class ServicePlan {
 public:
  /// `served_load` is the post-admission load (<= job.load when degraded).
  ServicePlan(InstallmentSolver& solver, const online::Job& job,
              double served_load);

  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t completed_rounds() const noexcept {
    return completed_rounds_;
  }
  [[nodiscard]] bool started() const noexcept {
    return completed_rounds_ > 0;
  }
  [[nodiscard]] bool done() const noexcept {
    return completed_rounds_ == rounds_;
  }
  [[nodiscard]] double served_load() const noexcept { return served_load_; }
  [[nodiscard]] double remaining_load() const noexcept;

  /// Duration of one uninterrupted installment (tests/diagnostics).
  [[nodiscard]] double clean_duration() const noexcept {
    return clean_.makespan;
  }
  /// Predicted uninterrupted total: rounds × clean_duration.
  [[nodiscard]] double total_duration() const noexcept {
    return static_cast<double>(rounds_) * clean_.makespan;
  }
  /// Wall time the next installment will take (restart-inflated when a
  /// pause is pending). Requires !done().
  [[nodiscard]] double next_duration();
  /// Load the next installment dispatches: served_load / rounds, inflated
  /// by (1 + restart_load_fraction) when a pause is pending. This is what
  /// the concurrent qos server allocates on a worker subset — the
  /// restart surcharge travels with the load, not just the duration
  /// estimate. Requires !done().
  [[nodiscard]] double next_load() const;
  /// A pause is pending: the next installment pays the restart surcharge.
  [[nodiscard]] bool restart_pending() const noexcept {
    return restart_pending_;
  }
  /// Predicted time to finish from here, including a pending restart —
  /// the SRPT priority.
  [[nodiscard]] double remaining_duration();

  /// Consume one installment (the server advances its clock by the
  /// next_duration() it just charged). Requires !done().
  void advance();

  /// The server switched to another job at a chunk boundary: flag the
  /// restart surcharge for the eventual resume. No-op before the first
  /// installment (nothing dispatched yet), after completion, or when a
  /// pause is already pending (waiting in the queue is not a second
  /// preemption).
  void pause();

  [[nodiscard]] std::size_t preemptions() const noexcept {
    return preemptions_;
  }
  /// Σ extra wall time charged by restart inflation so far.
  [[nodiscard]] double restart_time() const noexcept {
    return restart_time_;
  }
  /// Σ compute busy time across workers so far (utilization accounting;
  /// includes re-processed restart state).
  [[nodiscard]] double compute_time() const noexcept {
    return compute_time_;
  }

 private:
  void ensure_restart_solved();

  InstallmentSolver& solver_;
  double alpha_;
  double served_load_;
  std::size_t rounds_;
  double restart_fraction_;

  dlt::AllocationCache::Replay clean_;    ///< uninterrupted installment
  dlt::AllocationCache::Replay restart_;  ///< restart-inflated installment
  bool restart_solved_ = false;

  std::size_t completed_rounds_ = 0;
  bool restart_pending_ = false;
  std::size_t preemptions_ = 0;
  double restart_time_ = 0.0;
  double compute_time_ = 0.0;
};

}  // namespace nldl::qos
