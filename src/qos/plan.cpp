#include "qos/plan.hpp"

#include "util/assert.hpp"

namespace nldl::qos {

std::unique_ptr<sim::CommModel> make_model(const ServiceModel& service) {
  return sim::make_comm_model(service.comm, service.capacity,
                              service.max_concurrent);
}

InstallmentSolver::InstallmentSolver(const platform::Platform& platform,
                                     const sim::CommModel& model,
                                     ServiceModel service)
    : platform_(platform), service_(service), cache_(model) {
  NLDL_REQUIRE(service.plan.rounds >= 1,
               "service plans require at least one round");
}

dlt::AllocationCache::Replay InstallmentSolver::solve(double load,
                                                      double alpha) {
  NLDL_REQUIRE(load > 0.0, "installments require a positive load");
  // The replay reproduces the allocator's makespan under the matched
  // discrete models and corrects it under bounded multiport.
  return cache_.replay(platform_, load, alpha);
}

double InstallmentSolver::predicted_service(double load, double alpha) {
  const double rounds = static_cast<double>(service_.plan.rounds);
  return rounds * solve(load / rounds, alpha).makespan;
}

ServicePlan::ServicePlan(InstallmentSolver& solver, const online::Job& job,
                         double served_load)
    : solver_(solver),
      alpha_(job.alpha),
      served_load_(served_load),
      rounds_(solver.service().plan.rounds),
      restart_fraction_(solver.service().plan.restart_load_fraction) {
  NLDL_REQUIRE(served_load > 0.0 && served_load <= job.load,
               "served load must be in (0, job.load]");
  NLDL_REQUIRE(restart_fraction_ >= 0.0,
               "restart load fraction must be >= 0");
  clean_ = solver_.solve(served_load_ / static_cast<double>(rounds_),
                         alpha_);
}

void ServicePlan::ensure_restart_solved() {
  if (restart_solved_) return;
  restart_solved_ = true;
  // Free checkpoints: a resumed installment IS a clean installment, so
  // a paused-and-resumed plan reproduces the uninterrupted timeline
  // exactly (the pinned zero-restart-cost equivalence).
  restart_ = restart_fraction_ == 0.0
                 ? clean_
                 : solver_.solve((1.0 + restart_fraction_) * served_load_ /
                                     static_cast<double>(rounds_),
                                 alpha_);
}

double ServicePlan::remaining_load() const noexcept {
  return served_load_ *
         static_cast<double>(rounds_ - completed_rounds_) /
         static_cast<double>(rounds_);
}

double ServicePlan::next_duration() {
  NLDL_REQUIRE(!done(), "next_duration() on a finished plan");
  if (!restart_pending_) return clean_.makespan;
  ensure_restart_solved();
  return restart_.makespan;
}

double ServicePlan::next_load() const {
  NLDL_REQUIRE(!done(), "next_load() on a finished plan");
  const double clean_load =
      served_load_ / static_cast<double>(rounds_);
  return restart_pending_ ? (1.0 + restart_fraction_) * clean_load
                          : clean_load;
}

double ServicePlan::remaining_duration() {
  if (done()) return 0.0;
  double total =
      static_cast<double>(rounds_ - completed_rounds_) * clean_.makespan;
  if (restart_pending_) {
    ensure_restart_solved();
    total += restart_.makespan - clean_.makespan;
  }
  return total;
}

void ServicePlan::advance() {
  NLDL_REQUIRE(!done(), "advance() on a finished plan");
  if (restart_pending_) {
    ensure_restart_solved();
    restart_time_ += restart_.makespan - clean_.makespan;
    compute_time_ += restart_.busy;
    restart_pending_ = false;
  } else {
    compute_time_ += clean_.busy;
  }
  ++completed_rounds_;
}

void ServicePlan::pause() {
  if (!started() || done() || restart_pending_) return;
  restart_pending_ = true;
  ++preemptions_;
}

}  // namespace nldl::qos
