// SLO-aware admission control: reject (or degrade) work that provably
// cannot meet its deadline.
//
// The controller compares a job's slack (deadline − arrival) against the
// predicted uninterrupted service time of its load under the server's own
// ServiceModel — the same dlt::nonlinear_*_single_round predictions the
// SPMF scheduler ranks by, evaluated per installment. The check is
// optimistic: queueing delay is not modeled, so an admitted job may still
// miss its deadline under load, but a REJECTED job provably could not make
// it even on an idle platform. (Under qos::ServerOptions::concurrency > 1
// the prediction stays whole-platform while service happens on a 1/k
// subset with contention, widening the optimism: rejections remain sound
// — subset service is never faster than whole-platform service — but
// admit/degrade decisions are looser than in serial mode; see
// qos/server.hpp.) Three modes:
//
//   kAdmitAll   SLO bookkeeping only (the baseline).
//   kReject     infeasible jobs are turned away whole.
//   kDegrade    infeasible jobs are shrunk to the largest load fraction
//               whose predicted service fits the slack (serving a smaller
//               partition of the work — a degraded but on-time answer,
//               e.g. a coarser approximation of the full result), down to
//               `min_load_fraction`; below the floor they are rejected.
//
// Degradation searches the fraction by bisection; predicted service is
// strictly increasing in load, so the result is deterministic to solver
// tolerance. Best-effort jobs (no deadline) are always admitted whole.
#pragma once

#include <cstddef>

#include "online/job.hpp"
#include "qos/plan.hpp"

namespace nldl::qos {

enum class AdmissionMode {
  kAdmitAll,
  kReject,
  kDegrade,
};

struct AdmissionOptions {
  AdmissionMode mode = AdmissionMode::kReject;
  /// Smallest admissible fraction of a degraded job's load.
  double min_load_fraction = 0.25;
  /// Bisection steps for the degrade search (2^-32 load resolution).
  int bisection_iterations = 32;
};

struct AdmissionDecision {
  bool admitted = true;
  bool degraded = false;
  /// Load the server will actually dispatch (0 when rejected).
  double served_load = 0.0;
  /// Predicted uninterrupted service time of served_load (0 when
  /// rejected).
  double predicted_service = 0.0;
};

class AdmissionController {
 public:
  /// Predicts through `solver`, which must outlive the controller (the
  /// qos::Server passes its run's solver, so admission predictions are
  /// memo hits when the ServicePlan later solves the same installment).
  explicit AdmissionController(InstallmentSolver& solver,
                               AdmissionOptions options = {});

  [[nodiscard]] AdmissionDecision decide(const online::Job& job) const;

 private:
  InstallmentSolver& solver_;
  AdmissionOptions options_;
};

}  // namespace nldl::qos
