// Unit tests of the benchmark's own machinery: the forwarding decorators,
// the output checks and the failure accounting.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
//
// perfbench/tests/test_contract.py builds and runs this binary too.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "decorators.hpp"
#include "dlt/nonlinear_dlt.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace nldl;
using namespace nldl::perfbench;

namespace {

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

/// Counts every virtual call and answers with values a default could not.
class RecordingScheduler final : public online::Scheduler {
 public:
  [[nodiscard]] std::string name() const override {
    ++name_calls;
    return "recording";
  }
  [[nodiscard]] std::size_t shares() const override {
    ++shares_calls;
    return 7;
  }
  [[nodiscard]] std::size_t pick(
      const std::vector<online::Job>& queue,
      const platform::Platform& /*slot_platform*/) const override {
    ++pick_calls;
    return queue.size() - 1;
  }

  mutable int name_calls = 0;
  mutable int shares_calls = 0;
  mutable int pick_calls = 0;
};

class RecordingPolicy final : public qos::Policy {
 public:
  [[nodiscard]] std::string name() const override {
    ++name_calls;
    return "recording";
  }
  [[nodiscard]] bool preemptive() const override {
    ++preemptive_calls;
    return true;
  }
  void reset(std::size_t tenants) override { reset_tenants = tenants; }
  [[nodiscard]] std::size_t pick(const std::vector<qos::Candidate>& ready,
                                 double now) override {
    last_now = now;
    return ready.size() - 1;
  }
  void on_service(const qos::Candidate& /*served*/,
                  double duration) override {
    served_duration = duration;
  }

  mutable int name_calls = 0;
  mutable int preemptive_calls = 0;
  std::size_t reset_tenants = 0;
  double last_now = 0.0;
  double served_duration = 0.0;
};

void test_scheduler_decorator_forwards(SpanRecorder* spans) {
  const RecordingScheduler inner;
  const TimedScheduler timed(inner, spans);
  const platform::Platform slot = platform::Platform::homogeneous(2);
  const std::vector<online::Job> queue(3);
  check(timed.name() == "recording", "scheduler name() forwarded");
  check(timed.shares() == 7, "scheduler shares() forwarded");
  check(timed.pick(queue, slot) == 2, "scheduler pick() forwarded");
  check(inner.name_calls == 1 && inner.shares_calls == 1 &&
            inner.pick_calls == 1,
        "scheduler decorator calls the wrapped object once per call");
}

void test_policy_decorator_forwards(SpanRecorder* spans) {
  RecordingPolicy inner;
  TimedPolicy timed(inner, spans);
  check(timed.name() == "recording", "policy name() forwarded");
  check(timed.preemptive(), "policy preemptive() forwarded");
  timed.reset(5);
  check(inner.reset_tenants == 5, "policy reset() forwarded");
  const std::vector<qos::Candidate> ready(4);
  check(timed.pick(ready, 2.5) == 3 && inner.last_now == 2.5,
        "policy pick() forwarded");
  timed.on_service(ready[0], 1.25);
  check(inner.served_duration == 1.25, "policy on_service() forwarded");
  check(inner.name_calls == 1 && inner.preemptive_calls == 1,
        "policy decorator calls the wrapped object once per call");
}

void test_decorators() {
  test_scheduler_decorator_forwards(nullptr);
  test_policy_decorator_forwards(nullptr);

  SpanRecorder spans;
  test_scheduler_decorator_forwards(&spans);
  test_policy_decorator_forwards(&spans);
  const SpanTotals totals = spans.totals();
  check(totals.at("online.scheduler").count == 1,
        "a traced pick() records one scheduler span");
  check(totals.at("qos.policy").count == 2,
        "traced pick() and on_service() record one policy span each");
}

void test_allocation_checks() {
  const platform::Platform platform =
      platform::Platform::two_class(6, 1.0, 4.0);
  const double load = 100.0;
  const double alpha = 2.0;
  const dlt::NonlinearAllocation valid =
      dlt::nonlinear_parallel_single_round(platform, load, alpha);
  check(allocation_ok(platform, load, alpha, valid, true),
        "the solver's allocation passes");

  dlt::NonlinearAllocation bad = valid;
  bad.amounts[0] *= 1.5;
  check(!allocation_ok(platform, load, alpha, bad, true),
        "an allocation that loses load fails");

  bad = valid;
  bad.amounts[0] += 1.0;
  bad.amounts[1] -= 1.0;
  check(!allocation_ok(platform, load, alpha, bad, true),
        "unequal finish times fail under the parallel model");
  check(allocation_ok(platform, load, alpha, bad, false),
        "finish times are not compared under one-port");

  bad = valid;
  bad.amounts[2] = -bad.amounts[2];
  check(!allocation_ok(platform, load, alpha, bad, false),
        "a negative share fails");
  bad = valid;
  bad.amounts[3] = std::nan("");
  check(!allocation_ok(platform, load, alpha, bad, false),
        "a NaN share fails");
  bad = valid;
  bad.amounts.pop_back();
  check(!allocation_ok(platform, load, alpha, bad, false),
        "an allocation missing a worker fails");
}

void test_sort_checks() {
  const std::vector<std::uint64_t> input{9, 3, 7, 3, 1};
  const KeyChecksum checksum = key_checksum(input);
  check(sorted_permutation_ok({1, 3, 3, 7, 9}, checksum),
        "a sorted permutation passes");
  check(!sorted_permutation_ok({1, 3, 7, 3, 9}, checksum),
        "an unsorted output fails");
  check(!sorted_permutation_ok({1, 3, 3, 8, 9}, checksum),
        "a sorted output with a changed key fails");
  check(!sorted_permutation_ok({1, 3, 7, 9}, checksum),
        "a sorted output with a lost key fails");
}

void test_stream_checks() {
  std::vector<online::Job> jobs(3);
  std::vector<online::JobStats> stats(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].arrival = static_cast<double>(i);
    stats[i].job = jobs[i];
    stats[i].dispatch = jobs[i].arrival + 0.5;
    stats[i].finish = jobs[i].arrival + 1.0;
  }
  check(stream_violations(jobs, stats) == 0, "well-formed records pass");
  stats[1].finish = stats[1].dispatch - 0.25;
  check(stream_violations(jobs, stats) == 1, "finish before dispatch fails");
  stats.pop_back();
  check(stream_violations(jobs, stats) == 2, "a missing record fails");
}

void test_failures_are_counted() {
  PassOutcome clean;
  clean.attempted = 10;
  clean.digest = 42;

  PassOutcome broken = clean;
  broken.throws = 1;
  broken.bad_allocations = 2;
  broken.violations = 3;

  Tally tally;
  tally.add(clean, 42);
  check(tally.failed() == 0 && tally.correct(), "a clean pass is correct");
  tally.add(clean, 42);
  check(tally.attempted == 10 && tally.correct(),
        "a repeated pass is counted once");
  tally.add(broken, 42);
  check(!tally.correct(),
        "a pass whose failure counts differ from the first is incorrect");

  Tally failing;
  failing.add(broken, 42);
  failing.add(broken, 42);
  check(failing.attempted == 10 && failing.failed() == 6,
        "throws, bad allocations and violations all count as failed");
  check(std::fabs(failing.failed_ratio() - 0.6) < 1e-12,
        "failed_ratio is failed over attempted");
  check(!failing.correct(), "a check violation makes the run incorrect");

  Tally library_only;
  PassOutcome solver_defects = clean;
  solver_defects.throws = 1;
  solver_defects.bad_allocations = 1;
  library_only.add(solver_defects, 42);
  check(library_only.failed() == 2 && library_only.correct(),
        "solver throws and bad allocations are failures, not incorrect runs");

  Tally drift;
  PassOutcome other = clean;
  other.digest = 43;
  drift.add(other, 42);
  check(!drift.correct(), "a pass that changes its outputs is incorrect");
}

void test_span_self_time() {
  SpanRecorder spans;
  const std::size_t outer = spans.begin("outer");
  const std::size_t inner = spans.begin("inner");
  spans.end(inner);
  spans.end(outer);
  const SpanTotals totals = spans.totals();
  const SpanStat& o = totals.at("outer");
  const SpanStat& i = totals.at("inner");
  check(spans.spans()[inner].parent == outer, "a nested span has a parent");
  check(std::fabs(o.self_s - (o.inclusive_s - i.inclusive_s)) < 1e-12,
        "self time is duration minus child coverage");
}

}  // namespace

int main() {
  test_decorators();
  test_allocation_checks();
  test_sort_checks();
  test_stream_checks();
  test_failures_are_counted();
  test_span_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return EXIT_SUCCESS;
}
