// Forwarding decorators that time the serving loops' pluggable decisions
// from outside the library: every virtual call goes to the wrapped object
// unchanged, and the decision calls (Scheduler::pick, Policy::pick and
// Policy::on_service) each get a span. With a null recorder they forward
// without reading any clock.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "online/job.hpp"
#include "online/scheduler.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "spans.hpp"

namespace nldl::perfbench {

class TimedScheduler final : public online::Scheduler {
 public:
  TimedScheduler(const online::Scheduler& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t shares() const override {
    return inner_.shares();
  }
  [[nodiscard]] std::size_t pick(
      const std::vector<online::Job>& queue,
      const platform::Platform& slot_platform) const override {
    const SpanScope span(spans_, "online.scheduler");
    return inner_.pick(queue, slot_platform);
  }

 private:
  const online::Scheduler& inner_;
  SpanRecorder* spans_;
};

class TimedPolicy final : public qos::Policy {
 public:
  TimedPolicy(qos::Policy& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool preemptive() const override {
    return inner_.preemptive();
  }
  void reset(std::size_t tenants) override { inner_.reset(tenants); }
  [[nodiscard]] std::size_t pick(const std::vector<qos::Candidate>& ready,
                                 double now) override {
    const SpanScope span(spans_, "qos.policy");
    return inner_.pick(ready, now);
  }
  void on_service(const qos::Candidate& served, double duration) override {
    const SpanScope span(spans_, "qos.policy");
    inner_.on_service(served, duration);
  }

 private:
  qos::Policy& inner_;
  SpanRecorder* spans_;
};

}  // namespace nldl::perfbench
