#include "online/server.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"
#include "util/assert.hpp"

namespace nldl::online {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
}  // namespace

void Server::emit_arrival(const Job& job, std::size_t ahead) const {
  if (options_.trace == nullptr) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kArrival;
  event.start = job.arrival;
  event.end = job.arrival;
  event.job = job.id;
  event.tenant = job.tenant;
  event.size = job.load;
  event.alpha = job.alpha;
  event.value = static_cast<double>(ahead);
  options_.trace->record(event);
}

std::string to_string(MasterMode mode) {
  switch (mode) {
    case MasterMode::kPrivatePort:
      return "private-port";
    case MasterMode::kSharedMaster:
      return "shared-master";
  }
  NLDL_ASSERT(false, "unknown MasterMode");
}

Server::Server(const platform::Platform& platform, ServerOptions options)
    : platform_(platform),
      options_(options),
      model_(sim::make_comm_model(options.comm, options.capacity,
                                  options.max_concurrent)) {}

std::vector<JobStats> Server::run(const std::vector<Job>& jobs,
                                  const Scheduler& scheduler,
                                  obs::MetricsRegistry* metrics) const {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    NLDL_REQUIRE(jobs[i].id == i, "job ids must be 0..n-1 in order");
    NLDL_REQUIRE(jobs[i].arrival >= 0.0, "job arrivals must be >= 0");
    NLDL_REQUIRE(i == 0 || jobs[i].arrival >= jobs[i - 1].arrival,
                 "jobs must be sorted by arrival time");
    NLDL_REQUIRE(jobs[i].load > 0.0, "job loads must be positive");
    NLDL_REQUIRE(jobs[i].alpha >= 1.0, "job alphas must be >= 1");
  }

  // Pre-register the replay counters so a snapshot has them (at zero) even
  // for streams that never open a busy period.
  if (metrics != nullptr) {
    (void)metrics->counter("replay.engine_events");
    (void)metrics->counter("replay.replays");
    (void)metrics->counter("replay.busy_periods");
  }

  // One run-local memo serves every solve of the stream. The isolated
  // baselines are counterfactuals, not the served timeline: one untraced
  // engine replay of each job alone on the whole platform.
  dlt::AllocationCache cache(*model_);
  std::vector<JobStats> stats(jobs.size());
  if (options_.record_isolated) {
    for (const Job& job : jobs) {
      stats[job.id].isolated_makespan =
          cache.replay(platform_, job.load, job.alpha).makespan;
    }
  }

  serve(jobs, scheduler, cache, stats, metrics);

  // One kJob span per served job, in id order — the per-job track of the
  // exported timeline (chunk spans came from the busy periods, where
  // worker attribution lives).
  if (options_.trace != nullptr) {
    for (const JobStats& record : stats) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kJob;
      event.start = record.dispatch;
      event.end = record.finish;
      event.job = record.job.id;
      event.tenant = record.job.tenant;
      event.size = record.job.load;
      event.alpha = record.job.alpha;
      event.value = record.compute_time;
      options_.trace->record(event);
    }
  }
  return stats;
}

void Server::serve(const std::vector<Job>& jobs, const Scheduler& scheduler,
                   dlt::AllocationCache& cache, std::vector<JobStats>& stats,
                   obs::MetricsRegistry* metrics) const {
  // Carve the platform into the scheduler's slots (interleaved so a
  // sorted or two-class platform splits evenly); the carve also maps
  // slot-local worker indices back to the platform's.
  const platform::Platform::Partition carve =
      platform_.interleaved_partition(scheduler.shares());
  const std::size_t slots = carve.subsets.size();

  // Every slot dispatches into a sim::SharedMasterPeriod, which
  // multiplexes its owners' chunks through one engine run under the one
  // configured model (see sim/multiplex.hpp for the period-relative clock
  // and the finishes-only-move-later invariant this loop rides on). The
  // master mode only decides which slots share a period: all of them
  // under kSharedMaster, none under kPrivatePort.
  const bool shared = options_.master == MasterMode::kSharedMaster;
  const std::size_t period_count = shared ? 1 : slots;
  const auto period_of = [shared](std::size_t s) {
    return shared ? std::size_t{0} : s;
  };
  const sim::Engine engine(platform_, {});
  std::vector<sim::SharedMasterPeriod> periods;
  periods.reserve(period_count);
  for (std::size_t p = 0; p < period_count; ++p) {
    periods.emplace_back(engine, *model_,
                         sim::SharedMasterOptions{options_.incremental_replay});
    if (options_.trace != nullptr) periods.back().set_trace(options_.trace);
  }
  std::vector<std::vector<std::size_t>> owner_job(period_count);
  std::vector<std::uint8_t> period_busy(period_count, 0);
  std::vector<std::uint8_t> replay_due(period_count, 0);

  std::vector<double> slot_busy_until(slots, -kNever);  // idle when <= now
  std::vector<std::size_t> slot_owner(slots, kNoJob);
  std::vector<Job> queue;  // waiting jobs, in arrival order
  std::size_t next_arrival = 0;
  double now = 0.0;

  // An owner's record only becomes final when its busy period drains, so
  // per-job finish/compute land in `stats` once per period (amortized
  // O(1) per job) instead of re-writing every owner after every replay.
  // Finish estimates only move later and the last replay of a period
  // simulates its complete schedule, so the flushed values are exactly
  // the last per-replay values.
  const auto flush_period = [&](std::size_t p) {
    for (std::size_t owner = 0; owner < owner_job[p].size(); ++owner) {
      JobStats& record = stats[owner_job[p][owner]];
      record.finish = periods[p].finish(owner);
      record.compute_time = periods[p].busy(owner);
    }
    if (metrics != nullptr) ++metrics->counter("replay.busy_periods");
    periods[p].clear();
    owner_job[p].clear();
    for (std::size_t s = 0; s < slots; ++s) {
      if (period_of(s) == p) slot_owner[s] = kNoJob;
    }
  };

  while (true) {
    // Admit every job that has arrived by `now` (queue stays in arrival
    // order because `jobs` is sorted).
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].arrival <= now) {
      emit_arrival(jobs[next_arrival], queue.size());
      queue.push_back(jobs[next_arrival++]);
    }

    // A period whose slots all went idle has drained: its records are
    // final and it can be flushed. The next dispatch into it re-anchors
    // its clock at its own instant.
    std::fill(period_busy.begin(), period_busy.end(), 0);
    for (std::size_t s = 0; s < slots; ++s) {
      if (slot_busy_until[s] > now) period_busy[period_of(s)] = 1;
    }
    for (std::size_t p = 0; p < period_count; ++p) {
      if (period_busy[p] == 0 && !periods[p].empty()) flush_period(p);
    }

    // Fill idle slots in ascending slot order. One replay per period after
    // the fill pass refreshes every estimate: the pass itself only reads
    // slot_busy_until of slots it has not dispatched to, and those cannot
    // flip busy (a settled finish <= now is unaffected by chunks released
    // at now).
    for (std::size_t s = 0; s < slots && !queue.empty(); ++s) {
      if (slot_busy_until[s] > now) continue;
      const std::size_t k = scheduler.pick(queue, carve.subsets[s]);
      NLDL_ASSERT(k < queue.size(), "scheduler picked outside the queue");
      const Job job = queue[k];
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(k));

      JobStats& record = stats[job.id];
      record.job = job;
      record.dispatch = now;
      record.slot = s;
      record.workers = carve.subsets[s].size();

      const std::size_t p = period_of(s);
      slot_owner[s] = periods[p].dispatch(
          now, job.alpha,
          cache.allocation(carve.subsets[s], job.load, job.alpha)
              .to_schedule(),
          carve.workers[s], job.id, job.tenant);
      owner_job[p].push_back(job.id);
      replay_due[p] = 1;
    }
    bool dispatched = false;
    for (std::size_t p = 0; p < period_count; ++p) {
      if (replay_due[p] == 0) continue;
      periods[p].replay();
      replay_due[p] = 0;
      dispatched = true;
    }
    if (dispatched) {
      // Only the active slots' finish estimates drive the event loop;
      // per-job records wait for the period flush.
      for (std::size_t s = 0; s < slots; ++s) {
        if (slot_owner[s] != kNoJob) {
          slot_busy_until[s] = periods[period_of(s)].finish(slot_owner[s]);
        }
      }
    }

    // Advance to the next event: the earliest busy-slot completion or the
    // next arrival, whichever comes first (completions before arrivals at
    // ties, so freed slots see the tying arrival in the same round).
    double next_event = kNever;
    for (const double until : slot_busy_until) {
      if (until > now) next_event = std::min(next_event, until);
    }
    if (next_arrival < jobs.size()) {
      next_event = std::min(next_event, jobs[next_arrival].arrival);
    }
    if (next_event == kNever) break;  // no work left anywhere  // nldl-lint: allow(double-eq): kNever sentinel compare
    now = next_event;
  }

  // The loop exits with every slot idle; the final busy periods have not
  // seen the drain branch yet, so flush them here.
  for (std::size_t p = 0; p < period_count; ++p) {
    if (metrics != nullptr) {
      metrics->counter("replay.engine_events") += periods[p].events();
      metrics->counter("replay.replays") += periods[p].replays();
    }
    if (!periods[p].empty()) flush_period(p);
  }

  NLDL_ASSERT(queue.empty() && next_arrival == jobs.size(),
              "online server stopped with unserved jobs");
}

}  // namespace nldl::online
