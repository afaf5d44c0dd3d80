// Insertion-order-independence pins for the three audited container
// sites of the nldl-lint unordered-container sweep (ISSUE 7): the
// mapreduce block caches (cluster_sim, speculation) and the allocation
// memo (dlt::AllocationCache, which replaced the online prediction
// cache). All three were std::unordered_* and are now ordered;
// these tests permute the order in which elements ENTER each container
// and assert bitwise-identical outcomes, so a future reintroduction of
// order-sensitive iteration fails here before it reaches a bench.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "dlt/allocation_cache.hpp"
#include "mapreduce/cluster_sim.hpp"
#include "mapreduce/speculation.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace {

using nldl::mapreduce::BlockId;
using nldl::mapreduce::ClusterConfig;
using nldl::mapreduce::ClusterOutcome;
using nldl::mapreduce::SimTask;

// The per-worker block cache is populated in task-input order; permuting
// each task's input list permutes exactly the cache insertion order while
// naming the same block set, so every accounted quantity must be
// bit-identical.
std::vector<SimTask> affinity_tasks(bool reversed) {
  std::vector<SimTask> tasks;
  for (std::size_t t = 0; t < 24; ++t) {
    SimTask task;
    task.compute_cost = 3.0 + static_cast<double>(t % 5);
    // Overlapping block sets so affinity scheduling has real choices.
    task.inputs = {BlockId(t), BlockId(t / 2 + 100), BlockId(t % 7 + 200),
                   BlockId(301), BlockId(t % 3 + 400)};
    if (reversed) std::reverse(task.inputs.begin(), task.inputs.end());
    tasks.push_back(task);
  }
  return tasks;
}

void expect_identical(const ClusterOutcome& a, const ClusterOutcome& b) {
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.worker_time, b.worker_time);
  EXPECT_EQ(a.bytes_per_worker, b.bytes_per_worker);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(DeterminismOrder, ClusterSimCacheIgnoresInsertionOrder) {
  ClusterConfig config;
  config.speeds = {1.0, 1.5, 0.75};
  config.bytes_per_block = 2.0;
  for (const bool affinity : {false, true}) {
    config.affinity_aware = affinity;
    const ClusterOutcome forward = run_cluster(affinity_tasks(false), config);
    const ClusterOutcome reversed = run_cluster(affinity_tasks(true), config);
    expect_identical(forward, reversed);
  }
}

TEST(DeterminismOrder, SpeculationCacheIgnoresInsertionOrder) {
  nldl::mapreduce::StragglerConfig config;
  config.speeds = {1.0, 1.0, 2.0};
  config.slowdown = {1.0, 4.0, 1.0};
  config.bytes_per_block = 1.5;
  for (const bool speculate : {false, true}) {
    config.speculative_execution = speculate;
    const auto forward =
        run_with_stragglers(affinity_tasks(false), config);
    const auto reversed =
        run_with_stragglers(affinity_tasks(true), config);
    EXPECT_EQ(forward.makespan, reversed.makespan);
    EXPECT_EQ(forward.total_bytes, reversed.total_bytes);
    EXPECT_EQ(forward.backup_launches, reversed.backup_launches);
    EXPECT_EQ(forward.backups_won, reversed.backups_won);
    EXPECT_EQ(forward.worker_busy, reversed.worker_busy);
  }
}

TEST(DeterminismOrder, AllocationCacheIgnoresInsertionOrder) {
  const auto plat = nldl::platform::Platform::homogeneous(4, 1.0, 2.0);
  std::vector<nldl::online::Job> jobs;
  for (std::size_t i = 0; i < 12; ++i) {
    nldl::online::Job job;
    job.id = i;
    job.load = 10.0 + static_cast<double>(i);
    job.alpha = (i % 2 == 0) ? 1.0 : 2.0;
    jobs.push_back(job);
  }

  // Fill one cache front-to-back and one back-to-front, then query both
  // in a third order: every prediction must be bit-identical (and served
  // from the memo — no re-solve may sneak in a different code path).
  const nldl::sim::OnePortModel model;
  nldl::dlt::AllocationCache forward(model);
  nldl::dlt::AllocationCache backward(model);
  const auto predict = [&plat](nldl::dlt::AllocationCache& cache,
                               const nldl::online::Job& job) {
    return cache.allocation(plat, job.load, job.alpha).makespan;
  };
  for (const auto& job : jobs) (void)predict(forward, job);
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    (void)predict(backward, *it);
  }
  ASSERT_EQ(forward.size(), backward.size());
  const std::size_t forward_misses = forward.misses();
  const std::size_t backward_misses = backward.misses();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[(i * 5) % jobs.size()];  // scrambled query order
    EXPECT_EQ(predict(forward, job), predict(backward, job))
        << "prediction for job " << job.id
        << " depends on cache insertion order";
  }
  EXPECT_EQ(forward.misses(), forward_misses) << "scrambled queries re-solved";
  EXPECT_EQ(backward.misses(), backward_misses);
}

}  // namespace
