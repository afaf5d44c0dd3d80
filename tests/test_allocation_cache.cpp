// dlt::AllocationCache: the one memo behind every server solve. Pins
// the key (exact platform, load, alpha), the bounded footprint, and that
// every cached answer is bit-equal to a direct solve and engine replay.
#include "dlt/allocation_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "online/job.hpp"
#include "online/scheduler.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"

namespace nldl::dlt {
namespace {

/// The cached allocation must be bit-equal to a fresh matched solve.
void expect_direct_allocation(const NonlinearAllocation& cached,
                              const sim::CommModel& model,
                              const platform::Platform& plat, double load,
                              double alpha) {
  const NonlinearAllocation direct =
      nonlinear_single_round_for(model.kind(), plat, load, alpha);
  EXPECT_EQ(cached.amounts, direct.amounts);
  EXPECT_EQ(cached.makespan, direct.makespan);
  EXPECT_EQ(cached.remaining_fraction, direct.remaining_fraction);
}

/// The cached replay must be bit-equal to a fresh engine run.
void expect_direct_replay(const AllocationCache::Replay& cached,
                          const sim::CommModel& model,
                          const platform::Platform& plat, double load,
                          double alpha) {
  const sim::SimResult direct =
      sim::Engine(plat, {alpha})
          .run(nonlinear_single_round_for(model.kind(), plat, load, alpha)
                   .to_schedule(),
               model);
  double busy = 0.0;
  for (const double t : direct.worker_compute_time) busy += t;
  EXPECT_EQ(cached.makespan, direct.makespan);
  EXPECT_EQ(cached.busy, busy);
}

TEST(AllocationCache, MemoizesPerKey) {
  const auto plat = platform::Platform::homogeneous(4);
  const sim::ParallelLinksModel model;
  AllocationCache cache(model);
  const online::Job job{7, 0.0, 100.0, 2.0};
  const double first = cache.allocation(plat, job.load, job.alpha).makespan;
  const double second = cache.allocation(plat, job.load, job.alpha).makespan;
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first, online::predicted_makespan(job, plat));
}

TEST(AllocationCache, AggregateTyingPlatformsDoNotCollide) {
  // Same worker count, same Σ speed, same Σ c — only the per-worker
  // values differ. The intern table compares exact per-worker values,
  // not aggregate sums, so each platform gets its own entry.
  const auto het = platform::Platform::from_speeds({1.0, 3.0});
  const auto hom = platform::Platform::from_speeds({2.0, 2.0});
  const sim::ParallelLinksModel model;
  AllocationCache cache(model);
  const online::Job job{0, 0.0, 100.0, 2.0};
  const double on_het = cache.allocation(het, job.load, job.alpha).makespan;
  const double on_hom = cache.allocation(hom, job.load, job.alpha).makespan;
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(on_hom, online::predicted_makespan(job, hom));
  EXPECT_NE(on_het, on_hom);
}

TEST(AllocationCache, TwoPlatformsCoexistAndMatchTheDirectSolve) {
  const auto big = platform::Platform::homogeneous(8);
  const auto small = platform::Platform::homogeneous(2);
  const sim::ParallelLinksModel model;
  AllocationCache cache(model);
  const double on_big = cache.allocation(big, 100.0, 2.0).makespan;
  const double on_small = cache.allocation(small, 100.0, 2.0).makespan;
  EXPECT_LT(on_big, on_small);  // more workers, shorter round
  EXPECT_EQ(cache.size(), 2u);  // the big-platform entry stays
  EXPECT_EQ(cache.misses(), 2u);
  expect_direct_allocation(cache.allocation(big, 100.0, 2.0), model, big,
                           100.0, 2.0);
  expect_direct_allocation(cache.allocation(small, 100.0, 2.0), model,
                           small, 100.0, 2.0);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(AllocationCache, FillingPastTheCapStaysBoundedAndExact) {
  const auto plat = platform::Platform::from_speeds({1.0, 3.0}, 0.5);
  const sim::BoundedMultiportModel model(1.5);
  AllocationCache cache(model);
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < AllocationCache::kCapacity + extra; ++i) {
    const double load = 1.0 + 0.25 * static_cast<double>(i);
    const double alpha = (i % 2 == 0) ? 1.0 : 2.0;
    const AllocationCache::Replay replay = cache.replay(plat, load, alpha);
    ASSERT_LE(cache.size(), AllocationCache::kCapacity);
    if (i >= AllocationCache::kCapacity) {
      // Answers after the clear are still direct-solve exact.
      expect_direct_replay(replay, model, plat, load, alpha);
      expect_direct_allocation(cache.allocation(plat, load, alpha), model,
                               plat, load, alpha);
    }
  }
  EXPECT_EQ(cache.size(), extra);  // cleared whole once, then refilled
  EXPECT_EQ(cache.misses(), AllocationCache::kCapacity + extra);
}

TEST(AllocationCache, InterleavedSubsetsWithIdenticalWorkersShareAnEntry) {
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  const auto carve = plat.interleaved_partition(2);
  ASSERT_EQ(carve.subsets.size(), 2u);
  const sim::OnePortModel model;
  AllocationCache cache(model);
  const double first =
      cache.allocation(carve.subsets[0], 50.0, 2.0).makespan;
  const double second =
      cache.allocation(carve.subsets[1], 50.0, 2.0).makespan;
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);  // the second subset's lookup is a hit
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AllocationCache, ReplayOnACachedAllocationRunsTheEngineOnce) {
  const auto plat = platform::Platform::from_speeds({1.0, 2.0, 4.0}, 0.3);
  const sim::BoundedMultiportModel model(2.0);
  AllocationCache cache(model);
  (void)cache.allocation(plat, 40.0, 2.0);
  EXPECT_EQ(cache.replays(), 0u);
  const AllocationCache::Replay first = cache.replay(plat, 40.0, 2.0);
  const AllocationCache::Replay second = cache.replay(plat, 40.0, 2.0);
  EXPECT_EQ(cache.replays(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.busy, second.busy);
  expect_direct_replay(first, model, plat, 40.0, 2.0);
}

}  // namespace
}  // namespace nldl::dlt
