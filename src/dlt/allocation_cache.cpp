#include "dlt/allocation_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace nldl::dlt {

std::size_t AllocationCache::intern(const platform::Platform& platform) {
  // Exact identity: the bit patterns of every worker's (c, w).
  const auto same_worker = [](const platform::Processor& a,
                              const platform::Processor& b) {
    using Bits = std::array<std::uint64_t, 2>;  // bit_cast checks the size
    return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
  };
  const std::vector<platform::Processor>& workers = platform.workers();
  const auto same = [&](const std::vector<platform::Processor>& known) {
    return std::equal(known.begin(), known.end(), workers.begin(),
                      workers.end(), same_worker);
  };
  std::size_t index = 0;
  while (index < platforms_.size() && !same(platforms_[index])) ++index;
  if (index == platforms_.size()) platforms_.push_back(workers);
  return index;
}

AllocationCache::Entry& AllocationCache::lookup(
    const platform::Platform& platform, double load, double alpha) {
  // Also keeps NaN out of the key, which would break the map's ordering.
  NLDL_REQUIRE(load >= 0.0 && alpha >= 1.0,
               "allocation keys need load >= 0 and alpha >= 1");
  const auto it = entries_.find({intern(platform), load, alpha});
  if (it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  // Solve before evicting, so a throwing solve leaves the memo intact.
  Entry entry{
      nonlinear_single_round_for(model_.kind(), platform, load, alpha)};
  if (entries_.size() >= kCapacity) {
    entries_.clear();
    platforms_.clear();
  }
  return entries_.emplace(std::tuple{intern(platform), load, alpha},
                          std::move(entry))
      .first->second;
}

AllocationCache::Replay AllocationCache::replay(
    const platform::Platform& platform, double load, double alpha) {
  Entry& entry = lookup(platform, load, alpha);
  if (!entry.replay) {
    ++replays_;
    const sim::SimResult result = sim::Engine(platform, {alpha})
                                      .run(entry.allocation.to_schedule(),
                                           model_);
    entry.replay = Replay{result.makespan, 0.0};
    for (const double t : result.worker_compute_time) entry.replay->busy += t;
  }
  return *entry.replay;
}

}  // namespace nldl::dlt
