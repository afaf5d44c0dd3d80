// Output checks the benchmark applies to every workload's results. A check
// reports how many operations it found wrong; the caller counts them as
// failed operations and keeps running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dlt/nonlinear_dlt.hpp"
#include "linalg/matrix.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "qos/server.hpp"

namespace nldl::perfbench {

/// Relative tolerance on Σ n_i = N for a returned allocation.
inline constexpr double kLoadTolerance = 1e-9;
/// Relative tolerance on the spread of loaded workers' finish times under
/// the parallel model. The solver stops its bisection on T within 1e-10 of
/// the upper bracket, which can sit p^alpha above the root, then rescales
/// every chunk by the load residual; on loads of 1e-3 and up that leaves
/// spreads of at most about 1e-5.
inline constexpr double kFinishTolerance = 1e-4;

/// FNV-1a over the bytes of doubles, in the order they are added.
class Digest {
 public:
  void add(double value) noexcept;
  void add(std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Per-job digest of (dispatch, finish) pairs in record order.
[[nodiscard]] std::uint64_t job_digest(
    const std::vector<online::JobStats>& stats);
[[nodiscard]] std::uint64_t job_digest(
    const std::vector<qos::JobRecord>& records);

/// Jobs without a well-formed record: the records must be one per job in
/// id order, each with arrival <= dispatch <= finish (qos: and admitted).
[[nodiscard]] std::size_t stream_violations(
    const std::vector<online::Job>& jobs,
    const std::vector<online::JobStats>& stats);
[[nodiscard]] std::size_t stream_violations(
    const std::vector<online::Job>& jobs,
    const std::vector<qos::JobRecord>& records);

/// True when `alloc` is a valid allocation of `load` on `platform`: one
/// finite n_i >= 0 per worker, Σ n_i = load within kLoadTolerance and,
/// under the parallel model, equal finish times c_i·n_i + w_i·n_i^alpha
/// within kFinishTolerance over every loaded worker.
[[nodiscard]] bool allocation_ok(const platform::Platform& platform,
                                 double load, double alpha,
                                 const dlt::NonlinearAllocation& alloc,
                                 bool parallel_model);

/// Order-independent fingerprint of a multiset of keys.
struct KeyChecksum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_of_squares = 0;
  std::uint64_t xor_all = 0;

  bool operator==(const KeyChecksum&) const = default;
};
[[nodiscard]] KeyChecksum key_checksum(const std::vector<std::uint64_t>& keys);

/// True when `sorted` is non-decreasing and a permutation of the keys
/// whose checksum is `input`.
[[nodiscard]] bool sorted_permutation_ok(
    const std::vector<std::uint64_t>& sorted, const KeyChecksum& input);

/// Max-abs-difference comparison of a result against its reference.
[[nodiscard]] bool matrix_matches(const linalg::Matrix& result,
                                  const linalg::Matrix& reference,
                                  double tolerance);

}  // namespace nldl::perfbench
