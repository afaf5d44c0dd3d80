#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace nldl::perfbench {

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

void Digest::add(std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

std::uint64_t job_digest(const std::vector<online::JobStats>& stats) {
  Digest digest;
  for (const online::JobStats& job : stats) {
    digest.add(job.dispatch);
    digest.add(job.finish);
  }
  return digest.value();
}

std::uint64_t job_digest(const std::vector<qos::JobRecord>& records) {
  Digest digest;
  for (const qos::JobRecord& record : records) {
    digest.add(record.dispatch);
    digest.add(record.finish);
  }
  return digest.value();
}

namespace {

bool record_ok(const online::Job& expected, const online::Job& got,
               double dispatch, double finish) {
  return got.id == expected.id && got.arrival <= dispatch &&
         dispatch <= finish && std::isfinite(finish);
}

template <typename Record, typename Ok>
std::size_t count_violations(const std::vector<online::Job>& jobs,
                             const std::vector<Record>& records, Ok ok) {
  std::size_t bad = jobs.size() > records.size()
                        ? jobs.size() - records.size()
                        : records.size() - jobs.size();
  const std::size_t n = std::min(jobs.size(), records.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok(jobs[i], records[i])) ++bad;
  }
  return bad;
}

}  // namespace

std::size_t stream_violations(const std::vector<online::Job>& jobs,
                              const std::vector<online::JobStats>& stats) {
  return count_violations(
      jobs, stats, [](const online::Job& job, const online::JobStats& s) {
        return record_ok(job, s.job, s.dispatch, s.finish);
      });
}

std::size_t stream_violations(const std::vector<online::Job>& jobs,
                              const std::vector<qos::JobRecord>& records) {
  return count_violations(
      jobs, records, [](const online::Job& job, const qos::JobRecord& r) {
        return r.admitted && record_ok(job, r.job, r.dispatch, r.finish);
      });
}

bool allocation_ok(const platform::Platform& platform, double load,
                   double alpha, const dlt::NonlinearAllocation& alloc,
                   bool parallel_model) {
  if (alloc.amounts.size() != platform.size()) return false;
  double sum = 0.0;
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = 0.0;
  for (std::size_t i = 0; i < platform.size(); ++i) {
    const double n = alloc.amounts[i];
    if (!std::isfinite(n) || n < 0.0) return false;
    sum += n;
    if (n > 0.0) {
      const double finish =
          platform.c(i) * n + platform.w(i) * std::pow(n, alpha);
      t_min = std::min(t_min, finish);
      t_max = std::max(t_max, finish);
    }
  }
  if (!(std::fabs(sum - load) <= kLoadTolerance * load)) return false;
  if (parallel_model && t_max > 0.0) {
    return t_max - t_min <= kFinishTolerance * t_max;
  }
  return true;
}

KeyChecksum key_checksum(const std::vector<std::uint64_t>& keys) {
  KeyChecksum checksum;
  for (const std::uint64_t key : keys) {
    ++checksum.count;
    checksum.sum += key;
    checksum.sum_of_squares += key * key;
    checksum.xor_all ^= key;
  }
  return checksum;
}

bool sorted_permutation_ok(const std::vector<std::uint64_t>& sorted,
                           const KeyChecksum& input) {
  return std::is_sorted(sorted.begin(), sorted.end()) &&
         key_checksum(sorted) == input;
}

bool matrix_matches(const linalg::Matrix& result,
                    const linalg::Matrix& reference, double tolerance) {
  return result.rows() == reference.rows() &&
         result.cols() == reference.cols() &&
         result.max_abs_diff(reference) <= tolerance;
}

}  // namespace nldl::perfbench
