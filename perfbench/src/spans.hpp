// Host-clock spans recorded by the benchmark around each call it makes
// into a library layer.
//
// A span carries a name, start and end (seconds on bench::WallClock), its
// own id and the id of the span that was open when it began. Spans stay in
// memory and are written out once, when the run ends. The untraced run
// hands every call site a null recorder, so it reads no clock for spans.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace nldl::perfbench {

inline constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

struct Span {
  std::string_view name;  ///< always a string literal (static storage)
  double start = 0.0;
  double end = 0.0;
  std::size_t id = 0;
  std::size_t parent = kNoParent;

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Per-name aggregate over a range of spans.
struct SpanStat {
  double inclusive_s = 0.0;  ///< Σ duration
  double self_s = 0.0;       ///< Σ (duration − direct children's coverage)
  std::size_t count = 0;
  std::vector<double> durations;  ///< each span's duration, in order
};

using SpanTotals = std::map<std::string, SpanStat, std::less<>>;

/// Stack-disciplined span store for one caller thread.
class SpanRecorder {
 public:
  /// Open a span under the innermost open span; returns its id.
  std::size_t begin(std::string_view name);
  /// Close the innermost open span, which must be `id`.
  void end(std::size_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Aggregate the closed spans with index >= `from` by name. Self time
  /// subtracts only children inside the same range.
  [[nodiscard]] SpanTotals totals(std::size_t from = 0) const;

  /// Write every span as a JSON array of objects.
  void write_json(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder makes it a no-op that reads no clock.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name) : 0) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

}  // namespace nldl::perfbench
