#include "spans.hpp"

#include "bench/profile.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace nldl::perfbench {

std::size_t SpanRecorder::begin(std::string_view name) {
  Span span;
  span.name = name;
  span.id = spans_.size();
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start = bench::WallClock::now();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanRecorder::end(std::size_t id) {
  const double now = bench::WallClock::now();
  NLDL_ASSERT(!open_.empty() && open_.back() == id,
              "spans must close innermost first");
  spans_[id].end = now;
  open_.pop_back();
}

SpanTotals SpanRecorder::totals(std::size_t from) const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != kNoParent && span.parent >= from) {
      child_cover[span.parent] += span.duration();
    }
  }
  SpanTotals totals;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto it = totals.find(span.name);
    if (it == totals.end()) {
      it = totals.emplace(std::string(span.name), SpanStat{}).first;
    }
    SpanStat& stat = it->second;
    stat.inclusive_s += span.duration();
    stat.self_s += span.duration() - child_cover[i];
    ++stat.count;
    stat.durations.push_back(span.duration());
  }
  return totals;
}

void SpanRecorder::write_json(std::ostream& out) const {
  // One compact [id, parent, name, start, end] row per line: traced runs
  // hold hundreds of thousands of spans.
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << '[' << span.id << ','
        << (span.parent == kNoParent ? std::string("-1")
                                     : std::to_string(span.parent))
        << ',' << util::json_quote(std::string(span.name)) << ','
        << util::json_number(span.start) << ','
        << util::json_number(span.end) << ']'
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]";
}

}  // namespace nldl::perfbench
