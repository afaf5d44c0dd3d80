#include "obs/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace nldl::obs {

namespace {

ValidationResult fail(std::size_t index, const std::string& what) {
  ValidationResult result;
  result.ok = false;
  result.error = "traceEvents[" + std::to_string(index) + "]: " + what;
  return result;
}

/// A leaf as the diff report prints it; containers by kind and size.
std::string describe(const util::JsonValue* value) {
  if (value == nullptr) return "(missing)";
  char buffer[32];
  switch (value->kind) {
    case util::JsonValue::Kind::kNull:
      return "null";
    case util::JsonValue::Kind::kBool:
      return value->boolean ? "true" : "false";
    case util::JsonValue::Kind::kNumber:
      std::snprintf(buffer, sizeof(buffer), "%.17g", value->number);
      return buffer;
    case util::JsonValue::Kind::kString:
      return "\"" + value->string + "\"";
    case util::JsonValue::Kind::kArray:
      return "array of " + std::to_string(value->array.size());
    case util::JsonValue::Kind::kObject:
      return "object of " + std::to_string(value->object.size());
  }
  return "?";
}

/// Leaf-by-leaf comparison of two payload trees. Object members pair by
/// key, array elements by index; a member or element present on one side
/// only, or a pair of different kinds, counts as one differing leaf.
struct PayloadDiff {
  std::size_t leaves = 0;     ///< leaves compared
  std::size_t differing = 0;  ///< of which differ
  std::size_t integral = 0;   ///< differing numbers, both integers
  double max_relative = 0.0;  ///< over differing numbers
  std::string first;          ///< "path: a vs b" of the first difference

  void walk(const util::JsonValue* a, const util::JsonValue* b,
            const std::string& path) {
    if (a != nullptr && b != nullptr && a->kind == b->kind) {
      if (a->is_object()) {
        for (const auto& [key, value] : a->object) {
          walk(&value, b->find(key), path + "." + key);
        }
        for (const auto& [key, value] : b->object) {
          if (a->find(key) == nullptr) walk(nullptr, &value, path + "." + key);
        }
        return;
      }
      if (a->is_array()) {
        const std::size_t n = std::max(a->array.size(), b->array.size());
        for (std::size_t i = 0; i < n; ++i) {
          walk(i < a->array.size() ? &a->array[i] : nullptr,
               i < b->array.size() ? &b->array[i] : nullptr,
               path + "[" + std::to_string(i) + "]");
        }
        return;
      }
    }
    ++leaves;
    if (a != nullptr && b != nullptr && *a == *b) return;
    if (differing++ == 0) {
      first = path + ": " + describe(a) + " vs " + describe(b);
    }
    if (a == nullptr || b == nullptr || !a->is_number() || !b->is_number()) {
      return;
    }
    const double scale = std::max(std::abs(a->number), std::abs(b->number));
    max_relative =
        std::max(max_relative, std::abs(a->number - b->number) / scale);
    if (std::trunc(a->number) == a->number &&
        std::trunc(b->number) == b->number) {
      ++integral;
    }
  }
};

}  // namespace

ValidationResult validate_chrome_trace(const util::JsonValue& document) {
  ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "document root is not an object";
    return result;
  }
  const util::JsonValue* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    result.ok = false;
    result.error = "missing \"traceEvents\" array";
    return result;
  }

  // Open B/E nesting depth per (pid, tid) track, insertion-ordered.
  std::vector<std::pair<std::pair<double, double>, std::size_t>> depth;
  const auto track_depth = [&depth](double pid,
                                    double tid) -> std::size_t& {
    for (auto& [key, open] : depth) {
      if (key.first == pid && key.second == tid) return open;  // nldl-lint: allow(double-eq): pid/tid are integral JSON ids parsed as double
    }
    depth.push_back({{pid, tid}, 0});
    return depth.back().second;
  };

  double last_ts = 0.0;
  bool saw_timed = false;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const util::JsonValue& event = events->array[i];
    if (!event.is_object()) return fail(i, "not an object");

    const util::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(i, "missing string \"name\"");
    }
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return fail(i, "missing one-character \"ph\"");
    }
    const char phase = ph->string[0];
    if (phase != 'M' && phase != 'X' && phase != 'B' && phase != 'E' &&
        phase != 'i' && phase != 'C' && phase != 's' && phase != 't' &&
        phase != 'f') {
      return fail(i, std::string("unsupported phase '") + phase + "'");
    }
    const util::JsonValue* pid = event.find("pid");
    const util::JsonValue* tid = event.find("tid");
    if (pid == nullptr || !pid->is_number()) {
      return fail(i, "missing numeric \"pid\"");
    }
    if (tid == nullptr || !tid->is_number()) {
      return fail(i, "missing numeric \"tid\"");
    }
    ++result.events;
    if (phase == 'M') continue;  // metadata carries no timeline position

    const util::JsonValue* ts = event.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(i, "missing numeric \"ts\"");
    }
    if (saw_timed && ts->number < last_ts) {
      return fail(i, "timestamp " + util::json_number(ts->number) +
                         " decreases below " + util::json_number(last_ts));
    }
    last_ts = ts->number;
    saw_timed = true;

    if (phase == 'X') {
      const util::JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
        return fail(i, "\"X\" event without non-negative \"dur\"");
      }
    } else if (phase == 'B') {
      ++track_depth(pid->number, tid->number);
    } else if (phase == 'E') {
      std::size_t& open = track_depth(pid->number, tid->number);
      if (open == 0) return fail(i, "\"E\" without matching \"B\" on track");
      --open;
    }
  }
  for (const auto& [key, open] : depth) {
    if (open != 0) {
      result.ok = false;
      result.error = "track pid=" + util::json_number(key.first) +
                     " tid=" + util::json_number(key.second) + " has " +
                     std::to_string(open) + " unclosed \"B\" event(s)";
      return result;
    }
  }
  return result;
}

ValidationResult validate_chrome_trace_text(std::string_view text) {
  try {
    return validate_chrome_trace(util::parse_json(text));
  } catch (const util::PreconditionError& error) {
    ValidationResult result;
    result.ok = false;
    result.error = error.what();
    return result;
  }
}

std::vector<TraceEvent> events_from_chrome_trace(
    const util::JsonValue& document) {
  NLDL_REQUIRE(document.is_object(), "trace document root is not an object");
  const util::JsonValue* entries = document.find("traceEvents");
  NLDL_REQUIRE(entries != nullptr && entries->is_array(),
               "trace document has no \"traceEvents\" array");

  constexpr double kSecondsPerMicro = 1e-6;
  constexpr double kPathPid = 4.0;
  const auto number_or = [](const util::JsonValue* node, double fallback) {
    return node != nullptr && node->is_number() ? node->number : fallback;
  };
  const auto index_arg = [&](const util::JsonValue& args, const char* key) {
    const util::JsonValue* node = args.find(key);
    if (node == nullptr || !node->is_number()) return kNoIndex;
    return static_cast<std::size_t>(node->number);
  };

  std::vector<TraceEvent> out;
  // Open kJob B events per jobs-track tid, in first-open order.
  std::vector<std::pair<double, TraceEvent>> open_jobs;
  for (const util::JsonValue& entry : entries->array) {
    NLDL_REQUIRE(entry.is_object(), "trace event is not an object");
    const util::JsonValue* ph = entry.find("ph");
    NLDL_REQUIRE(ph != nullptr && ph->is_string() && ph->string.size() == 1,
                 "trace event without a one-character \"ph\"");
    const char phase = ph->string[0];
    if (phase == 'M' || phase == 's' || phase == 't' || phase == 'f') {
      continue;
    }
    if (number_or(entry.find("pid"), 0.0) == kPathPid) continue;  // nldl-lint: allow(double-eq): pid is an integral JSON id parsed as double

    const util::JsonValue* name = entry.find("name");
    NLDL_REQUIRE(name != nullptr && name->is_string(),
                 "trace event without a string \"name\"");
    EventKind kind = EventKind::kTransfer;
    NLDL_REQUIRE(event_kind_from_string(name->string, kind),
                 "trace event with unknown name '" + name->string + "'");

    TraceEvent event;
    event.kind = kind;
    event.start = number_or(entry.find("ts"), 0.0) * kSecondsPerMicro;
    event.end = event.start;
    if (phase == 'X') {
      event.end =
          event.start + number_or(entry.find("dur"), 0.0) * kSecondsPerMicro;
    }
    const util::JsonValue* args = entry.find("args");
    if (args != nullptr && args->is_object()) {
      event.worker = index_arg(*args, "worker");
      event.job = index_arg(*args, "job");
      event.tenant = index_arg(*args, "tenant");
      event.size = number_or(args->find("size"), 0.0);
      event.alpha = number_or(args->find("alpha"), 0.0);
      event.value = number_or(args->find("value"), 0.0);
    }

    if (phase == 'B') {
      NLDL_REQUIRE(kind == EventKind::kJob, "non-job \"B\" event");
      open_jobs.emplace_back(number_or(entry.find("tid"), 0.0), event);
    } else if (phase == 'E') {
      const double tid = number_or(entry.find("tid"), 0.0);
      bool matched = false;
      for (std::size_t i = open_jobs.size(); i-- > 0;) {
        if (open_jobs[i].first == tid) {  // nldl-lint: allow(double-eq): tid is an integral JSON id parsed as double
          TraceEvent job = open_jobs[i].second;
          job.end = event.start;
          out.push_back(job);
          open_jobs.erase(open_jobs.begin() +
                          static_cast<std::ptrdiff_t>(i));
          matched = true;
          break;
        }
      }
      NLDL_REQUIRE(matched, "\"E\" event without a matching \"B\"");
    } else {
      out.push_back(event);
    }
  }
  NLDL_REQUIRE(open_jobs.empty(), "unclosed \"B\" event in trace");
  return out;
}

ValidationResult validate_metrics_json(const util::JsonValue& document) {
  ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "metrics document root is not an object";
    return result;
  }
  for (const auto& [key, value] : document.object) {
    const auto bad = [&result, &key](const std::string& what) {
      result.ok = false;
      result.error = "metric '" + key + "': " + what;
      return result;
    };
    if (value.is_number()) {
      ++result.events;
      continue;
    }
    if (!value.is_object()) return bad("neither a number nor a quantile");
    const util::JsonValue* q = value.find("q");
    if (q == nullptr || !q->is_number() || !(q->number > 0.0) ||
        !(q->number < 1.0)) {
      return bad("quantile without a \"q\" in (0, 1)");
    }
    const util::JsonValue* count = value.find("count");
    if (count == nullptr || !count->is_number() || count->number < 0.0) {
      return bad("quantile without a non-negative \"count\"");
    }
    const util::JsonValue* estimate = value.find("value");
    if (count->number > 0.0) {
      if (estimate == nullptr || !estimate->is_number()) {
        return bad("non-empty quantile without a numeric \"value\"");
      }
    } else if (estimate != nullptr) {
      return bad("empty quantile carries a \"value\"");
    }
    ++result.events;
  }
  return result;
}

ValidationResult compare_deterministic_payload(const util::JsonValue& a,
                                               const util::JsonValue& b) {
  ValidationResult result;
  const util::JsonValue* payload_a = a.find("deterministic");
  const util::JsonValue* payload_b = b.find("deterministic");
  if (payload_a == nullptr || payload_b == nullptr) {
    result.ok = false;
    result.error = "document without a \"deterministic\" payload";
    return result;
  }
  PayloadDiff diff;
  diff.walk(payload_a, payload_b, "deterministic");
  result.events = diff.leaves;
  if (!(*payload_a == *payload_b)) {
    result.ok = false;
    if (diff.differing == 0) {
      result.error = "deterministic payloads differ in member order";
      return result;
    }
    char numbers[160];
    std::snprintf(numbers, sizeof(numbers),
                  "%zu of %zu leaves differ (%zu integral), max relative "
                  "difference %.3g",
                  diff.differing, diff.leaves, diff.integral,
                  diff.max_relative);
    result.error = "deterministic payloads differ: " + std::string(numbers) +
                   "; first at " + diff.first;
  }
  return result;
}

}  // namespace nldl::obs
