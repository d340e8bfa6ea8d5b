// In-memory span recorder for traced benchmark runs.
//
// Spans are recorded by the benchmark around each public library call
// (engine::run, one served request, one DynamicMatcher batch). Where the
// library's return value already splits that call into parts (RunStats
// reduce/shard/solve seconds, MatchResponse::seconds, DynamicCounters),
// the parts become child spans laid end to end from the parent's start,
// so each layer's self time is the parent's duration minus what its
// children cover. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;  ///< "<layer>.<what>" or just "<layer>"
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 = root
  std::int64_t request = 0;  ///< shared by every span of one request
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

class SpanRecorder {
 public:
  /// Record a span; returns its id (ids start at 1). Thread-safe.
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = 0,
                   std::int64_t request = 0);

  /// Record a parent span plus children of the given durations (seconds),
  /// laid end to end from the parent's start. Returns the parent id.
  std::int64_t add_with_parts(
      std::string name, Clock::time_point start, Clock::time_point end,
      const std::vector<std::pair<std::string, double>>& parts,
      std::int64_t request = 0);

  std::vector<Span> spans() const;

  /// Self seconds per layer: each span's duration minus the union of its
  /// children's intervals (clipped to the span).
  std::map<std::string, double> layer_self_seconds() const;

  /// Largest (sum of children - parent) / parent over all parents; 0 when
  /// every parent accounts for its children. Positive values mean the
  /// reported parts double-count the enclosing call.
  double worst_overrun() const;

  /// Chrome trace_event JSON (complete "X" events, microseconds), as
  /// loaded by Perfetto or chrome://tracing.
  std::string chrome_trace_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
