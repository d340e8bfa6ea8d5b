#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::int64_t SpanRecorder::add(std::string name, Clock::time_point start,
                               Clock::time_point end, std::int64_t parent,
                               std::int64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span{std::move(name), start, end, 0, parent, request};
  span.id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::int64_t SpanRecorder::add_with_parts(
    std::string name, Clock::time_point start, Clock::time_point end,
    const std::vector<std::pair<std::string, double>>& parts,
    std::int64_t request) {
  const std::int64_t parent = add(std::move(name), start, end, 0, request);
  Clock::time_point cursor = start;
  for (const auto& [part, seconds] : parts) {
    if (seconds <= 0.0) continue;
    const auto next =
        cursor + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
    add(part, cursor, next, parent, request);
    cursor = next;
  }
  return parent;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

std::unordered_map<std::int64_t, std::vector<const Span*>> children_of(
    const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  return children;
}

/// Length of the union of the children's intervals, clipped to `parent`.
double covered_seconds(const Span& parent,
                       std::vector<const Span*> children) {
  std::sort(children.begin(), children.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  double covered = 0.0;
  Clock::time_point reach = parent.start;
  for (const Span* child : children) {
    const Clock::time_point from = std::max(child->start, reach);
    const Clock::time_point to = std::min(child->end, parent.end);
    if (to > from) {
      covered += seconds_between(from, to);
      reach = to;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, double> SpanRecorder::layer_self_seconds() const {
  const std::vector<Span> all = spans();
  const auto children = children_of(all);
  std::map<std::string, double> self;
  for (const Span& span : all) {
    double seconds = seconds_between(span.start, span.end);
    if (const auto it = children.find(span.id); it != children.end()) {
      seconds -= covered_seconds(span, it->second);
    }
    self[layer_of(span.name)] += std::max(0.0, seconds);
  }
  return self;
}

double SpanRecorder::worst_overrun() const {
  const std::vector<Span> all = spans();
  double worst = 0.0;
  for (const auto& [parent_id, kids] : children_of(all)) {
    const Span& parent = all[static_cast<std::size_t>(parent_id - 1)];
    const double length = seconds_between(parent.start, parent.end);
    if (length <= 0.0) continue;
    double sum = 0.0;
    for (const Span* kid : kids) sum += seconds_between(kid->start, kid->end);
    worst = std::max(worst, (sum - length) / length);
  }
  return worst;
}

std::string SpanRecorder::chrome_trace_json() const {
  const std::vector<Span> all = spans();
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : all) origin = std::min(origin, span.start);
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    const double ts = seconds_between(origin, span.start) * 1e6;
    const double dur = seconds_between(span.start, span.end) * 1e6;
    // One track per request (0 = the driving thread), so a request's
    // spans nest on one row in Perfetto.
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%lld}}%s\n",
                  span.name.c_str(), layer_of(span.name).c_str(),
                  static_cast<long long>(span.request), ts, dur,
                  static_cast<long long>(span.id),
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.request),
                  i + 1 < all.size() ? "," : "");
    out += line;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
