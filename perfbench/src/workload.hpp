// The workload interface every benchmark workload implements, plus the
// small statistics helpers they share.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Deliberately wrong answers fed to the correctness gate (tests only).
enum class Fault {
  kNone,
  kSolveDropEdge,   ///< drop one matched edge from a solve result
  kServeOffByOne,   ///< served cardinality + 1
  kChurnOffByOne,   ///< churn final cardinality + 1
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs, short windows
  Fault fault = Fault::kNone;
  int threads = 4;     ///< min(4, nproc)
};

/// A named value with its unit, printed in the report and the JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One measured window.
struct Window {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double rate_per_s = 0.0;  ///< the workload's unit of work per second
  double p50_ms = 0.0;      ///< geomean over op kinds of each kind's p50
  double tail_ms = 0.0;     ///< same, at each kind's tail_quantile
  double tail_q = 0.0;      ///< the lowest tail quantile used
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Size factor and the request config the workload actually sends.
  virtual std::string describe() const = 0;
  /// Generate inputs, compute oracles, warm up. May run several times;
  /// the last call's state is the one measured.
  virtual void setup() = 0;
  /// Run for `seconds`, checking every output outside the timed calls.
  /// `spans` is non-null on the traced pass.
  virtual Window measure(double seconds, SpanRecorder* spans) = 0;
  /// Per-layer metrics from the last measured window, plus traced-only
  /// probes (standalone initializer spans, a one-thread pass). Adds
  /// human-readable lines (the descriptive metric names, in their units)
  /// to `report`. Every key of per_layer_names() must be filled.
  virtual void layer_metrics(SpanRecorder& spans, Metrics& layer,
                             Metrics& report) = 0;
  /// Workload-specific end-to-end values under their descriptive names
  /// (solve_meps, serve_light_p99_ms, ...), from the last window.
  virtual void named_metrics(Metrics& report) const = 0;
  /// Seconds spent generating inputs in the last setup().
  virtual double gen_seconds() const = 0;
};

std::unique_ptr<Workload> make_solve_workload(const Options& options,
                                              bool mesh);
std::unique_ptr<Workload> make_serve_workload(const Options& options);
std::unique_ptr<Workload> make_churn_workload(const Options& options);

/// Linear-interpolated percentile of an unsorted sample (p in [0, 1]).
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Failed requests enter as +inf; never multiply an infinite gap by 0.
  if (frac == 0.0) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// The workload's size factor: tiny in smoke mode.
inline double size_factor(const Options& options, double workload_default) {
  return options.smoke ? 0.01 : workload_default;
}

inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// The highest percentile of n samples with at least ten samples beyond
/// it, capped at p99 (reached from 1000 samples).
inline double tail_quantile(std::size_t n) {
  return std::clamp(1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 1)), 0.5, 0.99);
}

/// Sets the window's p50 and tail from each op kind's latencies,
/// combined by geometric mean over the kinds. A percentile of a mix of
/// differently-sized operations would land on the boundary between them.
inline void set_latencies(Window& window,
                          const std::vector<std::vector<double>>& latencies_by_kind) {
  std::vector<double> p50s, tails;
  window.tail_q = 0.99;
  for (const auto& kind : latencies_by_kind) {
    if (kind.empty()) continue;
    const double q = tail_quantile(kind.size());
    p50s.push_back(percentile(kind, 0.50));
    tails.push_back(percentile(kind, q));
    window.tail_q = std::min(window.tail_q, q);
  }
  window.p50_ms = geomean(p50s);
  window.tail_ms = geomean(tails);
}

/// The median, over consecutive slices of at least `min_slice` samples
/// of `ordered` (kept in arrival order), of each slice's percentile at
/// q. A host stall that lasts a few seconds moves the slices it falls in,
/// not the median over them; a change that moves every slice moves it.
/// Below two slices' worth it is the plain percentile.
inline double sliced_percentile(const std::vector<double>& ordered, double q,
                                std::size_t min_slice) {
  const std::size_t slices = ordered.size() / std::max<std::size_t>(min_slice, 1);
  if (slices < 2) return percentile(ordered, q);
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(k * ordered.size() / slices);
    const auto last = ordered.begin() + static_cast<std::ptrdiff_t>((k + 1) * ordered.size() / slices);
    per_slice.push_back(percentile(std::vector<double>(first, last), q));
  }
  return percentile(per_slice, 0.5);
}

/// The per-layer metric names and units, in report order. Workloads
/// that do not exercise a layer report 0 for its metrics. Layer times
/// are shares of the enclosing call so that a layer a workload never
/// enters reads 0 as a ratio, not as a constant time.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

}  // namespace perfbench
