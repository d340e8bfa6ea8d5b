// graftbench: the repository benchmark. Runs one named workload at a
// seed, checks every output, prints a run header, a report of named
// metrics with units, and as its last stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Untraced runs (--trace 0) carry the end-to-end metrics; traced runs
// (--trace 1) the per-layer metrics, plus a Chrome trace_event file and
// a per-layer self-time table.
//
//   graftbench --workload solve-mesh --seed 1 --seconds 10 --trace 0
//              [--smoke] [--inject FAULT] [--trace-out FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/system_info.hpp"
#include "workload.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"gen.s", "s"},
      {"init.s", "s"},
      {"init.card_frac", "ratio"},
      {"reduce.share", "ratio"},
      {"reduce.removed_frac", "ratio"},
      {"shard.share", "ratio"},
      {"shard.blocks_solved", "count"},
      {"core.share", "ratio"},
      {"core.phases", "count"},
      {"core.edges", "count"},
      {"core.mteps", "Medges/s"},
      {"core.top_down_share", "ratio"},
      {"core.bottom_up_share", "ratio"},
      {"core.augment_share", "ratio"},
      {"core.graft_share", "ratio"},
      {"core.statistics_share", "ratio"},
      {"core.other_share", "ratio"},
      {"engine.levels", "count"},
      {"engine.levels_per_s", "1/s"},
      {"engine.bottom_up_frac", "ratio"},
      {"engine.speedup_vs_1t", "ratio"},
      {"serve.roster_load_share", "ratio"},
      {"serve.light.wait_share", "ratio"},
      {"serve.light.batch_mean", "count"},
      {"serve.light.coalesced_frac", "ratio"},
      {"serve.light.rejected", "count"},
      {"serve.light.expired", "count"},
      {"serve.light.gen_lag_p99_gaps", "ratio"},
      {"serve.heavy.wait_share", "ratio"},
      {"serve.heavy.batch_mean", "count"},
      {"serve.heavy.coalesced_frac", "ratio"},
      {"serve.heavy.rejected", "count"},
      {"serve.heavy.expired", "count"},
      {"serve.heavy.gen_lag_p99_gaps", "ratio"},
      {"dynamic.apply_share", "ratio"},
      {"dynamic.reaugment_share", "ratio"},
      {"dynamic.compact_share", "ratio"},
      {"dynamic.resolve_share", "ratio"},
      {"dynamic.paths_per_search", "ratio"},
      {"dynamic.sweep_rounds", "count"},
      {"dynamic.resolves", "count"},
      {"dynamic.compactions", "count"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.spans", "count"},
      {"obs.span_overrun_frac", "ratio"},
  };
  return names;
}

namespace {

/// Children of a span may exceed it by at most this share before the
/// self-time accounting is reported as broken.
constexpr double kSpanTolerance = 0.02;
constexpr int kSetupRepeats = 3;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "graftbench: %s\nusage: graftbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--inject "
               "solve-drop-edge|serve-off-by-one|churn-off-by-one] "
               "[--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& trace_out) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--inject") {
        const std::string fault = value();
        if (fault == "solve-drop-edge") options.fault = Fault::kSolveDropEdge;
        else if (fault == "serve-off-by-one") options.fault = Fault::kServeOffByOne;
        else if (fault == "churn-off-by-one") options.fault = Fault::kChurnOffByOne;
        else usage("unknown fault " + fault);
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.threads = static_cast<int>(std::clamp(nproc, 1L, 4L));
  return options;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "solve-mesh") return make_solve_workload(options, true);
  if (options.workload == "solve-skewed") return make_solve_workload(options, false);
  if (options.workload == "serve-zipf") return make_serve_workload(options);
  if (options.workload == "churn-window") return make_churn_workload(options);
  usage("unknown workload " + options.workload);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

#if defined(__has_feature)
#define PERFBENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define PERFBENCH_HAS_FEATURE(x) 0
#endif

/// The sanitizers this translation unit was compiled with, from the
/// compiler's own macros (GCC: __SANITIZE_*__; Clang: __has_feature), so
/// flags passed any way (CMAKE_CXX_FLAGS too) are seen. GCC defines no
/// macro for UBSan alone.
std::string compiled_sanitizers() {
  std::string list;
  [[maybe_unused]] auto add = [&](const char* name) {
    list += (list.empty() ? "" : ",") + std::string(name);
  };
#if defined(__SANITIZE_ADDRESS__) || PERFBENCH_HAS_FEATURE(address_sanitizer)
  add("address");
#endif
#if defined(__SANITIZE_THREAD__) || PERFBENCH_HAS_FEATURE(thread_sanitizer)
  add("thread");
#endif
#if PERFBENCH_HAS_FEATURE(memory_sanitizer)
  add("memory");
#endif
#if PERFBENCH_HAS_FEATURE(undefined_behavior_sanitizer)
  add("undefined");
#endif
  return list;
}

/// Whether the compiler optimized this translation unit with asserts off.
constexpr bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// JSON has no infinities; a non-finite value (a percentile over failed
/// requests) is written as -1 and only ever appears with correct=false.
std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : -1.0);
  return buffer;
}

void print_metrics(const char* heading, const Metrics& metrics) {
  std::printf("%s\n", heading);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

/// Untraced: one window of the full length; the end-to-end metrics.
Window run_untraced(const Options& options, Workload& workload,
                    const std::vector<double>& setup_s, Metrics& json, Metrics& report) {
  const Window window = workload.measure(options.seconds, nullptr);
  const double fail_frac =
      ratio(static_cast<double>(window.failed), static_cast<double>(window.attempted));
  json["setup_s"] = {percentile(setup_s, 0.5), "s"};
  json["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  json["ok_frac"] = {1.0 - fail_frac, "ratio"};
  json["rate_per_s"] = {window.rate_per_s, "1/s"};
  json["p50_ms"] = {window.p50_ms, "ms"};
  json["tail_ms"] = {window.tail_ms, "ms"};
  report["fail_frac"] = {fail_frac, "ratio"};
  report["tail_quantile"] = {window.tail_q, "ratio"};
  workload.named_metrics(report);
  return window;
}

/// Traced: an untraced half and a traced half, each from a fresh set-up
/// of the same seed, so both see the same inputs and state; the
/// per-layer metrics, the self-time table and the Chrome trace.
Window run_traced(const Options& options, Workload& workload, double gen_s,
                  const std::string& trace_out, Metrics& json, Metrics& report) {
  const Window plain = workload.measure(options.seconds / 2, nullptr);
  workload.setup();
  SpanRecorder spans;
  Window window = workload.measure(options.seconds / 2, &spans);
  window.attempted += plain.attempted;
  window.failed += plain.failed;
  for (const auto& [name, unit] : per_layer_names()) json[name] = {0.0, unit};
  workload.layer_metrics(spans, json, report);
  const double overrun = std::max(0.0, spans.worst_overrun());
  json["gen.s"].value = gen_s;
  json["obs.trace_overhead_frac"].value = ratio(window.p50_ms, plain.p50_ms) - 1.0;
  json["obs.spans"].value = static_cast<double>(spans.spans().size());
  json["obs.span_overrun_frac"].value = overrun;
  report["fail_frac"] = {ratio(static_cast<double>(window.failed),
                               static_cast<double>(window.attempted)), "ratio"};
  workload.named_metrics(report);

  std::printf("layer self time (traced half, %.3g s; children may exceed a "
              "parent by at most %.0f%%):\n",
              options.seconds / 2, kSpanTolerance * 100);
  const auto self = spans.layer_self_seconds();
  double total = 0.0;
  for (const auto& [layer, seconds] : self) total += seconds;
  for (const auto& [layer, seconds] : self) {
    std::printf("  %-10s %12.6f s  %6.2f%%\n", layer.c_str(), seconds,
                100.0 * ratio(seconds, total));
  }
  if (overrun > kSpanTolerance) {
    std::printf("  WARNING: child spans exceed a parent by %.2f%%\n", 100.0 * overrun);
  }
  if (!trace_out.empty()) {
    std::ofstream(trace_out) << spans.chrome_trace_json();
    std::printf("chrome trace: %s\n", trace_out.c_str());
  }
  return window;
}

/// The contract's last stdout line.
std::string result_line(const Window& window, const Metrics& json) {
  std::string line = "{\"correct\": " + std::string(window.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(window.attempted) +
                     ", \"failed\": " + std::to_string(window.failed) + ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, metric] : json) {
    line += separator + ("\"" + name + "\": {\"value\": ") + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    separator = ", ";
  }
  return line + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string trace_out;
  const Options options = parse(argc, argv, trace_out);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizer = compiled_sanitizers();
  std::unique_ptr<Workload> workload = make_workload(options);

  const graftmatch::SystemInfo system = graftmatch::query_system_info();
  std::printf("# graftbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0);
  std::printf("# nproc=%d threads=%d cpu=\"%s\" compiler=\"%s\"\n", system.logical_cpus,
              options.threads, system.cpu_model.c_str(), system.compiler.c_str());
  std::printf("# build_type=%s optimized=%d sanitizer=%s graftmatch_trace_compiled=%d "
              "graftmatch_trace_armed=%d\n",
              build_type.c_str(), optimized_build() ? 1 : 0,
              sanitizer.empty() ? "none" : sanitizer.c_str(),
              GRAFTMATCH_TRACE_ENABLED,
              graftmatch::ambient_session().trace().armed() ? 1 : 0);
  std::printf("# config %s\n", workload->describe().c_str());
  std::fflush(stdout);
  if (!options.smoke &&
      (build_type != "Release" || !optimized_build() || !sanitizer.empty())) {
    std::fprintf(stderr, "graftbench: refusing to report timings from a %s build "
                         "(optimized=%d) with sanitizer '%s'; use a plain Release build\n",
                 build_type.c_str(), optimized_build() ? 1 : 0, sanitizer.c_str());
    return 2;
  }

  try {
    // Set-up: repeated, median reported, so work moved into set-up shows.
    std::vector<double> setup_s;
    double gen_s = 0.0;
    const int repeats = options.smoke ? 1 : kSetupRepeats;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      workload->setup();
      setup_s.push_back(seconds_between(t0, Clock::now()));
      gen_s = workload->gen_seconds();
    }

    Metrics report, json;
    const Window window =
        options.trace ? run_traced(options, *workload, gen_s, trace_out, json, report)
                      : run_untraced(options, *workload, setup_s, json, report);
    print_metrics("report:", report);
    print_metrics(options.trace ? "per-layer:" : "end-to-end:", json);
    std::printf("%s\n", result_line(window, json).c_str());
    return window.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graftbench: %s\n", e.what());
    return 3;
  }
}
