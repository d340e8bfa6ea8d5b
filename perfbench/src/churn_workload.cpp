// churn-window: DynamicMatchers replay a seeded sliding-window stream
// on cit-patents-like. Each round removes one batch of live edges from
// one matcher and re-adds it, so after every round that matcher's live
// graph is the input graph again and its matching must be the maximum.
// Every kCheckEvery rounds the live graph after the removal is
// materialized and checked against Hopcroft-Karp, untimed.
//
// The graph instances are fixed (generator seeds 1..kInstances); the
// run's seed drives each instance's stream and initial matching. Churn
// cost differs between generated cit-patents-like instances by up to
// 2x (3.5k to 7.6k updates/s over ten seeds with seed-generated
// instances), which would drown any change a later commit makes; over fixed
// instances the seed-to-seed spread is about 6%. Several instances,
// served round-robin, keep the workload from resting on one graph.
// Each matcher solves its initial matching on one thread so that its
// cost regime, which churn changes only locally, is a function of the
// seed alone.
#include <stdexcept>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/validate.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace graftmatch;

constexpr const char* kGraph = "cit-patents-like";
constexpr std::size_t kBatch = 64;
constexpr double kWindowFraction = 0.1;
constexpr std::int64_t kCheckEvery = 32;
constexpr int kWarmRounds = 4;
constexpr std::uint64_t kInstances = 4;

/// One churned graph: its input, oracle, edge window and matcher.
struct Instance {
  BipartiteGraph graph;
  std::int64_t maximum = 0;  ///< Hopcroft-Karp oracle of the input graph
  std::vector<Edge> window;
  std::size_t cursor = 0;
  std::unique_ptr<dynamic::DynamicMatcher> matcher;

  std::vector<Edge> next_batch() {
    std::vector<Edge> batch;
    batch.reserve(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      batch.push_back(window[cursor]);
      cursor = (cursor + 1) % window.size();
    }
    return batch;
  }
};

DynamicCounters minus(const DynamicCounters& a, const DynamicCounters& b) {
  DynamicCounters d;
  d.reaugment_searches = a.reaugment_searches - b.reaugment_searches;
  d.reaugment_paths = a.reaugment_paths - b.reaugment_paths;
  d.sweep_rounds = a.sweep_rounds - b.sweep_rounds;
  d.resolves = a.resolves - b.resolves;
  d.compactions = a.compactions - b.compactions;
  d.apply_seconds = a.apply_seconds - b.apply_seconds;
  d.reaugment_seconds = a.reaugment_seconds - b.reaugment_seconds;
  d.compact_seconds = a.compact_seconds - b.compact_seconds;
  d.resolve_seconds = a.resolve_seconds - b.resolve_seconds;
  return d;
}

void accumulate(DynamicCounters& total, const DynamicCounters& d) {
  total.reaugment_searches += d.reaugment_searches;
  total.reaugment_paths += d.reaugment_paths;
  total.sweep_rounds += d.sweep_rounds;
  total.resolves += d.resolves;
  total.compactions += d.compactions;
  total.apply_seconds += d.apply_seconds;
  total.reaugment_seconds += d.reaugment_seconds;
  total.compact_seconds += d.compact_seconds;
  total.resolve_seconds += d.resolve_seconds;
}

/// apply_seconds times the whole batch call; the repair, compaction and
/// re-solve timers run inside it.
double overlay_seconds(const DynamicCounters& d) {
  return d.apply_seconds - d.reaugment_seconds - d.compact_seconds - d.resolve_seconds;
}

/// A batch call's parts, from the counter deltas around it. A staleness
/// re-solve goes through the engine.
std::vector<std::pair<std::string, double>> parts(const DynamicCounters& d) {
  return {{"dynamic.overlay", overlay_seconds(d)},
          {"dynamic.reaugment", d.reaugment_seconds},
          {"dynamic.compact", d.compact_seconds},
          {"engine.resolve", d.resolve_seconds}};
}

class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(const Options& options)
      : options_(options), size_factor_(size_factor(options, 0.25)) {}

  std::string describe() const override {
    return "size_factor=" + std::to_string(size_factor_) + " graph=" + kGraph +
           " instances=" + std::to_string(kInstances) + " (generator seeds 1.." +
           std::to_string(kInstances) + ", stream seed seed*" + std::to_string(kInstances) +
           "+i) batch=" + std::to_string(kBatch) +
           " window_fraction=" + std::to_string(kWindowFraction) + " check_every=" +
           std::to_string(kCheckEvery) +
           " request=DynamicMatcher{solver=graft, init=rgreedy, run.threads=1, "
           "run.seed=stream seed, other fields default} remove_edges(batch) then "
           "add_edges(batch)";
  }

  void setup() override {
    instances_.clear();
    session_ = std::make_unique<SessionContext>();
    gen_s_ = 0.0;
    round_ = 0;
    for (std::uint64_t i = 0; i < kInstances; ++i) {
      const std::uint64_t seed = options_.seed * kInstances + i;
      Instance in;
      const auto t0 = Clock::now();
      in.graph = suite_instance(kGraph).factory(size_factor_, i + 1);
      gen_s_ += seconds_between(t0, Clock::now());
      in.maximum = maximum_matching_cardinality(in.graph);
      // The window: a seeded shuffle of the edge list, cut to a fraction.
      in.window = in.graph.to_edges().edges;
      Xoshiro256 rng(seed);
      for (std::size_t k = in.window.size(); k > 1; --k) {
        std::swap(in.window[rng.below(k)], in.window[k - 1]);
      }
      in.window.resize(std::max(kBatch, static_cast<std::size_t>(
                                            kWindowFraction * static_cast<double>(in.window.size()))));
      dynamic::DynamicConfig config;
      config.run.threads = 1;
      config.run.seed = seed;
      in.matcher = std::make_unique<dynamic::DynamicMatcher>(*session_, in.graph, config);
      for (int r = 0; r < kWarmRounds; ++r) {
        const std::vector<Edge> batch = in.next_batch();
        in.matcher->remove_edges(batch);
        in.matcher->add_edges(batch);
      }
      if (in.matcher->cardinality() != in.maximum) {
        throw std::runtime_error("churn warm-up lost maximality");
      }
      instances_.push_back(std::move(in));
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    remove_ms_.clear();
    add_ms_.clear();
    round_ms_.clear();
    call_s_ = 0.0;
    updates_ = 0;
    delta_ = DynamicCounters{};
    Window window;
    const auto begin = Clock::now();
    while (seconds_between(begin, Clock::now()) < seconds) {
      Instance& in = instances_[round_ % kInstances];
      dynamic::DynamicMatcher& matcher = *in.matcher;
      const std::vector<Edge> batch = in.next_batch();
      const bool audit = ++round_ % kCheckEvery == 0;
      const DynamicCounters c0 = matcher.stats().dynamic;
      const auto t0 = Clock::now();
      matcher.remove_edges(batch);
      const auto t1 = Clock::now();
      const DynamicCounters c1 = matcher.stats().dynamic;
      if (audit) {
        ++window.attempted;
        if (!matches_oracle(matcher)) ++window.failed;
      }
      const auto t2 = Clock::now();
      matcher.add_edges(batch);
      const auto t3 = Clock::now();
      const DynamicCounters c2 = matcher.stats().dynamic;
      ++window.attempted;
      if (matcher.cardinality() != in.maximum) ++window.failed;
      remove_ms_.push_back(seconds_between(t0, t1) * 1e3);
      add_ms_.push_back(seconds_between(t2, t3) * 1e3);
      round_ms_.push_back(remove_ms_.back() + add_ms_.back());
      call_s_ += seconds_between(t0, t1) + seconds_between(t2, t3);
      updates_ += 2 * static_cast<std::int64_t>(batch.size());
      accumulate(delta_, minus(c2, c0));
      if (spans != nullptr) {
        spans->add_with_parts("dynamic.remove_edges", t0, t1, parts(minus(c1, c0)));
        spans->add_with_parts("dynamic.add_edges", t2, t3, parts(minus(c2, c1)));
      }
    }
    // The final state: every live graph is its input graph again.
    for (const Instance& in : instances_) {
      std::int64_t final_cardinality = in.matcher->cardinality();
      if (options_.fault == Fault::kChurnOffByOne) final_cardinality += 1;
      ++window.attempted;
      if (final_cardinality != in.maximum || !matches_oracle(*in.matcher)) ++window.failed;
    }
    window.rate_per_s = ratio(static_cast<double>(updates_), call_s_);
    set_latencies(window, {round_ms_});
    return window;
  }

  void named_metrics(Metrics& report) const override {
    report["churn_updates_per_s"] = {ratio(static_cast<double>(updates_), call_s_), "edges/s"};
    report["churn_batch_p50_ms.remove"] = {percentile(remove_ms_, 0.50), "ms"};
    report["churn_batch_p99_ms.remove"] = {percentile(remove_ms_, 0.99), "ms"};
    report["churn_batch_p50_ms.add"] = {percentile(add_ms_, 0.50), "ms"};
    report["churn_batch_p99_ms.add"] = {percentile(add_ms_, 0.99), "ms"};
    std::vector<double> all = remove_ms_;
    all.insert(all.end(), add_ms_.begin(), add_ms_.end());
    report["churn_batch_p50_ms"] = {percentile(all, 0.50), "ms"};
    report["churn_batch_p99_ms"] = {percentile(all, 0.99), "ms"};
    report["churn_batch_calls"] = {static_cast<double>(all.size()), "count"};
  }

  void layer_metrics(SpanRecorder& spans, Metrics& layer, Metrics& report) override {
    const DynamicCounters& d = delta_;
    layer["dynamic.apply_share"].value = ratio(overlay_seconds(d), call_s_);
    layer["dynamic.reaugment_share"].value = ratio(d.reaugment_seconds, call_s_);
    layer["dynamic.compact_share"].value = ratio(d.compact_seconds, call_s_);
    layer["dynamic.resolve_share"].value = ratio(d.resolve_seconds, call_s_);
    layer["dynamic.paths_per_search"].value =
        ratio(static_cast<double>(d.reaugment_paths), static_cast<double>(d.reaugment_searches));
    layer["dynamic.sweep_rounds"].value =
        ratio(static_cast<double>(d.sweep_rounds), static_cast<double>(add_ms_.size()));
    layer["dynamic.resolves"].value = static_cast<double>(d.resolves);
    layer["dynamic.compactions"].value = static_cast<double>(d.compactions);
    report["dynamic.apply_s"] = {overlay_seconds(d), "s"};
    report["dynamic.reaugment_s"] = {d.reaugment_seconds, "s"};
    report["dynamic.compact_s"] = {d.compact_seconds, "s"};
    report["dynamic.resolve_s"] = {d.resolve_seconds, "s"};

    // Standalone initializer spans on the input graphs, the matchers' seeds.
    RunConfig config;
    config.threads = options_.threads;
    double init_s = 0.0, m0 = 0.0, maximum = 0.0;
    for (std::uint64_t i = 0; i < kInstances; ++i) {
      config.seed = options_.seed * kInstances + i;
      const auto t0 = Clock::now();
      const Matching init =
          engine::make_initial_matching(*session_, "ks", instances_[i].graph, config);
      const auto t1 = Clock::now();
      spans.add("init.make_initial_matching", t0, t1);
      init_s += seconds_between(t0, t1);
      m0 += static_cast<double>(init.cardinality());
      maximum += static_cast<double>(instances_[i].maximum);
    }
    layer["init.s"].value = init_s;
    layer["init.card_frac"].value = ratio(m0, maximum);
  }

  double gen_seconds() const override { return gen_s_; }

 private:
  /// Untimed: the live graph's HK maximum equals the matcher's, and the
  /// matcher's matching is valid on it.
  static bool matches_oracle(const dynamic::DynamicMatcher& matcher) {
    const BipartiteGraph live = matcher.materialize();
    return validate_matching(live, matcher.matching()).empty() &&
           maximum_matching_cardinality(live) == matcher.cardinality();
  }

  Options options_;
  double size_factor_;
  std::unique_ptr<SessionContext> session_;
  std::vector<Instance> instances_;
  std::uint64_t round_ = 0;
  double gen_s_ = 0.0;
  std::vector<double> remove_ms_, add_ms_;
  std::vector<double> round_ms_;  ///< remove + re-add of one batch
  double call_s_ = 0.0;
  std::int64_t updates_ = 0;
  DynamicCounters delta_;  ///< summed over the window's calls
};

}  // namespace

std::unique_ptr<Workload> make_churn_workload(const Options& options) {
  return std::make_unique<ChurnWorkload>(options);
}

}  // namespace perfbench
