// solve-mesh / solve-skewed: time to a verified maximum matching after
// Karp-Sipser initialization, the paper's measurement, through the
// canonical engine::run entry (d1 reduction, DM sharding) on a warm
// session.
#include <stdexcept>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/verify/validate.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace graftmatch;

/// The graphs are fixed instances; the run seed drives the Karp-Sipser
/// initializer's random choices, so it picks where the solve starts.
/// Solve cost differs between generated instances of one class about as
/// much as between runs of one instance, which made the per-seed spread
/// as wide as the bound.
constexpr std::uint64_t kGraphSeed = 1;

struct Input {
  std::string name;
  BipartiteGraph graph;
  std::int64_t maximum = 0;  ///< Hopcroft-Karp oracle, computed at setup
};

/// Sums over the engine::run calls of one window.
struct SolveTotals {
  std::vector<std::vector<double>> latency_ms;  ///< per graph
  std::vector<double> median_s;                 ///< per graph, set at end
  double wall_s = 0.0;
  double edges = 0.0;  ///< input edges solved
  double reduce_s = 0.0, shard_s = 0.0, core_s = 0.0;
  double removed = 0.0, vertices = 0.0;
  double blocks_solved = 0.0, phases = 0.0, traversed = 0.0;
  // RunStats carries direction counters only from a whole-graph solve
  // (shard fallback); DM block solves do not fold them in. So levels
  // and the core time they are divided by come from those calls alone.
  double levels = 0.0, bottom_up_levels = 0.0, level_core_s = 0.0;
  std::int64_t level_calls = 0;
  StepSeconds steps;
  std::int64_t calls = 0;
};

class SolveWorkload final : public Workload {
 public:
  SolveWorkload(const Options& options, bool mesh)
      : options_(options),
        names_(mesh ? std::vector<std::string>{"delaunay-like",
                                               "road_usa-like"}
                    : std::vector<std::string>{"rmat-like",
                                               "cit-patents-like",
                                               "wb-edu-like"}),
        size_factor_(size_factor(options, mesh ? 0.1 : 0.5)) {
    config_.threads = options.threads;
    config_.seed = options.seed;
    config_.reduce = ReduceMode::kDegree1;
    config_.shard = ShardMode::kDm;
  }

  std::string describe() const override {
    std::string graphs;
    for (const auto& name : names_) graphs += (graphs.empty() ? "" : ",") + name;
    return "size_factor=" + std::to_string(size_factor_) + " graphs=" + graphs +
           " generator_seed=" + std::to_string(kGraphSeed) + " ks_seed=" +
           std::to_string(config_.seed) + " request=engine::run(session, graft, ks, g, m, {reduce=d1, "
           "shard=dm, threads=" + std::to_string(config_.threads) +
           ", dirsel=fixed, kernel=bit}) warm session";
  }

  void setup() override {
    session_ = std::make_unique<SessionContext>();
    inputs_.clear();
    gen_s_ = 0.0;
    for (const std::string& name : names_) {
      const auto t0 = Clock::now();
      Input input{name, suite_instance(name).factory(size_factor_, kGraphSeed), 0};
      gen_s_ += seconds_between(t0, Clock::now());
      input.maximum = maximum_matching_cardinality(input.graph);
      inputs_.push_back(std::move(input));
    }
    // Warm the session's workspace pool: one checked solve per graph.
    for (const Input& input : inputs_) {
      Matching m;
      engine::run(*session_, "graft", "ks", input.graph, m, config_);
      if (!check(input, m)) throw std::runtime_error("warm-up solve of " + input.name + " is wrong");
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    totals_ = SolveTotals{};
    totals_.latency_ms.resize(inputs_.size());
    Window window;
    const auto begin = Clock::now();
    std::size_t next = 0;
    // Whole passes only, so every graph is solved equally often.
    while (next % inputs_.size() != 0 || seconds_between(begin, Clock::now()) < seconds) {
      const std::size_t i = next++ % inputs_.size();
      const Input& input = inputs_[i];
      Matching m;
      const auto t0 = Clock::now();
      const RunStats stats = engine::run(*session_, "graft", "ks", input.graph, m, config_);
      const auto t1 = Clock::now();
      const double wall = seconds_between(t0, t1);
      ++window.attempted;
      if (options_.fault == Fault::kSolveDropEdge) drop_one_edge(m);
      if (!check(input, m)) ++window.failed;
      account(stats, input, wall);
      totals_.latency_ms[i].push_back(wall * 1e3);
      if (spans != nullptr) {
        spans->add_with_parts(
            "engine.run", t0, t1,
            {{"reduce", stats.reduce.reduce_seconds + stats.reduce.compact_seconds},
             {"shard", stats.shard.decompose_seconds + stats.shard.extract_seconds},
             {"core", stats.shard.solve_seconds},
             {"shard.stitch", stats.shard.stitch_seconds},
             {"reduce.reconstruct", stats.reduce.reconstruct_seconds}});
      }
    }
    for (const auto& lat : totals_.latency_ms) {
      totals_.median_s.push_back(percentile(lat, 0.5) / 1e3);
    }
    window.rate_per_s = ratio(totals_.edges, totals_.wall_s);
    set_latencies(window, totals_.latency_ms);
    return window;
  }

  void named_metrics(Metrics& report) const override {
    report["solve_meps"] = {ratio(totals_.edges, totals_.wall_s) / 1e6, "Medges/s"};
    report["solve_calls"] = {static_cast<double>(totals_.calls), "count"};
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      report["solve." + inputs_[i].name + ".p50_ms"] = {percentile(totals_.latency_ms[i], 0.5), "ms"};
    }
  }

  void layer_metrics(SpanRecorder& spans, Metrics& layer, Metrics& report) override {
    const SolveTotals& t = totals_;
    const double calls = static_cast<double>(t.calls);
    layer["reduce.share"].value = ratio(t.reduce_s, t.wall_s);
    layer["reduce.removed_frac"].value = ratio(t.removed, t.vertices);
    layer["shard.share"].value = ratio(t.shard_s, t.wall_s);
    layer["shard.blocks_solved"].value = ratio(t.blocks_solved, calls);
    layer["core.share"].value = ratio(t.core_s, t.wall_s);
    layer["core.phases"].value = ratio(t.phases, calls);
    layer["core.edges"].value = ratio(t.traversed, calls);
    layer["core.mteps"].value = ratio(t.traversed, t.core_s) / 1e6;
    const double step_total = t.steps.total();
    layer["core.top_down_share"].value = ratio(t.steps.top_down, step_total);
    layer["core.bottom_up_share"].value = ratio(t.steps.bottom_up, step_total);
    layer["core.augment_share"].value = ratio(t.steps.augment, step_total);
    layer["core.graft_share"].value = ratio(t.steps.graft, step_total);
    layer["core.statistics_share"].value = ratio(t.steps.statistics, step_total);
    layer["core.other_share"].value = ratio(t.steps.other, step_total);
    layer["engine.levels"].value = ratio(t.levels, static_cast<double>(t.level_calls));
    layer["engine.levels_per_s"].value = ratio(t.levels, t.level_core_s);
    layer["engine.bottom_up_frac"].value = ratio(t.bottom_up_levels, t.levels);

    report["reduce.s"] = {ratio(t.reduce_s, calls), "s"};
    report["shard.s"] = {ratio(t.shard_s, calls), "s"};
    report["core.s"] = {ratio(t.core_s, calls), "s"};
    report["core.top_down_s"] = {ratio(t.steps.top_down, calls), "s"};
    report["core.bottom_up_s"] = {ratio(t.steps.bottom_up, calls), "s"};
    report["core.augment_s"] = {ratio(t.steps.augment, calls), "s"};
    report["core.graft_s"] = {ratio(t.steps.graft, calls), "s"};
    report["core.statistics_s"] = {ratio(t.steps.statistics, calls), "s"};
    report["core.other_s"] = {ratio(t.steps.other, calls), "s"};
    report["engine.s_per_level"] = {ratio(t.level_core_s, t.levels), "s"};
    report["engine.level_calls"] = {static_cast<double>(t.level_calls), "count"};

    // Standalone initializer spans, same seed and config.
    double init_s = 0.0, m0 = 0.0, maximum = 0.0;
    for (const Input& input : inputs_) {
      const auto t0 = Clock::now();
      const Matching init = engine::make_initial_matching(*session_, "ks", input.graph, config_);
      const auto t1 = Clock::now();
      spans.add("init.make_initial_matching", t0, t1);
      init_s += seconds_between(t0, t1);
      m0 += static_cast<double>(init.cardinality());
      maximum += static_cast<double>(input.maximum);
    }
    layer["init.s"].value = init_s;
    layer["init.card_frac"].value = ratio(m0, maximum);

    // One one-thread pass: engine.speedup_vs_1t = sum of the one-thread
    // times over the sum of the window's per-graph median times.
    RunConfig one = config_;
    one.threads = 1;
    double one_s = 0.0, wide_s = 0.0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      Matching m;
      const auto t0 = Clock::now();
      engine::run(*session_, "graft", "ks", inputs_[i].graph, m, one);
      const auto t1 = Clock::now();
      spans.add("engine.run_1t", t0, t1);
      one_s += seconds_between(t0, t1);
      wide_s += t.median_s[i];
    }
    layer["engine.speedup_vs_1t"].value = ratio(one_s, wide_s);
  }

  double gen_seconds() const override { return gen_s_; }

 private:
  static bool check(const Input& input, const Matching& m) {
    return validate_matching(input.graph, m).empty() &&
           m.cardinality() == input.maximum;
  }

  static void drop_one_edge(Matching& m) {
    for (vid_t x = 0; x < m.num_x(); ++x) {
      if (m.is_matched_x(x)) {
        m.unmatch_x(x);
        return;
      }
    }
  }

  void account(const RunStats& s, const Input& input, double wall) {
    SolveTotals& t = totals_;
    ++t.calls;
    t.wall_s += wall;
    t.edges += static_cast<double>(input.graph.num_edges());
    t.reduce_s += s.reduce.reduce_seconds + s.reduce.compact_seconds +
                  s.reduce.reconstruct_seconds;
    t.shard_s += s.shard.decompose_seconds + s.shard.extract_seconds +
                 s.shard.stitch_seconds;
    t.core_s += s.shard.solve_seconds;
    t.removed += static_cast<double>(s.reduce.vertices_removed);
    t.vertices += static_cast<double>(input.graph.num_x() + input.graph.num_y());
    t.blocks_solved += static_cast<double>(s.shard.blocks_solved);
    t.phases += static_cast<double>(s.phases);
    t.traversed += static_cast<double>(s.edges_traversed);
    if (s.shard.fallback) {
      ++t.level_calls;
      t.level_core_s += s.shard.solve_seconds;
      t.levels += static_cast<double>(s.direction.decisions);
      t.bottom_up_levels += static_cast<double>(s.direction.bottom_up_levels);
    }
    t.steps.top_down += s.step_seconds.top_down;
    t.steps.bottom_up += s.step_seconds.bottom_up;
    t.steps.augment += s.step_seconds.augment;
    t.steps.graft += s.step_seconds.graft;
    t.steps.statistics += s.step_seconds.statistics;
    t.steps.other += s.step_seconds.other;
  }

  Options options_;
  std::vector<std::string> names_;
  double size_factor_;
  RunConfig config_;
  std::unique_ptr<SessionContext> session_;
  std::vector<Input> inputs_;
  double gen_s_ = 0.0;
  SolveTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> make_solve_workload(const Options& options, bool mesh) {
  return std::make_unique<SolveWorkload>(options, mesh);
}

}  // namespace perfbench
