// serve-zipf: an open-loop Poisson generator drives an in-process
// MatchServer over a small roster with Zipf-skewed graph popularity, at
// a light rate (coalescing window is pure cost) and then a heavy rate
// (the backlog stays bounded only because requests coalesce).
//
// Each request is timed from its scheduled send time, so a stalled
// server also charges the requests it delayed; the generator's lateness
// is reported. One generator thread submits, one collector thread
// polls the futures and re-checks every served cardinality against the
// roster's load-time oracle. The generator spins for the last stretch
// before each send instead of sleeping through it: on a VM a sleeping
// vCPU takes a host-dependent time to wake, which would be charged to
// the server.
//
// The roster is fixed (generator seed 1), as a service's graph set is;
// the run's seed drives the traffic: arrival times and graph picks.
#include <atomic>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/serve/server.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace graftmatch;
using serve::MatchRequest;
using serve::MatchResponse;

constexpr double kZipfExponent = 1.2;
// Unbatched capacity is about 550 req/s on 4 Xeon vCPUs (measured with
// batch_max = 1): the light rate is far below it, the heavy rate above it.
constexpr double kLightRate = 100.0;
constexpr double kHeavyRate = 700.0;
/// Requests per slice of the heavy tail (see measure()): a p99 with ten
/// samples beyond it.
constexpr std::size_t kTailSlice = 1000;
/// Latency limit: goodput counts correct responses within it.
constexpr std::int64_t kLimitMs = 100;
/// Request deadline. The admission gate extrapolates its service-time
/// EWMA over the whole queue, so one solve stalled by the host (tens of
/// ms on a shared VM) made it reject a few of ~10k requests at a
/// 100 ms deadline in about one run in ten. A 1 s deadline keeps the
/// gate, and such runs, for real overload.
constexpr std::int64_t kDeadlineMs = 1000;

/// One rate's traffic and what came back.
struct RatePhase {
  std::string label;  ///< "light" / "heavy"
  double rate = 0.0;  ///< requests per second
  double seconds = 0.0;
  std::int64_t attempted = 0, failed = 0, good = 0;
  std::vector<double> latency_ms;  ///< failures count as +inf
  std::vector<double> wait_ms, solve_ms, lag_ms;
  double latency_sum_ms = 0.0, wait_sum_ms = 0.0;
  serve::ServerCounters counters;  ///< deltas over the phase
};

struct Pending {
  std::int64_t id = 0;
  std::size_t graph = 0;
  Clock::time_point scheduled;
  std::future<MatchResponse> response;
};

serve::ServerCounters minus(const serve::ServerCounters& a,
                            const serve::ServerCounters& b) {
  serve::ServerCounters d;
  d.accepted = a.accepted - b.accepted;
  d.rejected = a.rejected - b.rejected;
  d.completed = a.completed - b.completed;
  d.failed = a.failed - b.failed;
  d.expired = a.expired - b.expired;
  d.batches = a.batches - b.batches;
  d.coalesced = a.coalesced - b.coalesced;
  return d;
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& options)
      : options_(options),
        size_factor_(size_factor(options, 0.05)) {
    double total = 0.0;
    for (std::size_t rank = 1; rank <= kNames.size(); ++rank) {
      total += std::pow(static_cast<double>(rank), -kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::string describe() const override {
    std::string graphs;
    for (const auto& name : kNames) graphs += (graphs.empty() ? "" : ",") + name;
    const serve::ServerOptions defaults;
    return "size_factor=" + std::to_string(size_factor_) + " roster=" + graphs +
           " zipf_s=" + std::to_string(kZipfExponent) +
           " light_rps=" + std::to_string(kLightRate) +
           " heavy_rps=" + std::to_string(kHeavyRate) +
           " server={workers=2, solver_threads=1, queue_capacity=256, batch_max=" +
           std::to_string(defaults.batch_max) + ", batch_window_us=" +
           std::to_string(defaults.batch_window_us) +
           "} request={solver=graft, init=ks, reduce=none, shard=none, "
           "dirsel=fixed, kernel=bit, threads=0, deadline_ms=" +
           std::to_string(kDeadlineMs) + "} latency_limit_ms=" + std::to_string(kLimitMs);
  }

  void setup() override {
    server_.reset();
    roster_ = std::make_unique<serve::GraphRoster>();
    gen_s_ = roster_load_s_ = 0.0;
    for (const std::string& name : kNames) {
      const auto t0 = Clock::now();
      BipartiteGraph g = suite_instance(name).factory(size_factor_, 1);
      const auto t1 = Clock::now();
      roster_->add(name, std::move(g));  // computes the HK oracle
      gen_s_ += seconds_between(t0, t1);
      roster_load_s_ += seconds_between(t1, Clock::now());
    }
    serve::ServerOptions server_options;
    server_options.workers = 2;
    server_options.solver_threads = 1;
    // Room for a host stall of about a latency limit at the heavy rate, so
    // a stall shows as latency rather than as admission rejections.
    server_options.queue_capacity = 256;
    server_ = std::make_unique<serve::MatchServer>(*roster_, server_options);
    // Warm every worker session on every graph.
    for (int round = 0; round < 4; ++round) {
      for (const auto& entry : roster_->entries()) {
        const MatchResponse r = server_->solve(request_for(entry.name));
        if (!r.ok || r.cardinality != entry.maximum_cardinality) {
          throw std::runtime_error("warm-up request on " + entry.name + " failed");
        }
      }
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    const double light_s = seconds * 0.4;
    light_ = run_phase("light", kLightRate, light_s, spans, 1);
    heavy_ = run_phase("heavy", kHeavyRate, seconds - light_s, spans, 2);
    Window window;
    window.attempted = light_.attempted + heavy_.attempted;
    window.failed = light_.failed + heavy_.failed;
    window.rate_per_s = static_cast<double>(heavy_.good) / heavy_.seconds;
    // p50 at the light rate shows the coalescing window's cost; the tail
    // at the heavy rate shows whether coalescing keeps up. (The heavy
    // p50 sits on a queue near saturation and swings with host speed.)
    Window light;
    set_latencies(light, {light_.latency_ms});
    set_latencies(window, {heavy_.latency_ms});
    window.p50_ms = light.p50_ms;
    // The heavy rate is near the server's capacity, so a host stall of a
    // few seconds backs the queue up and owns the run's p99; the tail is
    // the median of the p99s of 1000-request slices (the plain p99 is in
    // the report as serve_heavy_p99_ms).
    window.tail_ms = sliced_percentile(heavy_.latency_ms, window.tail_q, kTailSlice);
    return window;
  }

  void named_metrics(Metrics& report) const override {
    for (const RatePhase* phase : {&light_, &heavy_}) {
      const std::string p = "serve_" + phase->label;
      report[p + "_p50_ms"] = {percentile(phase->latency_ms, 0.50), "ms"};
      report[p + "_p99_ms"] = {percentile(phase->latency_ms, 0.99), "ms"};
      report[p + "_requests"] = {static_cast<double>(phase->attempted), "count"};
      report[p + "_failed"] = {static_cast<double>(phase->failed), "count"};
      report[p + "_rejected"] = {static_cast<double>(phase->counters.rejected), "count"};
      report[p + "_expired"] = {static_cast<double>(phase->counters.expired), "count"};
    }
    report["serve_goodput_rps"] = {static_cast<double>(heavy_.good) / heavy_.seconds, "req/s"};
    report["serve_latency_limit_ms"] = {static_cast<double>(kLimitMs), "ms"};
  }

  void layer_metrics(SpanRecorder& spans, Metrics& layer, Metrics& report) override {
    layer["serve.roster_load_share"].value = ratio(roster_load_s_, roster_load_s_ + gen_s_);
    report["serve.roster_load_s"] = {roster_load_s_, "s"};
    for (const RatePhase* phase : {&light_, &heavy_}) {
      const std::string p = "serve." + phase->label + ".";
      const serve::ServerCounters& c = phase->counters;
      const double served = static_cast<double>(c.completed + c.failed);
      layer[p + "wait_share"].value = ratio(phase->wait_sum_ms, phase->latency_sum_ms);
      layer[p + "batch_mean"].value = ratio(served, static_cast<double>(c.batches));
      layer[p + "coalesced_frac"].value = ratio(static_cast<double>(c.coalesced), served);
      layer[p + "rejected"].value = static_cast<double>(c.rejected);
      layer[p + "expired"].value = static_cast<double>(c.expired);
      layer[p + "gen_lag_p99_gaps"].value = percentile(phase->lag_ms, 0.99) / (1e3 / phase->rate);
      report[p + "queue_wait_ms.p50"] = {percentile(phase->wait_ms, 0.50), "ms"};
      report[p + "queue_wait_ms.p99"] = {percentile(phase->wait_ms, 0.99), "ms"};
      report[p + "solve_ms.p50"] = {percentile(phase->solve_ms, 0.50), "ms"};
      report[p + "solve_ms.p99"] = {percentile(phase->solve_ms, 0.99), "ms"};
      report[p + "gen_lag_ms.p99"] = {percentile(phase->lag_ms, 0.99), "ms"};
    }
    // Standalone initializer spans over the roster.
    SessionContext session;
    RunConfig config;
    config.threads = 1;
    config.seed = options_.seed;
    double init_s = 0.0, m0 = 0.0, maximum = 0.0;
    for (const auto& entry : roster_->entries()) {
      const auto t0 = Clock::now();
      const Matching init = engine::make_initial_matching(session, "ks", entry.graph, config);
      const auto t1 = Clock::now();
      spans.add("init.make_initial_matching", t0, t1);
      init_s += seconds_between(t0, t1);
      m0 += static_cast<double>(init.cardinality());
      maximum += static_cast<double>(entry.maximum_cardinality);
    }
    layer["init.s"].value = init_s;
    layer["init.card_frac"].value = ratio(m0, maximum);
  }

  double gen_seconds() const override { return gen_s_; }

 private:
  /// Roster in popularity order (Zipf rank 1 first), three classes.
  inline static const std::vector<std::string> kNames = {
      "amazon-like", "wikipedia-like", "rmat-like", "wb-edu-like",
      "kkt_power-like"};

  MatchRequest request_for(const std::string& graph) const {
    MatchRequest request;
    request.graph = graph;
    request.deadline_ms = kDeadlineMs;
    return request;
  }

  RatePhase run_phase(const std::string& label, double rate, double seconds,
                      SpanRecorder* spans, std::uint64_t stream) {
    RatePhase phase;
    phase.label = label;
    phase.rate = rate;
    phase.seconds = seconds;
    // The schedule: Poisson arrivals and Zipf graph picks from the seed.
    Xoshiro256 rng = Xoshiro256(options_.seed).fork(stream);
    std::vector<std::pair<double, std::size_t>> schedule;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= seconds) break;
      const double u = rng.uniform();
      std::size_t g = 0;
      while (g + 1 < cdf_.size() && u > cdf_[g]) ++g;
      schedule.emplace_back(t, g);
    }
    const serve::ServerCounters before = server_->counters();
    std::mutex mutex;
    std::deque<Pending> pending;
    std::atomic<bool> done{false};

    auto finish = [&](const Pending& p, const MatchResponse* r,
                      Clock::time_point at) {
      const auto& entry = roster_->at(p.graph);
      bool good = r != nullptr && r->ok && !r->rejected && !r->expired;
      std::int64_t card = good ? r->cardinality : -1;
      if (good && options_.fault == Fault::kServeOffByOne) card += 1;
      good = good && card == entry.maximum_cardinality;
      ++phase.attempted;
      if (!good) {
        ++phase.failed;
        phase.latency_ms.push_back(std::numeric_limits<double>::infinity());
        return;
      }
      const double latency = seconds_between(p.scheduled, at) * 1e3;
      const double solve = r->seconds * 1e3;
      phase.latency_ms.push_back(latency);
      phase.wait_ms.push_back(latency - solve);
      phase.solve_ms.push_back(solve);
      phase.latency_sum_ms += latency;
      phase.wait_sum_ms += latency - solve;
      if (latency <= static_cast<double>(kLimitMs)) ++phase.good;
      if (spans != nullptr) {
        spans->add_with_parts("serve.request", p.scheduled, at,
                              {{"serve.queue_wait", (latency - solve) / 1e3},
                               {"core", r->seconds}},
                              p.id);
      }
    };

    std::thread collector([&] {
      for (;;) {
        bool progressed = false;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          for (auto it = pending.begin(); it != pending.end();) {
            if (it->response.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
              const auto now = Clock::now();
              const MatchResponse r = it->response.get();
              finish(*it, &r, now);
              it = pending.erase(it);
              progressed = true;
            } else {
              ++it;
            }
          }
          if (pending.empty() && done.load()) return;
        }
        if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });

    // The collector must be joined before the state it references goes,
    // also when a submit throws.
    struct JoinCollector {
      std::atomic<bool>& done;
      std::thread& thread;
      ~JoinCollector() {
        done.store(true);
        thread.join();
      }
    };
    {
      const JoinCollector join{done, collector};
      const auto start = Clock::now() + std::chrono::milliseconds(1);
      std::int64_t id = 0;
      for (const auto& [offset, g] : schedule) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(offset));
        std::this_thread::sleep_until(due - std::chrono::microseconds(300));
        while (Clock::now() < due) std::this_thread::yield();
        Pending p;
        p.id = (static_cast<std::int64_t>(stream) << 40) | ++id;
        p.graph = g;
        p.scheduled = due;
        const bool accepted = server_->try_submit(request_for(roster_->at(g).name), p.response);
        const auto submitted = Clock::now();
        const std::lock_guard<std::mutex> lock(mutex);
        phase.lag_ms.push_back(seconds_between(due, submitted) * 1e3);
        if (accepted) {
          pending.push_back(std::move(p));
        } else {
          finish(p, nullptr, submitted);
        }
      }
    }
    phase.counters = minus(server_->counters(), before);
    return phase;
  }

  Options options_;
  double size_factor_;
  std::vector<double> cdf_;
  std::unique_ptr<serve::GraphRoster> roster_;
  std::unique_ptr<serve::MatchServer> server_;
  double gen_s_ = 0.0, roster_load_s_ = 0.0;
  RatePhase light_, heavy_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
