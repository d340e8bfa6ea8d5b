// Closed-loop load generator for the matching service (serve/).
//
// Loads a small roster once (each graph's maximum cardinality computed
// by the serial Hopcroft-Karp oracle at load time), then drives an
// in-process MatchServer with a FIXED worker pool and a growing set of
// concurrent closed-loop clients, each blocking on solve() and
// immediately issuing the next request. Every (graph, client-count)
// level runs twice: once with batching disabled (batch_max = 1, the
// one-solve-per-request baseline) and once with coalescing on -- the
// comparison that shows the BatchScheduler turning same-key backlog
// into fewer solves. Clients within a level all hit the same graph,
// which is the serving scenario batching exists for (many callers
// asking the same question); the level's speedup_vs_unbatched column is
// the direct measure of the win.
//
// Every response is checked: ok must be set and the served cardinality
// must equal the roster oracle (the server audits this too when
// check_cardinality is on; the bench re-checks client-side so a broken
// audit cannot hide). Any failure makes the bench exit nonzero, so the
// CI smoke run doubles as a correctness gate.
//
// Knobs (on top of the usual bench env/CLI, see bench_common.hpp):
//   GRAFTMATCH_CLIENTS -- max concurrent clients (default
//                         min(4, hardware threads))
//   GRAFTMATCH_WORKERS -- server worker sessions, deliberately BELOW
//                         the max client count so a backlog forms and
//                         batching has something to coalesce (default 2)
//   GRAFTMATCH_RUNS    -- requests per client per level (default 24)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using graftmatch::serve::GraphRoster;
using graftmatch::serve::MatchRequest;
using graftmatch::serve::MatchResponse;
using graftmatch::serve::MatchServer;
using graftmatch::serve::ServerCounters;
using graftmatch::serve::ServerOptions;

/// OpenMP width of every request's solve (the server's per-request
/// default; requests leave `threads` unset).
constexpr int kSolverThreads = 1;

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

int max_clients() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_int("GRAFTMATCH_CLIENTS",
                 static_cast<int>(std::min(4u, std::max(2u, hw))));
}

double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

struct LevelResult {
  int clients = 0;
  std::size_t batch_max = 1;
  std::int64_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 1.0;
  std::int64_t failures = 0;
};

LevelResult run_level(const GraphRoster& roster, std::size_t graph_index,
                      int workers, int clients, int requests_per_client,
                      std::size_t batch_max, std::int64_t window_us) {
  ServerOptions options;
  options.workers = workers;
  options.solver_threads = kSolverThreads;
  options.queue_capacity = static_cast<std::size_t>(clients) * 4 + 8;
  options.batch_max = batch_max;
  options.batch_window_us = window_us;
  MatchServer server(roster, options);

  const std::string graph_name = roster.at(graph_index).name;
  const std::int64_t maximum = roster.at(graph_index).maximum_cardinality;
  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(clients));
  std::atomic<std::int64_t> failures{0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::vector<double>& mine = latencies_ms[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        MatchRequest request;
        request.graph = graph_name;
        const auto start = std::chrono::steady_clock::now();
        const MatchResponse response = server.solve(std::move(request));
        const auto stop = std::chrono::steady_clock::now();
        mine.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        const bool good = response.ok && !response.rejected &&
                          response.cardinality == maximum;
        if (!good) {
          failures.fetch_add(1, std::memory_order_relaxed);
          if (!response.error.empty()) {
            std::cerr << "bench_serve: request failed: " << response.error
                      << "\n";
          }
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();
  const auto wall_stop = std::chrono::steady_clock::now();
  server.stop();
  const ServerCounters counters = server.counters();

  LevelResult result;
  result.clients = clients;
  result.batch_max = batch_max;
  result.requests = static_cast<std::int64_t>(clients) * requests_per_client;
  result.seconds =
      std::chrono::duration<double>(wall_stop - wall_start).count();
  result.rps = result.seconds > 0.0
                   ? static_cast<double>(result.requests) / result.seconds
                   : 0.0;
  std::vector<double> all_ms;
  for (const auto& mine : latencies_ms) {
    all_ms.insert(all_ms.end(), mine.begin(), mine.end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  result.p50_ms = percentile(all_ms, 0.50);
  result.p99_ms = percentile(all_ms, 0.99);
  result.mean_batch =
      counters.batches > 0
          ? static_cast<double>(counters.completed + counters.failed) /
                static_cast<double>(counters.batches)
          : 1.0;
  result.failures = failures.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graftmatch;
  bench::apply_cli_overrides(argc, argv);
  bench::print_banner("bench_serve",
                      "matching-as-a-service throughput/latency: closed-loop "
                      "clients against an in-process MatchServer, batched "
                      "coalescing vs one-solve-per-request");
  // Every request carries the protocol's solve settings, not the bench
  // environment's, and runs on one server thread.
  const MatchRequest request;
  std::cout << "workload  : size factor " << bench::size_factor()
            << ", seed " << bench::seed() << ", solver " << request.solver
            << ", initializer " << request.initializer << ", threads "
            << kSolverThreads << ", reduce " << request.reduce << ", shard "
            << request.shard << ", dirsel " << request.dirsel << ", kernel "
            << request.kernel << "\n\n";

  // A small, shape-diverse roster; the serving point is many solves
  // over a fixed graph set, not one big solve.
  const std::vector<std::string> roster_names = {
      "kkt_power-like", "rmat-like", "amazon-like"};
  const GraphRoster roster =
      GraphRoster::from_suite(roster_names, bench::size_factor(),
                              bench::seed());
  std::cout << "roster: " << roster.size() << " graphs";
  for (const auto& entry : roster.entries()) {
    std::cout << "  " << entry.name << " (max " << entry.maximum_cardinality
              << ")";
  }
  std::cout << "\n";

  const int clients_max = max_clients();
  const int workers = env_int("GRAFTMATCH_WORKERS", 2);
  const int requests_per_client = bench::run_count(24);
  const std::int64_t window_us = 500;
  std::cout << "workers: " << workers << ", clients up to " << clients_max
            << ", " << requests_per_client << " requests/client, batch "
            << "window " << window_us << " us\n\n";

  bench::CsvWriter csv("bench_serve",
                       {"graph", "clients", "batch_max", "window_us",
                        "requests", "seconds", "rps", "p50_ms", "p99_ms",
                        "mean_batch", "failures", "speedup_vs_unbatched"});

  // Client levels: powers of two up to the max (always including it),
  // so the interesting regime -- more clients than workers -- is hit
  // even at the default GRAFTMATCH_CLIENTS=4.
  std::vector<int> levels;
  for (int clients = 1; clients < clients_max; clients *= 2) {
    levels.push_back(clients);
  }
  levels.push_back(clients_max);

  std::cout << "graph            clients  batch   req/s     p50 ms    p99 ms"
            << "    mean|B|   vs unbatched\n";
  double best_speedup_at_4 = 0.0;
  std::string best_graph_at_4;
  std::int64_t total_failures = 0;
  for (std::size_t graph_index = 0; graph_index < roster.size();
       ++graph_index) {
    for (const int clients : levels) {
      // Arm 1: batching off. Arm 2: coalescing up to 2x the client
      // count (so one window can absorb every concurrent caller plus
      // the next closed-loop round).
      const std::size_t batched_max =
          static_cast<std::size_t>(std::max(2, clients * 2));
      double unbatched_rps = 0.0;
      for (const std::size_t batch_max : {std::size_t{1}, batched_max}) {
        const LevelResult level =
            run_level(roster, graph_index, workers, clients,
                      requests_per_client, batch_max, window_us);
        const bool batched = batch_max > 1;
        if (!batched) unbatched_rps = level.rps;
        const double speedup = batched && unbatched_rps > 0.0
                                   ? level.rps / unbatched_rps
                                   : 1.0;
        if (batched && clients >= 4 && speedup > best_speedup_at_4) {
          best_speedup_at_4 = speedup;
          best_graph_at_4 = roster.at(graph_index).name;
        }
        total_failures += level.failures;
        std::printf("%-16s %7d  %5zu   %7.1f   %7.2f   %7.2f   %7.2f   %s\n",
                    roster.at(graph_index).name.c_str(), level.clients,
                    level.batch_max, level.rps, level.p50_ms, level.p99_ms,
                    level.mean_batch,
                    batched ? (std::to_string(speedup) + "x").c_str() : "-");
        csv.row({roster.at(graph_index).name,
                 bench::CsvWriter::cell(
                     static_cast<std::int64_t>(level.clients)),
                 bench::CsvWriter::cell(
                     static_cast<std::int64_t>(level.batch_max)),
                 bench::CsvWriter::cell(window_us),
                 bench::CsvWriter::cell(level.requests),
                 bench::CsvWriter::cell(level.seconds),
                 bench::CsvWriter::cell(level.rps),
                 bench::CsvWriter::cell(level.p50_ms),
                 bench::CsvWriter::cell(level.p99_ms),
                 bench::CsvWriter::cell(level.mean_batch),
                 bench::CsvWriter::cell(level.failures),
                 bench::CsvWriter::cell(batched ? speedup : 1.0)});
      }
    }
  }

  std::cout << "\nbest batched-vs-unbatched speedup at >= 4 clients: "
            << best_speedup_at_4 << "x"
            << (best_graph_at_4.empty() ? "" : " (" + best_graph_at_4 + ")")
            << "\n";
  std::cout << "artifact: " << csv.path() << "\n";
  if (total_failures > 0) {
    std::cerr << "bench_serve: " << total_failures
              << " request(s) failed the cardinality/ok gate\n";
    return 1;
  }
  if (clients_max >= 4 && best_speedup_at_4 <= 1.0) {
    std::cerr << "bench_serve: batching showed no win at >= 4 clients "
              << "(best " << best_speedup_at_4 << "x)\n";
    return 1;
  }
  return 0;
}
