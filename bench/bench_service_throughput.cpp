/// \file bench_service_throughput.cpp
/// Load generator for the resident analysis service (`fetch-cli serve`):
/// measures what the result cache buys over one-shot analysis.
///
/// Phases (all against a real Unix-socket round trip):
///   oneshot   eval::AnalysisSession per request, no daemon — what every
///             cold `fetch-cli detect` run pays
///   cold      first query per unique binary through the service (cache
///             misses: socket + hash + full analysis)
///   warm      N client threads hammering the now-cached set (hits:
///             socket + hash only) — QPS and p50/p99 latency
///   open_loop fixed-rate scheduled arrivals over the cached set;
///             latency is measured from the scheduled send time, so
///             server stalls show up as tail latency instead of being
///             absorbed by the closed loop (coordinated omission). A
///             log2 histogram of the distribution lands in the report.
///
/// Every served result is byte-compared against a local analysis of the
/// same file, so the bench doubles as an end-to-end equality check of
/// the served path. With `--json` the report (schema fetch-bench-v1)
/// carries cold/warm latencies, warm QPS, and the derived
/// `warm_speedup_x` = oneshot mean / warm mean — the ratio the
/// "cache hits must be ≥10× cheaper than one-shot runs" acceptance
/// criterion tracks via `exp_run diff`.
///
/// Flags beyond the common set (--jobs/--scale/--json): --socket PATH
/// targets an already-running external daemon (default: an in-process
/// server on a private socket); --clients N / --requests N override the
/// scale-derived load shape; --open-loop QPS overrides the open-loop
/// arrival rate.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>

#include "bench/common.hpp"
#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/rng.hpp"

namespace {

using namespace fetch;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct LoadShape {
  std::size_t files = 3;
  std::size_t clients = 2;
  std::size_t requests_per_client = 40;
  /// Scheduled arrival rate for the open-loop phase. Unlike the warm
  /// closed loop (a client waits for its reply before sending again, so
  /// a slow server quietly throttles its own load), open-loop arrivals
  /// fire on a fixed clock and latency is measured from the *scheduled*
  /// send time — queueing delay from a stalled server lands in the tail
  /// instead of being coordinated away.
  double open_loop_qps = 300.0;
};

LoadShape shape_for(const bench::BenchOptions& opts) {
  LoadShape shape;
  switch (opts.scale) {
    case synth::Scale::kSmoke:
      shape = {3, 2, 40, 300.0};
      break;
    case synth::Scale::kDefault:
      shape = {8, 4, 250, 800.0};
      break;
    case synth::Scale::kFull:
      shape = {16, 8, 1000, 1500.0};
      break;
  }
  return shape;
}

/// Writes \p count deterministic synthetic binaries into a fresh temp
/// directory and returns their paths.
std::vector<std::string> write_workload(std::size_t count) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("fetch-svc-bench-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<std::string> paths;
  const auto& projects = synth::projects();
  for (std::size_t i = 0; i < count; ++i) {
    const auto spec = synth::make_program(
        projects[i % projects.size()],
        synth::profile_for(i % 2 == 0 ? "gcc" : "llvm", "O2"),
        0x5eed + 97 * i);
    const synth::SynthBinary bin = synth::generate(spec);
    const fs::path path = dir / ("workload_" + std::to_string(i) + ".bin");
    std::string error;
    if (!util::write_text_file(
            path, {reinterpret_cast<const char*>(bin.image.data()),
                   bin.image.size()},
            &error)) {
      std::cerr << "error: workload: " << error << "\n";
      std::exit(2);
    }
    paths.push_back(path.string());
  }
  return paths;
}

double mean_us(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double percentile_us(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

service::ServiceClient connect_or_die(const std::string& socket) {
  std::string error;
  auto client = service::ServiceClient::connect(socket, &error);
  if (!client) {
    std::cerr << "error: " << error << "\n";
    std::exit(2);
  }
  return std::move(*client);
}

}  // namespace

int main(int argc, char** argv) {
  std::string external_socket;
  // Zero = keep the scale-derived value (the parsers reject zero).
  std::size_t clients = 0;
  std::size_t requests = 0;
  double open_loop_qps = 0.0;
  namespace cli = util::cli;
  const bench::BenchOptions opts = bench::parse_args(
      argc, argv,
      {cli::text("--socket", &external_socket),
       cli::count("--clients", &clients, 1),
       cli::count("--requests", &requests, 1),
       cli::positive("--open-loop", &open_loop_qps)});
  LoadShape shape = shape_for(opts);
  shape.clients = clients != 0 ? clients : shape.clients;
  shape.requests_per_client =
      requests != 0 ? requests : shape.requests_per_client;
  shape.open_loop_qps =
      open_loop_qps != 0.0 ? open_loop_qps : shape.open_loop_qps;

  bench::print_header("Service throughput — resident daemon vs one-shot",
                      "cold/warm query latency and cache-hit QPS "
                      "(fetch-service-v1)");
  std::cout << "files: " << shape.files << "  clients: " << shape.clients
            << "  requests/client: " << shape.requests_per_client << "\n\n";

  const std::vector<std::string> files = write_workload(shape.files);

  // In-process daemon unless --socket points at an external one. The
  // socket still carries every byte, so in-process numbers measure the
  // full protocol path minus only process-spawn noise.
  std::unique_ptr<service::ServiceServer> server;
  std::thread server_thread;
  std::string socket = external_socket;
  if (socket.empty()) {
    service::ServerOptions server_options;
    server_options.socket_path =
        "/tmp/fetch-svc-bench-" + std::to_string(::getpid()) + ".sock";
    server_options.workers = opts.effective_jobs();
    server = std::make_unique<service::ServiceServer>(server_options);
    std::string error;
    if (!server->start(&error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    server_thread = std::thread([&server] { server->run(); });
    socket = server->socket_path();
  }

  // --- oneshot: the cost a cold fetch-cli run pays per binary ---------------
  const eval::AnalysisSession session;
  std::vector<eval::FileAnalysis> local(files.size());
  std::vector<double> oneshot_us;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto start = Clock::now();
    local[i] = session.analyze_file(files[i]);
    oneshot_us.push_back(us_since(start));
    if (!local[i].row.ok) {
      std::cerr << "error: workload analysis failed: " << local[i].row.error
                << "\n";
      return 2;
    }
  }

  // --- cold: first query per unique binary (cache misses) -------------------
  std::vector<double> cold_us;
  {
    service::ServiceClient client = connect_or_die(socket);
    std::string error;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto start = Clock::now();
      const auto result = client.query(files[i], &error);
      cold_us.push_back(us_since(start));
      if (!result) {
        std::cerr << "error: cold query failed: " << error << "\n";
        return 2;
      }
      // Served results must be byte-identical to the one-shot path: same
      // starts, same provenance, same metrics row shape.
      if (result->analysis.functions != local[i].functions ||
          result->analysis.content_hash != local[i].content_hash) {
        std::cerr << "error: served result diverges from one-shot analysis "
                     "for "
                  << files[i] << "\n";
        return 1;
      }
    }
  }

  // --- warm: concurrent clients over the cached set -------------------------
  std::vector<std::vector<double>> per_client(shape.clients);
  std::atomic<bool> failed{false};
  const auto warm_start = Clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(shape.clients);
    for (std::size_t c = 0; c < shape.clients; ++c) {
      clients.emplace_back([&, c] {
        service::ServiceClient client = connect_or_die(socket);
        Rng rng(0xbe7c + 131 * c);
        std::string error;
        auto& samples = per_client[c];
        samples.reserve(shape.requests_per_client);
        for (std::size_t r = 0; r < shape.requests_per_client; ++r) {
          const std::string& path = files[rng.below(files.size())];
          const auto start = Clock::now();
          const auto result = client.query(path, &error);
          samples.push_back(us_since(start));
          if (!result || !result->analysis.row.ok) {
            std::cerr << "error: warm query failed: " << error << "\n";
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  const double warm_elapsed_us = us_since(warm_start);
  if (failed.load()) {
    return 1;
  }

  std::vector<double> warm_us;
  for (const auto& samples : per_client) {
    warm_us.insert(warm_us.end(), samples.begin(), samples.end());
  }

  // --- open-loop: fixed-rate arrivals over the cached set -------------------
  // Request k is *scheduled* at start + k/rate regardless of how request
  // k-1 fared, and its latency runs from that scheduled instant. A server
  // that stalls therefore accumulates the backlog into the measured tail
  // (no coordinated omission).
  std::vector<std::vector<double>> open_loop_per_client(shape.clients);
  const std::size_t open_loop_total =
      shape.clients * shape.requests_per_client;
  const auto open_loop_interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / shape.open_loop_qps));
  const auto open_loop_start = Clock::now() + std::chrono::milliseconds(50);
  {
    std::vector<std::thread> clients;
    clients.reserve(shape.clients);
    for (std::size_t c = 0; c < shape.clients; ++c) {
      clients.emplace_back([&, c] {
        service::ServiceClient client = connect_or_die(socket);
        Rng rng(0xa11d + 131 * c);
        std::string error;
        auto& samples = open_loop_per_client[c];
        samples.reserve(shape.requests_per_client);
        // The global schedule is interleaved across clients: client c
        // owns arrivals c, c+clients, c+2*clients, ...
        for (std::size_t r = c; r < open_loop_total; r += shape.clients) {
          const auto scheduled =
              open_loop_start + open_loop_interval * static_cast<long>(r);
          std::this_thread::sleep_until(scheduled);
          const std::string& path = files[rng.below(files.size())];
          const auto result = client.query(path, &error);
          samples.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        scheduled)
                  .count());
          if (!result || !result->analysis.row.ok) {
            std::cerr << "error: open-loop query failed: " << error << "\n";
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  const double open_loop_elapsed_us = std::chrono::duration<double,
                                                            std::micro>(
                                          Clock::now() - open_loop_start)
                                          .count();
  if (failed.load()) {
    return 1;
  }

  std::vector<double> open_loop_us;
  // The telemetry subsystem's log2-µs histogram, doubling as its
  // single-threaded soak test under a realistic latency distribution.
  obs::Histogram open_loop_hist;
  for (const auto& samples : open_loop_per_client) {
    open_loop_us.insert(open_loop_us.end(), samples.begin(), samples.end());
    for (const double us : samples) {
      open_loop_hist.record_us(
          static_cast<std::uint64_t>(std::max(us, 0.0)));
    }
  }

  // Single-flight/caching sanity from the horse's mouth: the daemon must
  // have computed each unique binary exactly once.
  {
    service::ServiceClient client = connect_or_die(socket);
    std::string error;
    const auto stats = client.stats(&error);
    if (!stats) {
      std::cerr << "error: stats request failed: " << error << "\n";
      return 1;
    }
    const util::json::Value* misses = stats->get("misses");
    if (misses == nullptr) {
      std::cerr << "error: stats response has no misses counter\n";
      return 1;
    }
    const auto server_misses =
        static_cast<std::uint64_t>(misses->as_double());
    // Only meaningful for the private in-process daemon: an external one
    // may have served other clients.
    if (external_socket.empty() && server_misses != files.size()) {
      std::cerr << "error: expected " << files.size()
                << " cache misses (one per unique binary), server reports "
                << server_misses << "\n";
      return 1;
    }
  }

  if (server != nullptr) {
    server->stop();
    server_thread.join();
  }
  std::error_code cleanup_ec;
  std::filesystem::remove_all(
      std::filesystem::path(files.front()).parent_path(), cleanup_ec);

  const double oneshot_mean = mean_us(oneshot_us);
  const double cold_mean = mean_us(cold_us);
  const double warm_mean = mean_us(warm_us);
  const double warm_p50 = percentile_us(warm_us, 0.50);
  const double warm_p99 = percentile_us(warm_us, 0.99);
  const double warm_qps = warm_elapsed_us == 0.0
                              ? 0.0
                              : static_cast<double>(warm_us.size()) * 1e6 /
                                    warm_elapsed_us;
  const double speedup = warm_mean == 0.0 ? 0.0 : oneshot_mean / warm_mean;
  const double open_loop_p50 = percentile_us(open_loop_us, 0.50);
  const double open_loop_p99 = percentile_us(open_loop_us, 0.99);
  const double open_loop_achieved_qps =
      open_loop_elapsed_us == 0.0
          ? 0.0
          : static_cast<double>(open_loop_us.size()) * 1e6 /
                open_loop_elapsed_us;

  eval::TextTable table({"case", "mean_us", "p50_us", "p99_us"});
  table.add_row({"oneshot", eval::fmt(oneshot_mean, 1),
                 eval::fmt(percentile_us(oneshot_us, 0.5), 1),
                 eval::fmt(percentile_us(oneshot_us, 0.99), 1)});
  table.add_row({"cold_query", eval::fmt(cold_mean, 1),
                 eval::fmt(percentile_us(cold_us, 0.5), 1),
                 eval::fmt(percentile_us(cold_us, 0.99), 1)});
  table.add_row({"warm_query", eval::fmt(warm_mean, 1),
                 eval::fmt(warm_p50, 1), eval::fmt(warm_p99, 1)});
  table.add_row({"open_loop", eval::fmt(mean_us(open_loop_us), 1),
                 eval::fmt(open_loop_p50, 1), eval::fmt(open_loop_p99, 1)});
  table.print(std::cout);
  std::cout << "\nwarm QPS: " << eval::fmt(warm_qps, 1)
            << "  (clients " << shape.clients << ")\n";
  std::cout << "warm speedup over one-shot: " << eval::fmt(speedup, 1)
            << "x\n";
  std::cout << "open-loop: target " << eval::fmt(shape.open_loop_qps, 1)
            << " req/s, achieved " << eval::fmt(open_loop_achieved_qps, 1)
            << " req/s (latency from scheduled arrival)\n";
  {
    std::uint64_t peak = 1;
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      peak = std::max(peak, open_loop_hist.bucket_count(i));
    }
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      const std::uint64_t n = open_loop_hist.bucket_count(i);
      if (n == 0) {
        continue;
      }
      const auto bar = static_cast<std::size_t>(40 * n / peak);
      std::printf("  <%8llu us %6llu %s\n",
                  static_cast<unsigned long long>(obs::Histogram::le_us(i)),
                  static_cast<unsigned long long>(n),
                  std::string(std::max<std::size_t>(bar, 1), '#').c_str());
    }
  }

  // One metric per results row (name/value/unit), the shape `exp_run diff`
  // matches and the other benches emit.
  util::json::Value doc = bench::json_report("bench_service_throughput", opts);
  util::json::Value* results = &doc.set("results", util::json::Value::array());
  auto add_metric = [&](const std::string& name, double value,
                        const char* unit) {
    util::json::Value row = util::json::Value::object();
    row.set("name", util::json::Value(name));
    row.set("value", util::json::Value::number(value, eval::fmt(value, 1)));
    row.set("unit", util::json::Value(unit));
    results->add(std::move(row));
  };
  add_metric("oneshot_mean", oneshot_mean, "us/req");
  add_metric("cold_query_mean", cold_mean, "us/req");
  add_metric("warm_query_mean", warm_mean, "us/req");
  add_metric("warm_query_p50", warm_p50, "us/req");
  add_metric("warm_query_p99", warm_p99, "us/req");
  add_metric("warm_qps", warm_qps, "req/s");
  add_metric("warm_speedup_x", speedup, "x");
  add_metric("open_loop_p50", open_loop_p50, "us/req");
  add_metric("open_loop_p99", open_loop_p99, "us/req");
  add_metric("open_loop_qps", open_loop_achieved_qps, "req/s");
  util::json::Value derived = util::json::Value::object();
  derived.set("open_loop_target_qps",
              util::json::Value::number(shape.open_loop_qps,
                                        eval::fmt(shape.open_loop_qps, 1)));
  {
    // Log2 histogram as {le_us, count} rows so a report consumer can
    // reconstruct the full latency distribution, not just two quantiles.
    util::json::Value hist = util::json::Value::array();
    for (const auto& [le, count] :
         obs::freeze_histogram(open_loop_hist).buckets) {
      if (count == 0) {
        continue;
      }
      util::json::Value bucket = util::json::Value::object();
      bucket.set("le_us", util::json::Value::number(le));
      bucket.set("count", util::json::Value::number(count));
      hist.add(std::move(bucket));
    }
    derived.set("open_loop_histogram", std::move(hist));
  }
  derived.set("files", util::json::Value::number(
                           static_cast<std::uint64_t>(files.size())));
  derived.set("clients", util::json::Value::number(
                             static_cast<std::uint64_t>(shape.clients)));
  derived.set("requests_per_client",
              util::json::Value::number(
                  static_cast<std::uint64_t>(shape.requests_per_client)));
  doc.set("derived", std::move(derived));
  bench::write_json_report(opts, doc);
  return 0;
}
