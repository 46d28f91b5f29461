/// \file service_zipf.cpp
/// `service-zipf`: open-loop queries against an in-process
/// service::ServiceServer on a private AF_UNIX socket. Targets follow a
/// Zipf popularity over a seeded pool of distinct synthetic binaries
/// larger than the result cache, so most queries are hits (framing, mmap
/// plus FNV hash, LRU lookup, rendering) and a steady share are misses
/// that analyse and then insert or evict. It is the only workload that
/// puts service, util/lru and util/framing on the request path.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fetchbench {

using namespace fetch;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kClients = 4;        ///< load connections
constexpr std::size_t kCacheCapacity = 64; ///< a third of the pool
constexpr double kZipfExponent = 1.0;
constexpr double kLatencyLimitMs = 100.0;
/// Open-loop rate of the traced run's measured phase.
constexpr double kNominalQps = 1200.0;
/// The sustained-rate ladder: kLadderBase × kLadderStep^i for i < kRungs.
/// kSearches bisections probe 6 rungs each, kRungSeconds per probe.
constexpr double kLadderBase = 300.0;
constexpr double kLadderStep = 1.06;
constexpr int kRungs = 48;
constexpr int kSearches = 3;
constexpr double kRungSeconds = 0.5;
/// Generator lateness beyond which a run is invalid: the load process,
/// not the server, fell behind its schedule.
constexpr double kMaxLagMs = 10.0;

/// Seeded Zipf draw: the k-th query's pool index, a pure function of
/// (seed, k) so client threads need no shared generator.
class ZipfTargets {
 public:
  ZipfTargets(std::uint64_t seed, std::size_t pool) : seed_(seed) {
    double total = 0;
    for (std::size_t r = 0; r < pool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
    // Popularity rank -> pool index, a seeded permutation.
    rank_to_file_.resize(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      rank_to_file_[i] = i;
    }
    for (std::size_t i = pool; i > 1; --i) {
      std::swap(rank_to_file_[i - 1], rank_to_file_[mix(seed, i) % i]);
    }
  }

  [[nodiscard]] std::size_t at(std::uint64_t k) const {
    const double u =
        static_cast<double>(mix(seed_ ^ 0xa5a5a5a5ULL, k) >> 11) * 0x1p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return rank_to_file_[std::min(rank, rank_to_file_.size() - 1)];
  }

 private:
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_file_;
};

/// A private in-process server; stopped and joined on destruction.
class LocalServer {
 public:
  explicit LocalServer(const std::string& socket_path) {
    service::ServerOptions options;
    options.socket_path = socket_path;
    options.workers = kWorkers;
    options.cache_capacity = kCacheCapacity;
    // One global LRU: with equal-sized pool files the hit ratio then
    // depends on popularity alone, not on how a seed's popular files
    // hash into shards.
    options.cache_shards = 1;
    server_ = std::make_unique<service::ServiceServer>(options);
    if (!server_->start(&error_)) {
      server_.reset();
      return;
    }
    thread_ = std::thread([this] { server_->run(); });
  }
  ~LocalServer() {
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
    }
  }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  [[nodiscard]] bool ok() const { return server_ != nullptr; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::unique_ptr<service::ServiceServer> server_;
  std::thread thread_;
  std::string error_;
};

struct Pool {
  std::vector<std::string> paths;
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> insns;
  /// Pinned over swept instruction count: keeps the pinned total the
  /// denominator even if the decoder's linear-sweep count changes.
  double insn_weight = 1.0;
  std::vector<std::set<std::uint64_t>> truth;
};

/// What one open-loop phase observed.
struct Phase {
  /// From each query's scheduled time, in schedule order.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;      ///< generator wake-up lateness
  std::vector<double> hit_us, miss_us;  ///< send-to-reply time by outcome
  std::uint64_t attempted = 0, failed = 0, errors = 0, shed = 0,
                over_limit = 0, hits = 0, misses = 0, joined = 0;
  /// Instructions of each query's file, in schedule order.
  std::vector<double> insns;
  double bytes_sum = 0;   ///< bytes of the files queried
  double wall_s = 0;      ///< first schedule slot to last reply
};

/// First served rendering of each pool file, for the identity check.
struct Served {
  explicit Served(std::size_t n) : seen(n), json(n) {}
  std::vector<std::atomic<bool>> seen;
  std::vector<std::string> json;
};

/// Sends queries k = 0, 1, ... of the sequence from kClients
/// connections. With \p rate > 0 it is an open loop: query k is due at
/// start + k / rate, its latency runs from that time, and the phase ends
/// after rate × seconds queries. With \p rate == 0 it is a closed loop:
/// each connection sends its next query when the last reply arrives,
/// latency runs from the send, and the phase ends after \p seconds.
Phase run_phase(const std::string& socket, const Pool& pool,
                const ZipfTargets& targets, std::uint64_t first_query,
                double rate, double seconds, Served* served, Tracer* tracer,
                std::string* error) {
  const bool open = rate > 0;
  const auto total =
      open ? static_cast<std::uint64_t>(rate * seconds) : UINT64_MAX;
  std::atomic<std::uint64_t> next{0};
  std::vector<Phase> per_thread(kClients);
  struct Sample {
    std::uint64_t k;
    double latency_ms;
    double insns;
  };
  std::vector<std::vector<Sample>> samples(kClients);
  struct ClientSpan {
    std::uint64_t id;
    Clock::time_point start, end;
    bool hit;
  };
  std::vector<std::vector<ClientSpan>> spans(kClients);
  std::vector<std::string> errors(kClients);
  const auto interval = std::chrono::duration<double>(open ? 1.0 / rate : 0.0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Phase& p = per_thread[c];
      auto client = service::ServiceClient::connect(socket, &errors[c]);
      if (!client) {
        return;
      }
      std::string query_error;
      std::this_thread::sleep_until(t0);
      for (std::uint64_t k = next++;
           k < total && (open || Clock::now() < deadline); k = next++) {
        const auto scheduled =
            open ? t0 + std::chrono::duration_cast<Clock::duration>(
                            interval * static_cast<double>(k))
                 : Clock::now();
        if (scheduled > Clock::now()) {
          std::this_thread::sleep_until(scheduled);
          p.lag_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        scheduled)
                  .count());
        }
        const std::size_t f = targets.at(first_query + k);
        const auto sent = Clock::now();
        const auto reply = client->query(pool.paths[f], &query_error);
        const auto done = Clock::now();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(done - scheduled)
                .count();
        const double service_us =
            std::chrono::duration<double, std::micro>(done - sent).count();
        ++p.attempted;
        samples[c].push_back(
            {k, latency_ms,
             pool.insn_weight * static_cast<double>(pool.insns[f])});
        p.bytes_sum += static_cast<double>(pool.bytes[f]);
        bool failed = false;
        if (!reply) {
          failed = true;
          if (client->last_error_code() == service::kErrOverloaded) {
            ++p.shed;
          } else {
            ++p.errors;
            errors[c] = query_error;
          }
        } else if (!reply->analysis.row.ok) {
          failed = true;
          ++p.errors;
          errors[c] = pool.paths[f] + ": " + reply->analysis.row.error;
        } else {
          const bool hit = reply->cache == "hit";
          if (hit) {
            ++p.hits;
            p.hit_us.push_back(service_us);
          } else if (reply->cache == "joined") {
            ++p.joined;
          } else {
            ++p.misses;
            p.miss_us.push_back(service_us);
          }
          if (tracer != nullptr) {
            spans[c].push_back({first_query + k, sent, done, hit});
          }
          if (!served->seen[f].exchange(true)) {
            served->json[f] = service::analysis_json(reply->analysis).dump();
          }
        }
        if (latency_ms > kLatencyLimitMs) {
          ++p.over_limit;
          failed = true;
        }
        if (failed) {
          ++p.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  Phase out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<Sample> ordered;
  for (const auto& v : samples) {
    ordered.insert(ordered.end(), v.begin(), v.end());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Sample& a, const Sample& b) { return a.k < b.k; });
  for (const Sample& sample : ordered) {
    out.latency_ms.push_back(sample.latency_ms);
    out.insns.push_back(sample.insns);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    const Phase& p = per_thread[c];
    if (!errors[c].empty() && error->empty()) {
      *error = errors[c];
    }
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(out.lag_ms, p.lag_ms);
    append(out.hit_us, p.hit_us);
    append(out.miss_us, p.miss_us);
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.errors += p.errors;
    out.shed += p.shed;
    out.over_limit += p.over_limit;
    out.hits += p.hits;
    out.misses += p.misses;
    out.joined += p.joined;
    out.bytes_sum += p.bytes_sum;
    if (tracer != nullptr) {
      for (const ClientSpan& s : spans[c]) {
        tracer->add(s.hit ? "service.query.hit" : "service.query.miss", s.id,
                    s.start, s.end);
      }
    }
  }
  if (open && out.attempted < total && error->empty()) {
    *error = "only " + std::to_string(out.attempted) + " of " +
             std::to_string(total) + " scheduled queries were sent";
  }
  return out;
}

std::optional<obs::Snapshot> server_metrics(const std::string& socket) {
  std::string error;
  auto client = service::ServiceClient::connect(socket, &error);
  if (!client) {
    return std::nullopt;
  }
  const auto doc = client->metrics(&error);
  if (!doc) {
    return std::nullopt;
  }
  return obs::Snapshot::from_json(*doc, &error);
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters().find(name);
  return it == s.counters().end() ? 0 : it->second;
}

/// p99 upper bound (µs) of the histogram growth between two snapshots.
double histogram_p99_delta(const obs::Snapshot& before,
                           const obs::Snapshot& after,
                           const std::string& name) {
  std::map<std::uint64_t, std::uint64_t> buckets;
  auto it = after.histograms().find(name);
  if (it == after.histograms().end()) {
    return 0.0;
  }
  for (const auto& [le, n] : it->second.buckets) {
    buckets[le] += n;
  }
  if (auto b = before.histograms().find(name); b != before.histograms().end()) {
    for (const auto& [le, n] : b->second.buckets) {
      buckets[le] -= n;
    }
  }
  std::uint64_t total = 0;
  for (const auto& [le, n] : buckets) {
    total += n;
  }
  std::uint64_t seen = 0;
  for (const auto& [le, n] : buckets) {
    seen += n;
    if (static_cast<double>(seen) >= 0.99 * static_cast<double>(total)) {
      return static_cast<double>(le);
    }
  }
  return 0.0;
}

}  // namespace

Result run_service_zipf(const RunArgs& args, const Pins& pins) {
  Result result;
  namespace fs = std::filesystem;
  const std::size_t pool_size = args.smoke ? 12 : kServicePoolFiles;
  const std::string socket =
      fs::relative(fs::path(args.out_dir) / "svc.sock").string();
  Pool pool;
  std::string digest;
  std::string error;
  std::unique_ptr<LocalServer> server;
  std::uint64_t insns_total = 0;
  std::unique_ptr<ZipfTargets> targets;
  // Queries issued so far; every phase continues the one Zipf sequence.
  std::uint64_t cursor = 0;
  auto discard = std::make_unique<Served>(pool_size);

  // Set-up: generate and write the pool, start the server, and warm its
  // cache with the head of the query sequence. Runs five times (median
  // reported); the last server stays up.
  result.metrics["setup_s"] = timed_setups(5, [&](bool) {
    server.reset();
    const auto draw = service_pool(args.seed, pool_size);
    pool = Pool{};
    pool.paths = write_draw(draw, args.out_dir + "/pool", &error);
    digest = draw_digest(draw);
    insns_total = 0;
    for (const auto& bin : draw) {
      pool.bytes.push_back(bin.image.size());
      pool.insns.push_back(linear_sweep_insns(bin.image));
      pool.truth.push_back(bin.truth.starts);
      insns_total += pool.insns.back();
    }
    for (std::string& p : pool.paths) {
      p = fs::absolute(p).string();
    }
    server = std::make_unique<LocalServer>(socket);
    if (!server->ok()) {
      error = server->error();
      return;
    }
    targets = std::make_unique<ZipfTargets>(args.seed, pool_size);
    discard = std::make_unique<Served>(pool_size);
    const double warm_queries = 3.0 * static_cast<double>(pool_size);
    const Phase warm =
        run_phase(socket, pool, *targets, 0, kNominalQps,
                  warm_queries / kNominalQps, discard.get(), nullptr, &error);
    cursor = warm.attempted;
  });
  if (pool.paths.empty() || server == nullptr || !server->ok() ||
      !error.empty()) {
    result.fail("service set-up failed: " + error);
    return result;
  }
  pool.insn_weight =
      static_cast<double>(check_draw_pin(pins, "service-zipf", args, digest,
                                         insns_total, &result)) /
      static_cast<double>(insns_total);
  if (!result.correct) {
    return result;
  }

  Served served(pool_size);
  // The ladder's 18 probes take 9 s; the measured phase the rest.
  const double phase_s =
      args.smoke ? 0.5
                 : std::max(1.0, args.seconds - 6 * kSearches * kRungSeconds);
  Tracer tracer;

  // The end-to-end latency figures come from a closed loop of kClients
  // connections. Open-loop latency at a fixed rate is kept for the traced
  // run: on a host with multi-millisecond stalls it spread too widely
  // between runs to carry a regression bound (see README.md).
  reset_peak_rss();
  const auto before = server_metrics(socket);
  const Phase measured =
      args.trace ? run_phase(socket, pool, *targets, cursor, kNominalQps,
                             phase_s, &served, &tracer, &error)
                 : run_phase(socket, pool, *targets, cursor, 0.0, phase_s,
                             &served, nullptr, &error);
  cursor += measured.attempted;
  const auto after = server_metrics(socket);
  result.attempted = measured.attempted;
  result.failed = measured.failed;
  if (!error.empty()) {
    result.fail("measured phase: " + error);
  }
  if (measured.errors != 0) {
    result.fail(std::to_string(measured.errors) +
                " queries failed (error rows or transport)");
  }
  std::cerr << "service-zipf " << (args.trace ? "open loop" : "closed loop")
            << ": " << measured.attempted << " queries (latency samples), "
            << measured.hits << " hits, " << measured.misses << " misses, "
            << measured.joined << " joined, " << measured.shed << " shed, "
            << measured.over_limit << " over " << kLatencyLimitMs << " ms\n";

  double sustained = 0;
  std::vector<double> lag_ms = measured.lag_ms;
  if (!args.trace) {
    // The highest rate on the fixed ladder whose p99 stays within the
    // limit with no failures and no growing backlog (the rung ends on
    // schedule), found by bisection over the ladder's rungs. Three
    // searches; the median rate is reported, so one noisy probe does not
    // decide the figure.
    const double rung_s = args.smoke ? 0.2 : kRungSeconds;
    std::vector<double> found;
    for (int search = 0; search < kSearches; ++search) {
      int pass_rung = -1;
      int fail_rung = kRungs;
      while (fail_rung - pass_rung > 1) {
        const int mid = (pass_rung + fail_rung) / 2;
        const double rate = kLadderBase * std::pow(kLadderStep, mid);
        std::string rung_error;
        const Phase rung = run_phase(socket, pool, *targets, cursor, rate,
                                     rung_s, &served, nullptr, &rung_error);
        cursor += rung.attempted;
        lag_ms.insert(lag_ms.end(), rung.lag_ms.begin(), rung.lag_ms.end());
        const double p99 = percentile(rung.latency_ms, 0.99);
        const bool pass = rung_error.empty() && rung.failed == 0 &&
                          p99 <= kLatencyLimitMs &&
                          rung.wall_s <= rung_s + kLatencyLimitMs / 1e3;
        std::cerr << "  rung " << mid << " at " << rate << "/s: p99 " << p99
                  << " ms, " << rung.failed << " failed, wall "
                  << rung.wall_s << " s" << (pass ? "" : "  <- over the limit")
                  << "\n";
        (pass ? pass_rung : fail_rung) = mid;
      }
      found.push_back(pass_rung < 0 ? 0.0
                                    : kLadderBase *
                                          std::pow(kLadderStep, pass_rung));
    }
    sustained = median(found);
  }
  // The open loop is valid only if the generator kept its schedule.
  const double lag_p99 = percentile(lag_ms, 0.99);
  std::cerr << "open-loop generator lag p99 " << lag_p99 << " ms over "
            << lag_ms.size() << " arrivals\n";
  if (lag_p99 > kMaxLagMs) {
    result.fail("invalid run: the load generator ran " +
                std::to_string(lag_p99) + " ms late at p99 (limit " +
                std::to_string(kMaxLagMs) + " ms)");
  }
  result.metrics["peak_rss_mib"] = peak_rss_mib();

  // Correctness: every distinct pool file is served at least once and
  // byte-identical to a local one-shot analysis of the same path.
  {
    auto client = service::ServiceClient::connect(socket, &error);
    for (std::size_t f = 0; client && f < pool_size; ++f) {
      if (!served.seen[f]) {
        const auto reply = client->query(pool.paths[f], &error);
        if (reply) {
          served.seen[f] = true;
          served.json[f] = service::analysis_json(reply->analysis).dump();
        }
      }
    }
  }
  const eval::AnalysisSession session;
  eval::MatchStats scored;
  for (std::size_t f = 0; f < pool_size; ++f) {
    const eval::FileAnalysis local =
        session.analyze_file(pool.paths[f], eval::AnalysisSession::Detail::kFull);
    if (!served.seen[f] ||
        served.json[f] != service::analysis_json(local).dump()) {
      result.fail(pool.paths[f] +
                  ": served result differs from a local analysis");
      continue;
    }
    // Precision and recall against the generator's truth.
    scored.truth += pool.truth[f].size();
    scored.detected += local.functions.size();
    for (const auto& [addr, provenance] : local.functions) {
      scored.tp += pool.truth[f].count(addr);
    }
  }

  if (args.trace) {
    LayerTotals totals;
    for (std::size_t f = 0; f < pool_size; ++f) {
      if (!trace_file(pool.paths[f], f, /*sidecar_truth=*/false, &tracer,
                      &totals, &error)) {
        result.fail(error);
      }
    }
    set_layer_metrics(totals, &result);
    auto& m = result.metrics;
    const double lookups =
        static_cast<double>(measured.hits + measured.misses + measured.joined);
    m["service.hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(measured.hits) / lookups;
    m["service.hit_query_us_p50"] = percentile(measured.hit_us, 0.5);
    m["service.miss_query_us_p50"] = percentile(measured.miss_us, 0.5);
    m["service.joined"] = static_cast<double>(measured.joined);
    m["loadgen.lag_p99_ms"] = lag_p99;
    if (before && after) {
      m["service.shed_total"] = static_cast<double>(
          counter(*after, "service_queries_shed_total") -
          counter(*before, "service_queries_shed_total"));
      m["service.queue_wait_us_p99"] =
          histogram_p99_delta(*before, *after, "service_queue_wait_us");
      m["util.lru_evictions"] =
          static_cast<double>(counter(*after, "cache_evictions_total") -
                              counter(*before, "cache_evictions_total"));
    } else {
      result.fail("cannot read the server's metrics");
    }
    write_trace(tracer, args);
    return result;
  }

  auto& m = result.metrics;
  m["query_p50_ms"] = percentile(measured.latency_ms, 0.5);
  m["query_p99_ms"] = windowed_p99(measured.latency_ms);
  {
    // Summed latency over summed instructions, per fifth of the phase;
    // the median fifth is reported, like query_p99_ms.
    std::vector<double> per_window;
    const std::size_t n = measured.latency_ms.size();
    for (std::size_t w = 0; w < 5; ++w) {
      double us = 0;
      double insns = 0;
      for (std::size_t i = n * w / 5; i < n * (w + 1) / 5; ++i) {
        us += measured.latency_ms[i] * 1e3;
        insns += measured.insns[i];
      }
      per_window.push_back(insns == 0 ? 0.0 : us / insns);
    }
    m["us_per_insn"] = median(per_window);
  }
  // Input the service sustains: the sustained rate times the mean size
  // of a queried file.
  m["input_mib_per_s"] = sustained * measured.bytes_sum /
                         static_cast<double>(measured.attempted) /
                         (1024.0 * 1024.0);
  m["ok_ratio"] = static_cast<double>(measured.attempted - measured.failed) /
                  static_cast<double>(measured.attempted);
  m["sustained_qps"] = sustained;
  m["precision"] = scored.precision();
  m["recall"] = scored.recall();
  m["f1"] = scored.f1();
  return result;
}

}  // namespace fetchbench
