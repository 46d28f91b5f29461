/// \file synth_corpus.cpp
/// `synth-corpus`: a seeded draw of many small synthetic binaries through
/// eval::run_batch with generator-truth sidecars. Per-file fixed costs
/// (ELF and .eh_frame parse, CodeView construction, scoring), decode and
/// the batch thread pool dominate here, the layers realbin-large hides.

#include <iostream>

#include "bench.hpp"
#include "eval/batch.hpp"
#include "synth/spec.hpp"

namespace fetchbench {

using namespace fetch;

namespace {

/// Batch workers; the container this was tuned on has 4 cores.
constexpr std::size_t kJobs = 4;
/// Files per run_batch call, the workload's unit of latency.
constexpr std::size_t kBatchFiles = 16;

}  // namespace

Result run_synth_corpus(const RunArgs& args, const Pins& pins) {
  Result result;
  const std::size_t count = args.smoke ? 8 : kSynthCorpusFiles;
  std::vector<std::string> paths;
  std::uint64_t draw_bytes = 0;
  std::uint64_t insns = 0;
  std::string digest;
  std::string error;
  result.metrics["setup_s"] = timed_setups(5, [&](bool) {
    const auto draw = synth_corpus_draw(args.seed, count);
    paths = write_draw(draw, args.out_dir + "/synth", &error);
    digest = draw_digest(draw);
    draw_bytes = 0;
    insns = 0;
    for (const synth::SynthBinary& bin : draw) {
      draw_bytes += bin.image.size();
      insns += linear_sweep_insns(bin.image);
    }
  });
  if (paths.empty()) {
    result.fail("cannot write the synthetic draw: " + error);
    return result;
  }
  insns = check_draw_pin(pins, "synth-corpus", args, digest, insns, &result);
  if (!result.correct) {
    return result;
  }

  eval::BatchOptions options;
  options.jobs = kJobs;
  options.truth = eval::TruthMode::kSidecar;

  if (args.trace) {
    Tracer tracer;
    LayerTotals totals;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      ++result.attempted;
      if (!trace_file(paths[i], i, /*sidecar_truth=*/true, &tracer, &totals,
                      &error)) {
        ++result.failed;
        result.fail(error);
      }
    }
    set_layer_metrics(totals, &result);
    // Thread-pool efficiency: single-thread session time over the batch
    // engine's wall time times its workers.
    ScopedSpan span(&tracer, "eval.run_batch", paths.size());
    const auto start = Clock::now();
    const eval::BatchReport report = eval::run_batch(paths, options);
    const double wall_us = seconds_since(start) * 1e6;
    span.finish();
    result.metrics["eval.batch_utilization"] =
        totals.untraced_session_us / (wall_us * static_cast<double>(kJobs));
    if (report.error_count() != 0) {
      result.fail("run_batch reported error rows");
    }
    write_trace(tracer, args);
    return result;
  }

  // The draw split into fixed chunks; each run_batch call takes the next.
  std::vector<std::vector<std::string>> chunks;
  for (std::size_t i = 0; i < paths.size(); i += kBatchFiles) {
    chunks.emplace_back(paths.begin() + static_cast<std::ptrdiff_t>(i),
                        paths.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            paths.size(), i + kBatchFiles)));
  }
  const std::size_t n = chunks.size();

  reset_peak_rss();
  std::vector<std::vector<double>> per_chunk_s(n);
  std::vector<double> latencies_ms;
  std::vector<eval::BatchTotals> first(n);
  std::size_t done_chunks = 0;
  const auto start = Clock::now();
  for (std::size_t k = args.seed % n;
       seconds_since(start) < args.seconds || done_chunks < n; ++k) {
    const std::size_t c = k % n;
    const auto t0 = Clock::now();
    const eval::BatchReport report = eval::run_batch(chunks[c], options);
    const double s = seconds_since(t0);
    eval::BatchTotals totals;
    for (const eval::BatchRow& row : report.rows()) {
      ++result.attempted;
      if (!row.ok) {
        ++result.failed;
        result.fail(row.path + ": " + row.error);
      } else if (row.truth_source != "sidecar") {
        result.fail(row.path + ": expected sidecar truth, got " +
                    row.truth_source);
      }
      totals.add(row);
    }
    per_chunk_s[c].push_back(s);
    latencies_ms.push_back(s * 1e3);
    if (per_chunk_s[c].size() == 1) {
      first[c] = totals;
      ++done_chunks;
    } else if (totals.tp != first[c].tp || totals.fp != first[c].fp ||
               totals.fn != first[c].fn) {
      result.fail("repeated run_batch changed its scores");
    }
  }
  result.metrics["peak_rss_mib"] = peak_rss_mib();

  double pass_s = 0;
  eval::MatchStats scored;
  for (std::size_t c = 0; c < n; ++c) {
    pass_s += median(per_chunk_s[c]);
    scored.truth += first[c].truth;
    scored.detected += first[c].detected;
    scored.tp += first[c].tp;
  }
  result.metrics["input_mib_per_s"] =
      static_cast<double>(draw_bytes) / (1024.0 * 1024.0) / pass_s;
  result.metrics["us_per_insn"] = pass_s * 1e6 / static_cast<double>(insns);
  result.metrics["sustained_qps"] = static_cast<double>(paths.size()) / pass_s;
  result.metrics["precision"] = scored.precision();
  result.metrics["recall"] = scored.recall();
  result.metrics["f1"] = scored.f1();
  result.metrics["query_p50_ms"] = percentile(latencies_ms, 0.5);
  result.metrics["query_p99_ms"] = windowed_p99(latencies_ms);
  result.metrics["ok_ratio"] =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(result.attempted);
  std::cerr << "synth-corpus: " << paths.size() << " files ("
            << draw_bytes << " bytes, " << insns << " insns), "
            << latencies_ms.size() << " run_batch calls of " << kBatchFiles
            << " files (latency samples)\n";
  return result;
}

}  // namespace fetchbench
