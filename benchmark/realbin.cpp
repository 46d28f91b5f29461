/// \file realbin.cpp
/// `realbin-large`: one analysis at a time over pinned large host ELFs.
/// detect is ≥99% of the time here, so the disasm, analysis and core
/// passes show; ELF, .eh_frame and decode costs barely register.

#include <iostream>

#include "bench.hpp"
#include "eval/session.hpp"
#include "util/fs.hpp"

namespace fetchbench {

using namespace fetch;

Result run_realbin_large(const RunArgs& args, const Pins& pins) {
  Result result;
  std::vector<PinnedFile> files = pins.realbin;
  if (args.smoke) {
    // The smallest pinned file with symbol-table truth.
    std::vector<PinnedFile> smallest;
    for (const PinnedFile& f : files) {
      if (f.symtab_truth && (smallest.empty() || f.size < smallest[0].size)) {
        smallest = {f};
      }
    }
    files = smallest;
  }
  if (files.empty()) {
    result.fail("no realbin-large inputs pinned");
    return result;
  }

  // Set-up: every pinned input must be present with its pinned bytes; a
  // missing or changed file fails the run, never substitutes another.
  result.metrics["setup_s"] = timed_setups(5, [&](bool last) {
    for (const PinnedFile& f : files) {
      std::vector<std::uint8_t> bytes;
      std::string problem;
      if (!util::read_file_bytes(f.path, &bytes)) {
        problem = "missing";
      } else if (bytes.size() != f.size) {
        problem = "size " + std::to_string(bytes.size()) + " != pinned " +
                  std::to_string(f.size);
      } else if (fnv_hex(bytes) != f.fnv1a) {
        problem = "content hash " + fnv_hex(bytes) + " != pinned " + f.fnv1a;
      }
      if (last && !problem.empty()) {
        result.fail("pinned input " + f.path + ": " + problem +
                    " (re-pin on a new host, see benchmark/README.md)");
      }
    }
  });
  if (!result.correct) {
    return result;
  }
  const std::size_t n = files.size();

  if (args.trace) {
    Tracer tracer;
    LayerTotals totals;
    for (std::size_t i = 0; i < n; ++i) {
      std::string error;
      ++result.attempted;
      if (!trace_file(files[i].path, i, /*sidecar_truth=*/false, &tracer,
                      &totals, &error)) {
        ++result.failed;
        result.fail(error);
      }
    }
    set_layer_metrics(totals, &result);
    write_trace(tracer, args);
    return result;
  }

  reset_peak_rss();
  const eval::AnalysisSession session;
  std::vector<std::vector<double>> per_file_s(n);
  std::vector<double> latencies_ms;
  std::vector<eval::BatchRow> first_rows(n);
  const auto start = Clock::now();
  // Closed loop from a seed-chosen file, until the time is up and every
  // file has been analysed at least once.
  std::size_t done_files = 0;
  for (std::size_t k = args.seed % n;
       seconds_since(start) < args.seconds || done_files < n; ++k) {
    const std::size_t i = k % n;
    const auto t0 = Clock::now();
    const eval::FileAnalysis fa =
        session.analyze_file(files[i].path, eval::AnalysisSession::Detail::kFull);
    const double s = seconds_since(t0);
    ++result.attempted;
    if (!fa.row.ok) {
      ++result.failed;
      result.fail(files[i].path + ": " + fa.row.error);
      continue;
    }
    if (files[i].symtab_truth && fa.row.truth_source != "symtab") {
      result.fail(files[i].path + ": expected symtab truth, got " +
                  fa.row.truth_source);
    }
    per_file_s[i].push_back(s);
    latencies_ms.push_back(s * 1e3);
    if (per_file_s[i].size() == 1) {
      first_rows[i] = fa.row;
      ++done_files;
    } else if (fa.row.tp != first_rows[i].tp ||
               fa.row.fp != first_rows[i].fp ||
               fa.row.detected != first_rows[i].detected) {
      result.fail(files[i].path + ": repeated analysis changed its output");
    }
  }
  result.metrics["peak_rss_mib"] = peak_rss_mib();

  // One pass over the pinned set, from each file's median time, so the
  // figures do not depend on which files a run happened to repeat.
  double pass_s = 0;
  double bytes = 0;
  double insns = 0;
  eval::MatchStats scored;
  for (std::size_t i = 0; i < n; ++i) {
    pass_s += median(per_file_s[i]);
    bytes += static_cast<double>(files[i].size);
    insns += static_cast<double>(files[i].insns);
    // Precision and recall only against independent truth: the
    // .symtab of the sanitizer runtimes. Stripped files are never scored
    // against .dynsym, which lists exports only.
    if (files[i].symtab_truth) {
      scored.truth += first_rows[i].truth;
      scored.detected += first_rows[i].detected;
      scored.tp += first_rows[i].tp;
    }
  }
  result.metrics["input_mib_per_s"] = bytes / (1024.0 * 1024.0) / pass_s;
  result.metrics["us_per_insn"] = pass_s * 1e6 / insns;
  result.metrics["sustained_qps"] = static_cast<double>(n) / pass_s;
  result.metrics["precision"] = scored.precision();
  result.metrics["recall"] = scored.recall();
  result.metrics["f1"] = scored.f1();
  result.metrics["query_p50_ms"] = percentile(latencies_ms, 0.5);
  result.metrics["query_p99_ms"] = percentile(latencies_ms, 0.99);
  result.metrics["ok_ratio"] =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(result.attempted);
  std::cerr << "realbin-large: " << n << " files, " << latencies_ms.size()
            << " analyses (latency samples)\n";
  return result;
}

}  // namespace fetchbench
