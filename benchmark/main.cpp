/// \file main.cpp
/// The repository benchmark: one command, three workloads.
///
///   fetchbench --workload realbin-large|synth-corpus|service-zipf
///              --seed N --seconds S --trace 0|1 [--smoke]
///              [--pins benchmark/pins.json] [--out-dir .bench_out]
///   fetchbench --pin [--max-seed N] ELF...
///
/// The last stdout line is one JSON object {"correct", "attempted",
/// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
/// per-layer metrics with --trace 1. Diagnostics and a readable metric
/// table go to stderr. The exit code is 0 only when every correctness
/// check passed. README.md in this directory defines every metric.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using fetchbench::Result;
using fetchbench::RunArgs;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in the order and with the units of BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"input_mib_per_s", "MiB/s"},
    {"us_per_insn", "us"},     {"peak_rss_mib", "MiB"},
    {"precision", "ratio"},    {"recall", "ratio"},
    {"f1", "ratio"},           {"ok_ratio", "ratio"},
    {"query_p50_ms", "ms"},    {"query_p99_ms", "ms"},
    {"sustained_qps", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"elf.parse_us", "us"},
    {"elf.truth_us", "us"},
    {"ehframe.parse_us", "us"},
    {"ehframe.fdes", "count"},
    {"disasm.codeview_build_us", "us"},
    {"x86.decode_ns_per_insn", "ns"},
    {"x86.decoded_insns", "count"},
    {"analysis.callconv_us", "us"},
    {"analysis.callconv_rejected", "count"},
    {"disasm.analyze_us", "us"},
    {"disasm.explore_us", "us"},
    {"disasm.noreturn_us", "us"},
    {"disasm.functions", "count"},
    {"disasm.insn_starts", "count"},
    {"disasm.xref_targets", "count"},
    {"core.pointer_detect_us", "us"},
    {"core.pointer_probed", "count"},
    {"core.pointer_accepted", "count"},
    {"core.pointer_accept_ratio", "ratio"},
    {"disasm.reanalyze_us", "us"},
    {"analysis.data_ptr_scan_us", "us"},
    {"core.alg1_us", "us"},
    {"core.alg1_merged", "count"},
    {"core.alg1_tail_targets", "count"},
    {"core.alg1_skipped_incomplete", "count"},
    {"core.detect_us", "us"},
    {"core.replay_gap_us", "us"},
    {"eval.session_us_p50", "us"},
    {"eval.session_us_p99", "us"},
    {"eval.score_us", "us"},
    {"eval.batch_utilization", "ratio"},
    {"service.hit_ratio", "ratio"},
    {"service.hit_query_us_p50", "us"},
    {"service.miss_query_us_p50", "us"},
    {"service.joined", "count"},
    {"service.shed_total", "count"},
    {"service.queue_wait_us_p99", "us"},
    {"util.lru_evictions", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage() {
  std::cerr << "usage: fetchbench --workload realbin-large|synth-corpus|"
               "service-zipf --seed N --seconds S --trace 0|1 [--smoke] "
               "[--pins FILE] [--out-dir DIR]\n"
               "       fetchbench --pin [--max-seed N] ELF...\n";
  std::exit(2);
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

/// Prints the readable table (stderr) and the result line (stdout).
/// Per-layer metrics a workload does not exercise (service counters on
/// the closed-loop workloads, say) are reported as 0.
bool emit(Result& result, bool trace) {
  std::vector<std::pair<MetricDef, double>> values;
  if (trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = result.metrics.find(def.name);
      values.emplace_back(def, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = result.metrics.find(def.name);
      if (it == result.metrics.end()) {
        if (result.correct) {
          result.fail(std::string("metric not measured: ") + def.name);
        }
      } else {
        values.emplace_back(def, it->second);
      }
    }
  }
  std::cerr << "\n";
  std::string line = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& [def, value] = values[i];
    std::fprintf(stderr, "  %-30s %16.6f %s\n", def.name, value, def.unit);
    line += std::string(i == 0 ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            def.unit + "\"}";
  }
  line += "}}";
  for (const std::string& error : result.errors) {
    std::cerr << "error: " << error << "\n";
  }
  std::cout << line << std::endl;
  return result.correct;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = ".bench_out";
  std::string pins_path = "benchmark/pins.json";
  bool pin = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  std::uint64_t max_seed = 99;
  std::vector<std::string> pin_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = next();
        have_workload = true;
      } else if (arg == "--seed") {
        args.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        args.seconds = std::stod(next());
        have_seconds = args.seconds > 0;
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") {
          usage();
        }
        args.trace = v == "1";
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else if (arg == "--pins") {
        pins_path = next();
      } else if (arg == "--out-dir") {
        args.out_dir = next();
      } else if (arg == "--pin") {
        pin = true;
      } else if (arg == "--max-seed") {
        max_seed = std::stoull(next());
      } else if (pin && arg.rfind("--", 0) != 0) {
        pin_paths.push_back(arg);
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (pin) {
    return fetchbench::print_pins(pin_paths, max_seed);
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage();
  }

  std::string error;
  const auto pins = fetchbench::load_pins(pins_path, &error);
  if (!pins) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  // Generated inputs live in a per-process directory under the output
  // directory and are removed on exit; trace files stay.
  namespace fs = std::filesystem;
  const fs::path run_dir =
      fs::absolute(args.out_dir) / ("run-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << run_dir << "\n";
    return 2;
  }
  RunArgs run_args = args;
  run_args.out_dir = run_dir.string();

  Result result;
  if (args.workload == "realbin-large") {
    result = fetchbench::run_realbin_large(run_args, *pins);
  } else if (args.workload == "synth-corpus") {
    result = fetchbench::run_synth_corpus(run_args, *pins);
  } else if (args.workload == "service-zipf") {
    result = fetchbench::run_service_zipf(run_args, *pins);
  } else {
    std::cerr << "error: unknown workload " << args.workload << "\n";
    fs::remove_all(run_dir, ec);
    return 2;
  }
  fs::remove_all(run_dir, ec);
  return emit(result, args.trace) ? 0 : 1;
}
