#pragma once

/// \file common.hpp
/// Shared scaffolding for the per-table/figure benchmark binaries: corpus
/// loading, the FETCH strategy-ladder configurations, aggregate printing,
/// and the command-line knobs every bench understands:
///
///   --jobs N         worker threads for corpus generation and the
///                    (entry × strategy) cells (default: FETCH_JOBS env,
///                    else hardware concurrency)
///   --scale S        corpus population: smoke (8 entries), default (176),
///                    full (the paper-scale 1,632 ≥ 1,352 set)
///   --smoke          alias for --scale smoke (ctest smoke runs)
///   --cache-dir D    content-addressed corpus cache root (default: the
///                    FETCH_CACHE_DIR env var; unset/empty = no cache).
///                    Repeated runs with the same spec load instead of
///                    regenerate. Unusable paths are rejected up front.
///   --json PATH      additionally emit the bench's results as a
///                    machine-readable JSON document (schema
///                    "fetch-bench-v1"); numbers in the file are the exact
///                    formatted strings printed in the human table.
///                    Currently wired into bench_micro and
///                    bench_table5_runtime.
///   --predecode      eagerly pre-decode every corpus entry's executable
///                    sections (sharded linear sweep on the thread pool)
///                    before any strategy runs, so cells execute on a warm
///                    decode cache.
///
/// Every bench is standalone: it materializes the corpus (cache or
/// generation), runs its strategies, and prints the rows of the paper
/// artifact it regenerates. Corpus provenance goes to stderr so stdout
/// stays byte-comparable across job counts and cache states.

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "eval/table.hpp"
#include "util/cli.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace fetch::bench {

struct BenchOptions {
  std::size_t jobs = 0;  ///< 0 → util::default_jobs()
  synth::Scale scale = synth::Scale::kDefault;
  std::string cache_dir;  ///< validated; empty = caching disabled
  std::string json_path;  ///< empty = no JSON output
  bool predecode = false;

  [[nodiscard]] std::size_t effective_jobs() const {
    return jobs == 0 ? util::default_jobs() : jobs;
  }

  [[nodiscard]] eval::CorpusOptions corpus_options() const {
    return {scale, jobs, cache_dir};
  }
};

/// Parses the harness-wide flags plus a bench's own \p extra rows (each
/// bench's usage line lists only the common set). When \p passthrough is
/// non-null, unrecognized flags are appended there instead of being a
/// usage error — bench_micro uses this to forward google-benchmark flags;
/// every other bench rejects unknowns. Benches take no positionals.
inline BenchOptions parse_args(int argc, char** argv,
                               std::vector<util::cli::Option> extra = {},
                               std::vector<char*>* passthrough = nullptr) {
  namespace cli = util::cli;
  BenchOptions options;
  options.cache_dir = util::default_cache_dir();
  std::vector<cli::Option> rows = {
      {"--smoke", false,
       [&options](std::string_view) {
         options.scale = synth::Scale::kSmoke;  // alias for --scale smoke
         return true;
       },
       {}},
      cli::parsed("--scale", &options.scale, synth::parse_scale),
      cli::count("--jobs", &options.jobs),
      cli::text("--cache-dir", &options.cache_dir),
      cli::text("--json", &options.json_path),
      cli::flag("--predecode", &options.predecode)};
  for (cli::Option& row : extra) {
    rows.push_back(std::move(row));
  }
  cli::Parser parser(std::string("usage: ") + argv[0] +
                         " [--smoke] [--scale smoke|default|full] [--jobs N]"
                         " [--cache-dir DIR] [--json PATH] [--predecode]\n",
                     std::move(rows), passthrough != nullptr);
  if (!parser.parse(argc, argv)) {
    std::exit(2);
  }
  if (!parser.positionals().empty()) {
    std::exit(parser.fail("unexpected argument " + parser.positionals()[0]));
  }
  if (passthrough != nullptr) {
    passthrough->insert(passthrough->end(), parser.passthrough().begin(),
                        parser.passthrough().end());
  }
  // Validate the cache directory (flag or FETCH_CACHE_DIR) up front, the
  // same way --jobs is validated: fail loudly before any work happens.
  if (!options.cache_dir.empty()) {
    std::string error;
    if (!util::prepare_cache_dir(&options.cache_dir, &error)) {
      std::cerr << argv[0] << ": --cache-dir/FETCH_CACHE_DIR: " << error
                << "\n";
      std::exit(2);
    }
  }
  return options;
}

inline void note_provenance(const eval::Corpus& corpus) {
  std::cerr << "corpus: " << corpus.size() << " entries ("
            << (corpus.from_cache() ? "loaded from cache" : "generated")
            << ")\n";
}

/// Root document of a "fetch-bench-v1" JSON report. Benches append rows
/// under "results" and derived scalars under "derived", then call
/// write_json_report.
[[nodiscard]] inline util::json::Value json_report(const std::string& bench,
                                                   const BenchOptions& opts) {
  util::json::Value doc = util::json::Value::object();
  doc.set("schema", util::json::Value("fetch-bench-v1"));
  doc.set("bench", util::json::Value(bench));
  doc.set("scale", util::json::Value(synth::scale_name(opts.scale)));
  doc.set("jobs", util::json::Value::number(
                      static_cast<std::uint64_t>(opts.effective_jobs())));
  doc.set("results", util::json::Value::array());
  return doc;
}

/// Writes the report to \p opts.json_path (no-op when --json was not
/// given). Fails loudly: an unwritable path aborts the bench.
inline void write_json_report(const BenchOptions& opts,
                              const util::json::Value& doc) {
  if (opts.json_path.empty()) {
    return;
  }
  std::string error;
  if (!util::write_text_file(opts.json_path, doc.dump() + "\n", &error)) {
    std::cerr << "error: --json: " << error << "\n";
    std::exit(2);
  }
  std::cerr << "json report: " << opts.json_path << "\n";
}

/// Honors --predecode: eagerly decodes every entry's executable sections
/// (sharded linear sweep) so the strategy cells below run entirely on a
/// warm decode cache. Provenance goes to stderr like the corpus note.
inline void maybe_predecode(const eval::Corpus& corpus,
                            const BenchOptions& opts) {
  if (!opts.predecode) {
    return;
  }
  std::uint64_t records = 0;
  for (const eval::CorpusEntry& entry : corpus.entries()) {
    const disasm::CodeView& code = entry.detector().code();
    code.predecode(opts.effective_jobs());
    records += code.decoded_records();
  }
  std::cerr << "predecode: " << records << " instructions across "
            << corpus.size() << " entries\n";
}

inline eval::Corpus self_built_corpus(const BenchOptions& options) {
  eval::Corpus corpus = eval::Corpus::self_built(options.corpus_options());
  note_provenance(corpus);
  maybe_predecode(corpus, options);
  return corpus;
}

inline eval::Corpus wild_corpus(const BenchOptions& options) {
  eval::Corpus corpus = eval::Corpus::wild(options.corpus_options());
  note_provenance(corpus);
  maybe_predecode(corpus, options);
  return corpus;
}

/// FDE-only detection (§IV-B): raw PC Begin values.
inline std::set<std::uint64_t> run_fde_only(const eval::CorpusEntry& entry) {
  core::DetectorOptions options;
  options.recursive = false;
  options.pointer_detection = false;
  options.fix_fde_errors = false;
  options.use_entry_point = false;
  return entry.detector().run(options).starts();
}

/// FDE + safe recursive disassembly (§IV-C).
inline std::set<std::uint64_t> run_fde_rec(const eval::CorpusEntry& entry) {
  core::DetectorOptions options = eval::fetch_options(entry.bin.truth);
  options.pointer_detection = false;
  options.fix_fde_errors = false;
  return entry.detector().run(options).starts();
}

/// FDE + recursion + function-pointer detection (§IV-E, "Xref").
inline std::set<std::uint64_t> run_fde_rec_xref(
    const eval::CorpusEntry& entry) {
  core::DetectorOptions options = eval::fetch_options(entry.bin.truth);
  options.fix_fde_errors = false;
  return entry.detector().run(options).starts();
}

/// The full FETCH pipeline (§VI).
inline std::set<std::uint64_t> run_fetch(const eval::CorpusEntry& entry) {
  return entry.detector().run(eval::fetch_options(entry.bin.truth)).starts();
}

/// Prints one "Figure 5" style ladder row.
inline void add_ladder_row(eval::TextTable& table, const std::string& name,
                           const eval::Aggregate& agg) {
  table.add_row({name, std::to_string(agg.full_coverage),
                 std::to_string(agg.full_accuracy),
                 std::to_string(agg.fp_total), std::to_string(agg.fn_total)});
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "reproduces: " << paper << "\n\n";
}

}  // namespace fetch::bench
