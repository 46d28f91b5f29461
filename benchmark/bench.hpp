#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark (see README.md in this
/// directory): run arguments, the metric record every workload fills,
/// sample statistics, peak-RSS control, the span recorder of the traced
/// run, input pins, and the per-layer replay of one ELF image.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "synth/spec.hpp"

namespace fetchbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases, for the benchmark's own test.
  bool smoke = false;
  /// Scratch directory for generated inputs and trace files.
  std::string out_dir;
};

/// One workload run's outcome. Workloads set the metrics they measure;
/// main() checks that every declared metric of the mode is present.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
};

// --- Statistics ---------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}
/// p99 of \p samples (in time order) as the median of the p99s of five
/// consecutive windows, so one burst of host noise moves one window.
[[nodiscard]] double windowed_p99(const std::vector<double>& samples);

// --- Memory -------------------------------------------------------------------

/// Resets the process's peak-RSS high-water mark (VmHWM) by writing 5 to
/// /proc/self/clear_refs, so the timed phase's peak excludes set-up.
/// False when the kernel refuses.
bool reset_peak_rss();
/// VmHWM in MiB.
[[nodiscard]] double peak_rss_mib();

// --- Tracing ------------------------------------------------------------------

/// In-memory span recorder of the traced run. Spans are recorded around
/// calls into the program's public API, never inside it; every span
/// carries the id of the file or query it belongs to. A null Tracer*
/// records nothing and never reads the clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t id = 0;      ///< file or query id shared by its spans
  };

  Tracer();
  std::size_t open(std::string name, std::uint64_t id, std::int64_t parent);
  void close(std::size_t index);
  /// Records an already measured interval (used for client threads that
  /// time their own queries).
  void add(std::string name, std::uint64_t id, Clock::time_point start,
           Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span to \p path.
  bool write_jsonl(const std::string& path) const;
  /// Per-name self time (span duration minus its children's durations),
  /// printed as a table on stderr.
  void print_self_times() const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t id,
             std::int64_t parent = -1)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      index_ = tracer_->open(std::move(name), id, parent);
    }
  }
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void finish() {
    if (tracer_ != nullptr && !done_) {
      tracer_->close(index_);
      done_ = true;
    }
  }
  [[nodiscard]] std::int64_t index() const {
    return tracer_ == nullptr ? -1 : static_cast<std::int64_t>(index_);
  }

 private:
  Tracer* tracer_;
  std::size_t index_ = 0;
  bool done_ = false;
};

// --- Input pins ---------------------------------------------------------------

/// 64-bit FNV-1a of \p bytes, as 16 hex digits.
[[nodiscard]] std::string fnv_hex(std::span<const std::uint8_t> bytes);

struct PinnedFile {
  std::string path;
  std::uint64_t size = 0;
  std::string fnv1a;
  std::uint64_t insns = 0;  ///< linear-sweep count over executable sections
  /// True when the file keeps a .symtab that scores precision and recall.
  bool symtab_truth = false;
};

/// Digest of one seeded synthetic draw and its instruction count.
struct PinnedDraw {
  std::string digest;
  std::uint64_t insns = 0;
};

struct Pins {
  std::vector<PinnedFile> realbin;
  /// workload name -> seed -> draw digest.
  std::map<std::string, std::map<std::uint64_t, PinnedDraw>> draws;
};

[[nodiscard]] std::optional<Pins> load_pins(const std::string& path,
                                            std::string* error);

/// Instructions a linear sweep decodes over the executable sections of
/// \p image (the fixed denominator of us_per_insn).
[[nodiscard]] std::uint64_t linear_sweep_insns(
    std::span<const std::uint8_t> image);

// --- Per-layer replay ---------------------------------------------------------

/// Per-layer work and time, summed over replayed files.
struct LayerTotals {
  std::uint64_t files = 0;
  double elf_parse_us = 0, elf_truth_us = 0, ehframe_parse_us = 0,
         codeview_build_us = 0, decode_us = 0, callconv_us = 0,
         analyze_us = 0, explore_us = 0, noreturn_us = 0,
         pointer_detect_us = 0, reanalyze_us = 0, data_ptr_scan_us = 0,
         alg1_us = 0, detect_us = 0;
  std::uint64_t fdes = 0, decoded_insns = 0, callconv_rejected = 0,
                functions = 0, insn_starts = 0, xref_targets = 0,
                pointer_probed = 0, pointer_accepted = 0, alg1_merged = 0,
                alg1_tail_targets = 0, alg1_skipped_incomplete = 0;
  /// Untraced and traced analyze_file wall time (trace.overhead_pct).
  double untraced_session_us = 0, traced_session_us = 0;
  /// Per-file traced session time and score-stage time.
  std::vector<double> session_us;
  double score_us = 0;
};

/// Replays the full FETCH pipeline on \p image one public call at a
/// time, each inside a span under \p parent, and adds the per-layer
/// times and counts to \p totals. Returns false with *error set when the
/// start set rebuilt from the replayed calls differs from
/// core::FunctionDetector::run, or when the image fails to analyse.
bool replay_layers(std::span<const std::uint8_t> image, std::uint64_t id,
                   Tracer* tracer, std::int64_t parent, LayerTotals* totals,
                   std::string* error);

/// Times one untraced and one traced AnalysisSession::analyze_file of
/// \p path (the traced one inside an `eval.session` span), then replays
/// its layers. \p sidecar_truth selects the workload's truth policy.
bool trace_file(const std::string& path, std::uint64_t id, bool sidecar_truth,
                Tracer* tracer, LayerTotals* totals, std::string* error);

/// Sets every replay-derived per-layer metric from \p totals.
void set_layer_metrics(const LayerTotals& totals, Result* result);

/// Writes the traced run's spans next to the run directory
/// (`trace-<workload>-seed<N>.jsonl`) and prints per-span self time.
void write_trace(const Tracer& tracer, const RunArgs& args);

// --- Synthetic draws ----------------------------------------------------------

/// `synth-corpus` inputs: \p count stripped programs from
/// synth::make_program + synth::generate, cycling through the Table II
/// projects and the compiler × optimisation profiles, with \p seed as
/// the RNG seed of every program.
[[nodiscard]] std::vector<fetch::synth::SynthBinary> synth_corpus_draw(
    std::uint64_t seed, std::size_t count);

/// `service-zipf` pool: \p count stripped programs of one size class.
[[nodiscard]] std::vector<fetch::synth::SynthBinary> service_pool(
    std::uint64_t seed, std::size_t count);

/// FNV-1a digest over every image and its generator truth.
[[nodiscard]] std::string draw_digest(
    const std::vector<fetch::synth::SynthBinary>& draw);

/// Writes each binary of \p draw to \p dir with its fetch-truth-v1
/// sidecar (generator truth: cold parts are not starts). Returns the
/// paths, or an empty vector with *error set.
[[nodiscard]] std::vector<std::string> write_draw(
    const std::vector<fetch::synth::SynthBinary>& draw,
    const std::string& dir, std::string* error);

/// Checks a draw against its pin. Unpinned seeds (and smoke draws) pass
/// with a note on stderr; a pinned seed whose digest differs fails.
/// Returns the instruction count to use as the fixed denominator.
[[nodiscard]] std::uint64_t check_draw_pin(
    const Pins& pins, const std::string& workload, const RunArgs& args,
    const std::string& digest, std::uint64_t insns, Result* result);

inline constexpr std::uint64_t kSynthCorpusSalt = 0x5c0;
inline constexpr std::uint64_t kServicePoolSalt = 0x5e7;
inline constexpr std::size_t kSynthCorpusFiles = 176;
inline constexpr std::size_t kServicePoolFiles = 192;

// --- Workloads ----------------------------------------------------------------

Result run_realbin_large(const RunArgs& args, const Pins& pins);
Result run_synth_corpus(const RunArgs& args, const Pins& pins);
Result run_service_zipf(const RunArgs& args, const Pins& pins);

/// Recomputes the pin table on this host and prints it as JSON (stdout).
int print_pins(const std::vector<std::string>& realbin_paths,
               std::uint64_t max_seed);

/// Median of \p repeats set-up durations: set-up runs that many times so
/// setup_s is a median, and the last set-up's state is kept.
template <typename SetUp>
double timed_setups(int repeats, SetUp&& set_up) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    set_up(i == repeats - 1);
    times.push_back(seconds_since(start));
  }
  return median(times);
}

}  // namespace fetchbench
