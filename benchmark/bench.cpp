#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"
#include "core/detector.hpp"
#include "core/pointer_detector.hpp"
#include "core/tail_call_merger.hpp"
#include "disasm/code_view.hpp"
#include "disasm/linear.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "eval/session.hpp"
#include "obs/trace.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace fetchbench {

using namespace fetch;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

double windowed_p99(const std::vector<double>& samples) {
  constexpr std::size_t kWindows = 5;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(
                                             samples.size() * w / kWindows);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(
                                           samples.size() * (w + 1) / kWindows);
    p99s.push_back(percentile(std::vector<double>(begin, end), 0.99));
  }
  return median(p99s);
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) {
    std::cerr << "warning: cannot reset VmHWM; peak_rss_mib includes set-up\n";
  }
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::size_t Tracer::open(std::string name, std::uint64_t id,
                         std::int64_t parent) {
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent, id});
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) { spans_[index].end_ns = now_ns(); }

void Tracer::add(std::string name, std::uint64_t id, Clock::time_point start,
                 Clock::time_point end) {
  auto ns = [this](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  };
  spans_.push_back(Span{std::move(name), ns(start), ns(end), -1, id});
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

void Tracer::print_self_times() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  struct Row {
    std::size_t count = 0;
    double self_us = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.self_us +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3 -
        child_us[i];
  }
  std::fprintf(stderr, "%-28s %8s %14s %14s\n", "span", "count",
               "self_total_ms", "self_mean_us");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-28s %8zu %14.3f %14.1f\n", name.c_str(),
                 row.count, row.self_us / 1e3,
                 row.self_us / static_cast<double>(row.count));
  }
}

// --- Pins ---------------------------------------------------------------------

std::string fnv_hex(std::span<const std::uint8_t> bytes) {
  util::Fnv1a hasher;
  hasher.bytes(bytes);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hasher.digest()));
  return buf;
}

std::optional<Pins> load_pins(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read pin table " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = util::json::Value::parse(text.str());
  const util::json::Value* realbin = doc ? doc->get("realbin") : nullptr;
  const util::json::Value* draws = doc ? doc->get("draws") : nullptr;
  if (realbin == nullptr || !realbin->is_array() || draws == nullptr ||
      !draws->is_object()) {
    *error = "malformed pin table " + path;
    return std::nullopt;
  }
  auto number = [](const util::json::Value& v, const char* key) {
    const util::json::Value* field = v.get(key);
    return field == nullptr ? 0
                            : static_cast<std::uint64_t>(field->as_double());
  };
  auto text_of = [](const util::json::Value& v, const char* key) {
    const util::json::Value* field = v.get(key);
    return field == nullptr ? std::string() : field->text();
  };
  Pins pins;
  for (const util::json::Value& item : realbin->items()) {
    const util::json::Value* truth = item.get("symtab_truth");
    pins.realbin.push_back(PinnedFile{text_of(item, "path"),
                                      number(item, "size"),
                                      text_of(item, "fnv1a"),
                                      number(item, "insns"),
                                      truth != nullptr && truth->as_bool()});
  }
  for (const auto& [workload, seeds] : draws->members()) {
    for (const auto& [seed, draw] : seeds.members()) {
      pins.draws[workload][std::stoull(seed)] =
          PinnedDraw{text_of(draw, "digest"), number(draw, "insns")};
    }
  }
  return pins;
}

std::uint64_t linear_sweep_insns(std::span<const std::uint8_t> image) {
  const elf::ElfFile elf(image);
  const disasm::CodeView code(elf);
  std::uint64_t count = 0;
  for (const elf::Section& section : elf.sections()) {
    if (section.executable() && section.alloc() && section.type != 8) {
      for (const auto& piece :
           disasm::linear_sweep(code, section.addr,
                                section.addr + section.size)) {
        count += piece.insns.size();
      }
    }
  }
  return count;
}

// --- Replay -------------------------------------------------------------------

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Runs \p fn inside a span and adds its wall time to *acc.
template <typename Fn>
auto timed(Tracer* tracer, const char* name, std::uint64_t id,
           std::int64_t parent, double* acc, Fn&& fn) {
  ScopedSpan span(tracer, name, id, parent);
  const auto start = Clock::now();
  struct Add {
    double* acc;
    Clock::time_point start;
    ~Add() { *acc += us_between(start, Clock::now()); }
  } add{acc, start};
  return fn();
}

}  // namespace

bool replay_layers(std::span<const std::uint8_t> image, std::uint64_t id,
                   Tracer* tracer, std::int64_t parent, LayerTotals* t,
                   std::string* error) {
  try {
    const elf::ElfFile elf = timed(tracer, "elf.parse", id, parent,
                                   &t->elf_parse_us,
                                   [&] { return elf::ElfFile(image); });
    timed(tracer, "elf.truth", id, parent, &t->elf_truth_us,
          [&] { return elf.function_truth().starts.size(); });

    // Decode cost on a throwaway view, so the detector and the replayed
    // passes below both start from a cold decode cache.
    {
      const disasm::CodeView scratch(elf);
      timed(tracer, "x86.decode", id, parent, &t->decode_us,
            [&] { scratch.predecode(1); return 0; });
      t->decoded_insns += scratch.decoded_records();
    }

    // The whole detector, as every front end runs it.
    std::set<std::uint64_t> expected;
    {
      const core::FunctionDetector detector(elf);
      const core::DetectionResult result =
          timed(tracer, "core.detect", id, parent, &t->detect_us,
                [&] { return detector.run(); });
      expected = result.starts();
    }

    const std::optional<eh::EhFrame> eh =
        timed(tracer, "ehframe.parse", id, parent, &t->ehframe_parse_us,
              [&] { return eh::EhFrame::from_elf(elf); });
    if (eh) {
      t->fdes += eh->fdes().size();
    }
    const disasm::CodeView code = timed(
        tracer, "disasm.codeview_build", id, parent, &t->codeview_build_us,
        [&] { return disasm::CodeView(elf); });

    // Seeds exactly as FunctionDetector::run forms them with the default
    // options: FDE PC Begins in code, plus the entry point.
    const core::DetectorOptions options;
    std::set<std::uint64_t> fde_starts;
    std::vector<std::uint64_t> seeds;
    if (eh) {
      for (const std::uint64_t pc : eh->pc_begins()) {
        if (code.is_code(pc)) {
          fde_starts.insert(pc);
          seeds.push_back(pc);
        }
      }
    }
    if (code.is_code(elf.entry())) {
      seeds.push_back(elf.entry());
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

    seeds = timed(tracer, "analysis.callconv", id, parent, &t->callconv_us,
                  [&] {
                    std::vector<std::uint64_t> kept;
                    for (const std::uint64_t s : seeds) {
                      if (fde_starts.count(s) != 0 &&
                          !analysis::meets_calling_convention(code, s)) {
                        ++t->callconv_rejected;
                      } else {
                        kept.push_back(s);
                      }
                    }
                    return kept;
                  });

    disasm::Result state =
        timed(tracer, "disasm.analyze", id, parent, &t->analyze_us,
              [&] { return disasm::analyze(code, seeds, options.disasm); });
    {
      // One exploration and one noreturn round in isolation, to split
      // analyze's cost between its two alternating passes.
      const disasm::Result probe =
          timed(tracer, "disasm.explore", id, parent, &t->explore_us, [&] {
            return disasm::explore(code, seeds, options.disasm);
          });
      timed(tracer, "disasm.noreturn", id, parent, &t->noreturn_us, [&] {
        return disasm::find_noreturn_functions(code, probe, options.disasm)
            .size();
      });
    }
    t->functions += state.functions.size();
    t->insn_starts += state.insn_starts.size();
    t->xref_targets += state.xrefs.all().size();

    const core::PointerDetectionResult pd = timed(
        tracer, "core.pointer_detect", id, parent, &t->pointer_detect_us,
        [&] {
          return core::detect_pointer_functions(code, state, options.disasm);
        });
    t->pointer_probed += pd.probed;
    t->pointer_accepted += pd.accepted.size();
    if (!pd.accepted.empty()) {
      const std::vector<std::uint64_t> all(state.starts.begin(),
                                           state.starts.end());
      state = timed(tracer, "disasm.reanalyze", id, parent, &t->reanalyze_us,
                    [&] { return disasm::analyze(code, all, options.disasm); });
    }

    if (eh) {
      const std::set<std::uint64_t> data_refs =
          timed(tracer, "analysis.data_ptr_scan", id, parent,
                &t->data_ptr_scan_us,
                [&] { return analysis::scan_data_pointers(elf, state); });
      const core::MergeOutcome mo =
          timed(tracer, "core.alg1", id, parent, &t->alg1_us, [&] {
            return core::merge_noncontiguous_functions(code, state, *eh,
                                                       data_refs, fde_starts);
          });
      t->alg1_merged += mo.merged.size();
      t->alg1_tail_targets += mo.tail_targets.size();
      t->alg1_skipped_incomplete += mo.skipped_incomplete.size();
    }
    ++t->files;
    if (state.starts != expected) {
      *error = "replayed start set (" + std::to_string(state.starts.size()) +
               ") differs from FunctionDetector::run (" +
               std::to_string(expected.size()) + ")";
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    *error = std::string("replay failed: ") + e.what();
    return false;
  }
}

bool trace_file(const std::string& path, std::uint64_t id, bool sidecar_truth,
                Tracer* tracer, LayerTotals* t, std::string* error) {
  const eval::AnalysisSession session(
      core::DetectorOptions{},
      sidecar_truth ? eval::TruthMode::kSidecar : eval::TruthMode::kAuto);
  ScopedSpan file_span(tracer, "file", id);

  const auto untraced_start = Clock::now();
  const eval::FileAnalysis plain =
      session.analyze_file(path, eval::AnalysisSession::Detail::kFull);
  t->untraced_session_us += us_between(untraced_start, Clock::now());

  // The program's own stage record supplies the score time; the span
  // around the call is the benchmark's.
  obs::Trace stages;
  ScopedSpan session_span(tracer, "eval.session", id, file_span.index());
  const auto traced_start = Clock::now();
  const eval::FileAnalysis traced = session.analyze_file(
      path, eval::AnalysisSession::Detail::kFull, &stages);
  const double traced_us = us_between(traced_start, Clock::now());
  session_span.finish();
  t->traced_session_us += traced_us;
  t->session_us.push_back(traced_us);
  for (const obs::Trace::Stage& stage : stages.stages()) {
    if (stage.name == "score") {
      t->score_us += static_cast<double>(stage.us);
    }
  }
  if (!plain.row.ok || !traced.row.ok) {
    *error = path + ": " + (plain.row.ok ? traced.row.error : plain.row.error);
    return false;
  }

  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, &bytes)) {
    *error = "cannot read " + path;
    return false;
  }
  ScopedSpan replay_span(tracer, "replay", id, file_span.index());
  if (!replay_layers(bytes, id, tracer, replay_span.index(), t, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

void set_layer_metrics(const LayerTotals& t, Result* result) {
  auto& m = result->metrics;
  const double files = t.files == 0 ? 1.0 : static_cast<double>(t.files);
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m["elf.parse_us"] = t.elf_parse_us / files;
  m["elf.truth_us"] = t.elf_truth_us / files;
  m["ehframe.parse_us"] = t.ehframe_parse_us / files;
  m["ehframe.fdes"] = count(t.fdes);
  m["disasm.codeview_build_us"] = t.codeview_build_us / files;
  m["x86.decode_ns_per_insn"] =
      t.decoded_insns == 0 ? 0.0 : t.decode_us * 1e3 / count(t.decoded_insns);
  m["x86.decoded_insns"] = count(t.decoded_insns);
  m["analysis.callconv_us"] = t.callconv_us / files;
  m["analysis.callconv_rejected"] = count(t.callconv_rejected);
  m["disasm.analyze_us"] = t.analyze_us / files;
  m["disasm.explore_us"] = t.explore_us / files;
  m["disasm.noreturn_us"] = t.noreturn_us / files;
  m["disasm.functions"] = count(t.functions);
  m["disasm.insn_starts"] = count(t.insn_starts);
  m["disasm.xref_targets"] = count(t.xref_targets);
  m["core.pointer_detect_us"] = t.pointer_detect_us / files;
  m["core.pointer_probed"] = count(t.pointer_probed);
  m["core.pointer_accepted"] = count(t.pointer_accepted);
  m["core.pointer_accept_ratio"] =
      t.pointer_probed == 0
          ? 0.0
          : count(t.pointer_accepted) / count(t.pointer_probed);
  m["disasm.reanalyze_us"] = t.reanalyze_us / files;
  m["analysis.data_ptr_scan_us"] = t.data_ptr_scan_us / files;
  m["core.alg1_us"] = t.alg1_us / files;
  m["core.alg1_merged"] = count(t.alg1_merged);
  m["core.alg1_tail_targets"] = count(t.alg1_tail_targets);
  m["core.alg1_skipped_incomplete"] = count(t.alg1_skipped_incomplete);
  m["core.detect_us"] = t.detect_us / files;
  m["core.replay_gap_us"] =
      (t.detect_us - t.callconv_us - t.analyze_us - t.pointer_detect_us -
       t.reanalyze_us - t.data_ptr_scan_us - t.alg1_us) /
      files;
  m["eval.session_us_p50"] = percentile(t.session_us, 0.5);
  m["eval.session_us_p99"] = percentile(t.session_us, 0.99);
  m["eval.score_us"] = t.score_us / files;
  m["trace.overhead_pct"] =
      t.untraced_session_us == 0.0
          ? 0.0
          : (t.traced_session_us / t.untraced_session_us - 1.0) * 100.0;
}

}  // namespace fetchbench
