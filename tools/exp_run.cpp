/// \file exp_run.cpp
/// Experiment-matrix runner: expands a checked-in fetch-exp-v1 spec
/// (`bench/experiments/*.json`) into its exact, ordered list of bench
/// invocations, runs them, aggregates the fetch-bench-v1 outputs into
/// the cross-commit trajectory report (BENCH_trajectory.json, appended
/// never rewritten), and optionally gates each run against its checked-in
/// baseline under the per-metric tolerance policy
/// (`bench/baselines/tolerances.json`).
///
///   exp_run --spec FILE [--bin-dir DIR] [--out-dir DIR] [--list]
///           [--trajectory FILE] [--commit ID]
///           [--baselines-dir DIR] [--tolerances FILE] [--check]
///           [--update-baselines] [--json PATH] [--markdown PATH]
///   exp_run diff [--tolerances FILE] [--json PATH] [--markdown PATH]
///           BASELINE CURRENT
///
///   --list              print the expansion (id + argv per cell) and the
///                       spec hash, run nothing, exit 0. This output is
///                       pinned by tests/test_exp_spec.cpp.
///   --out-dir DIR       per-invocation artifacts: <id>.json (the bench's
///                       fetch-bench-v1 report) and <id>.log (its stdout+
///                       stderr). Default: exp-out
///   --trajectory FILE   append this run's entry (keyed by --commit and
///                       the spec hash) to the trajectory document;
///                       created when missing, validated when present.
///   --check             gate: diff every run that names a baseline
///                       against <baselines-dir>/<baseline> under the
///                       tolerance policy.
///   --update-baselines  explicit baseline-refresh workflow: rewrite each
///                       named baseline file from this run's report and
///                       print the old → new diff for review (mutually
///                       exclusive with --check).
///   --tolerances FILE   per-metric policy config (fetch-tol-v1); without
///                       it every metric gets a flat 3x band.
///   --json PATH         machine-readable verdict (fetch-exp-verdict-v1;
///                       fetch-bench-diff-v1 for `diff`)
///   --markdown PATH     GitHub step-summary tables
///
/// `diff` is the single-pair gate: it judges one fetch-bench-v1 report
/// against a baseline report under the same tolerance policy, strictly
/// (every blocking regression fails), which is how CI gates the bench
/// reports it produces outside the matrix.
///
/// Exit codes: 0 ok · 1 gate regression · 2 usage/spec/bench failure or
/// unreadable input · 3 baseline metric missing from a candidate (and
/// nothing regressed). The distinction keeps "someone renamed a metric"
/// from hiding inside "perf is fine" — CI fails either way, but the
/// triage differs.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "exp/tolerance.hpp"
#include "exp/trajectory.hpp"
#include "util/cli.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/json_schema.hpp"

namespace {

using namespace fetch;
using util::json::Value;
namespace cli = util::cli;

struct Options {
  std::string spec_path;
  std::string bin_dir = ".";
  std::string out_dir = "exp-out";
  std::string trajectory_path;
  std::string commit = "local";
  std::string baselines_dir = "bench/baselines";
  std::string tolerances_path;
  std::string json_path;
  std::string markdown_path;
  bool list = false;
  bool check = false;
  bool update_baselines = false;
};

constexpr const char* kUsage =
    "usage: exp_run --spec FILE [--bin-dir DIR] [--out-dir DIR]\n"
    "               [--list] [--trajectory FILE] [--commit ID]\n"
    "               [--baselines-dir DIR] [--tolerances FILE]\n"
    "               [--check] [--update-baselines]\n"
    "               [--json PATH] [--markdown PATH]\n"
    "       exp_run diff [--tolerances FILE] [--json PATH] "
    "[--markdown PATH]\n"
    "               BASELINE.json CURRENT.json\n";

/// POSIX-shell single quoting: safe to splice into a system() command.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

/// Loads a fetch-bench-v1 report: schema tag plus a results array.
bool load_report(const std::string& path, Value* out, std::string* error) {
  auto doc = util::json::load_file(path, error);
  if (!doc || !util::json::expect_schema(*doc, "fetch-bench-v1", error,
                                         path)) {
    return false;
  }
  if (const Value* results = doc->get("results");
      results == nullptr || !results->is_array()) {
    *error = "report has no results array: " + path;
    return false;
  }
  *out = std::move(*doc);
  return true;
}

/// The tolerance policy: --tolerances FILE, else the flat 3x default.
bool load_policy(const Options& opt, exp::TolerancePolicy* policy,
                 std::string* source, std::string* error) {
  if (opt.tolerances_path.empty()) {
    *policy = exp::TolerancePolicy::flat(3.0);
    *source = "built-in flat 3x";
    return true;
  }
  auto loaded = exp::TolerancePolicy::load(opt.tolerances_path, error);
  if (!loaded) {
    return false;
  }
  *policy = std::move(*loaded);
  *source = opt.tolerances_path;
  return true;
}

/// Writes the --json verdict and the --markdown summary when requested.
bool write_verdicts(const Options& opt, const Value& json,
                    const std::string& markdown) {
  std::string error;
  if ((!opt.json_path.empty() &&
       !util::write_text_file(opt.json_path, json.dump() + "\n", &error)) ||
      (!opt.markdown_path.empty() &&
       !util::write_text_file(opt.markdown_path, markdown, &error))) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  return true;
}

/// Prints the gate's one-line verdict and returns its exit code.
int gate_exit(bool regressed, bool missing) {
  if (regressed) {
    std::cout << "gate: REGRESSED — see the per-metric table(s) above; if "
                 "the movement is intended, refresh with exp_run "
                 "--update-baselines and commit the reviewed diff\n";
    return 1;
  }
  if (missing) {
    std::cout << "gate: baseline metric(s) missing from a candidate report "
                 "— a metric was renamed or dropped without a baseline "
                 "update\n";
    return 3;
  }
  std::cout << "gate: ok\n";
  return 0;
}

/// `exp_run diff BASELINE CURRENT`: one report pair under the policy.
int cmd_diff(const Options& opt, const std::string& baseline_path,
             const std::string& current_path) {
  std::string error;
  exp::TolerancePolicy policy;
  std::string policy_source;
  Value baseline;
  Value current;
  if (!load_policy(opt, &policy, &policy_source, &error) ||
      !load_report(baseline_path, &baseline, &error) ||
      !load_report(current_path, &current, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  const exp::DiffReport report = exp::diff_reports(baseline, current, policy);
  exp::verdict_table(report).print(std::cout);
  std::cout << "\npolicy: " << policy_source << " — " << report.compared
            << " compared, " << report.regressed << " regressed, "
            << report.warned << " warned, " << report.missing
            << " missing, " << report.added << " new\n";

  if (!write_verdicts(opt,
                      exp::verdict_json(report, baseline_path, current_path,
                                        policy_source),
                      exp::verdict_markdown(report, "diff " + baseline_path +
                                                        " vs " +
                                                        current_path))) {
    return 2;
  }
  return gate_exit(report.gate_failed(), report.any_missing());
}

int cmd_run(const Options& opt) {
  std::string error;
  auto spec = exp::ExpSpec::load(opt.spec_path, &error);
  if (!spec) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  const std::vector<exp::Invocation> matrix = spec->expand();

  if (opt.list) {
    std::cout << "spec " << spec->name() << " hash " << spec->hash_hex()
              << " (" << matrix.size() << " invocations)\n";
    for (const exp::Invocation& inv : matrix) {
      std::cout << inv.render() << "\n";
    }
    return 0;
  }

  exp::TolerancePolicy policy;
  std::string policy_source;
  if (!load_policy(opt, &policy, &policy_source, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create --out-dir " << opt.out_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  const std::string cache_dir = opt.out_dir + "/corpus-cache";

  // --- Run every cell, in expansion order ----------------------------------
  std::cerr << "spec " << spec->name() << " hash " << spec->hash_hex()
            << ": running " << matrix.size() << " invocations\n";
  std::vector<Value> reports;
  reports.reserve(matrix.size());
  for (const exp::Invocation& inv : matrix) {
    const std::string json_path = opt.out_dir + "/" + inv.id + ".json";
    const std::string log_path = opt.out_dir + "/" + inv.id + ".log";
    std::string command = shell_quote(opt.bin_dir + "/" + inv.bench);
    for (const std::string& arg : inv.bench_args()) {
      command += " ";
      command += shell_quote(arg);
    }
    if (inv.cache) {
      command += " --cache-dir " + shell_quote(cache_dir);
    }
    command += " --json " + shell_quote(json_path);
    command += " > " + shell_quote(log_path) + " 2>&1";
    std::cerr << "run " << inv.id << ": " << inv.bench << "\n";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::cerr << "error: " << inv.id << " failed (see " << log_path
                << ")\n";
      return 2;
    }
    Value report;
    if (!load_report(json_path, &report, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    reports.push_back(std::move(report));
  }

  // --- Trajectory append ---------------------------------------------------
  if (!opt.trajectory_path.empty()) {
    auto doc = exp::load_or_init_trajectory(opt.trajectory_path, &error);
    if (!doc) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    Value entry = exp::make_trajectory_entry(opt.commit, spec->name(),
                                             spec->hash_hex());
    Value runs = Value::array();
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      Value run = Value::object();
      run.set("id", Value(inv.id));
      run.set("bench", Value(inv.bench));
      run.set("scale", Value(inv.scale));
      run.set("jobs", Value::number(static_cast<std::uint64_t>(inv.jobs)));
      run.set("cache", Value(inv.cache));
      run.set("predecode", Value(inv.predecode));
      if (const Value* results = reports[i].get("results")) {
        run.set("results", *results);
      }
      runs.add(std::move(run));
    }
    entry.set("runs", std::move(runs));
    exp::append_trajectory_entry(&*doc, std::move(entry));
    if (!exp::write_trajectory(opt.trajectory_path, *doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cerr << "trajectory: appended entry (commit " << opt.commit
              << ", spec_hash " << spec->hash_hex() << ") to "
              << opt.trajectory_path << "\n";
  }

  // --- Baseline refresh (explicit, reviewable) -----------------------------
  if (opt.update_baselines) {
    std::vector<std::string> written;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      if (inv.baseline.empty()) {
        continue;
      }
      const std::string path = opt.baselines_dir + "/" + inv.baseline;
      bool already = false;
      for (const std::string& w : written) {
        already = already || w == inv.baseline;
      }
      if (already) {
        // First matching cell wins: the expansion order is deterministic,
        // so which cell feeds a shared baseline file never silently moves.
        std::cerr << "update-baselines: " << inv.id << " skipped ("
                  << inv.baseline << " already written this run)\n";
        continue;
      }
      Value old_doc = Value::object();
      if (auto existing = util::json::load_file(path, &error)) {
        old_doc = std::move(*existing);
      }
      const exp::DiffReport diff =
          exp::diff_reports(old_doc, reports[i], policy);
      std::cout << "=== baseline update: " << inv.baseline << " (from "
                << inv.id << ") ===\n";
      exp::verdict_table(diff).print(std::cout);
      std::cout << "\n";
      if (!util::write_text_file(path, reports[i].dump() + "\n", &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      written.push_back(inv.baseline);
    }
    std::cout << "updated " << written.size()
              << " baseline file(s) under " << opt.baselines_dir
              << " — review the diffs above before committing\n";
    return 0;
  }

  // --- Gate ----------------------------------------------------------------
  bool any_regressed = false;
  bool any_missing = false;
  Value verdicts = Value::object();
  verdicts.set("schema", Value("fetch-exp-verdict-v1"));
  verdicts.set("spec", Value(spec->name()));
  verdicts.set("spec_hash", Value(spec->hash_hex()));
  verdicts.set("commit", Value(opt.commit));
  verdicts.set("policy", Value(policy_source));
  Value run_verdicts = Value::array();
  std::string markdown;
  if (opt.check) {
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      if (inv.baseline.empty()) {
        continue;
      }
      const std::string path = opt.baselines_dir + "/" + inv.baseline;
      Value baseline;
      if (!load_report(path, &baseline, &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      const exp::DiffReport diff =
          exp::diff_reports(baseline, reports[i], policy);
      any_regressed = any_regressed || diff.gate_failed();
      any_missing = any_missing || diff.any_missing();

      std::cout << "=== gate " << inv.id << " vs " << inv.baseline << ": "
                << diff.verdict() << " ===\n";
      exp::verdict_table(diff).print(std::cout);
      std::cout << "\n";

      Value rv = exp::verdict_json(diff, path, opt.out_dir + "/" + inv.id +
                                                   ".json",
                                   policy_source);
      rv.set("id", Value(inv.id));
      run_verdicts.add(std::move(rv));
      markdown += exp::verdict_markdown(diff, "gate " + inv.id + " vs " +
                                                  inv.baseline);
      markdown += "\n";
    }
  }
  verdicts.set("runs", std::move(run_verdicts));
  verdicts.set("verdict",
               Value(any_regressed
                         ? "regressed"
                         : (any_missing ? "missing-metrics" : "ok")));
  if (markdown.empty()) {
    markdown = "### experiment spec " + spec->name() + " — no gated runs\n";
  }
  if (!write_verdicts(opt, verdicts, markdown)) {
    return 2;
  }
  return opt.check ? gate_exit(any_regressed, any_missing) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const cli::Scope run{"run"};
  cli::Parser parser(
      kUsage,
      {cli::text("--spec", &opt.spec_path, run),
       cli::text("--bin-dir", &opt.bin_dir, run),
       cli::text("--out-dir", &opt.out_dir, run),
       cli::text("--trajectory", &opt.trajectory_path, run),
       cli::text("--commit", &opt.commit, run),
       cli::text("--baselines-dir", &opt.baselines_dir, run),
       cli::flag("--list", &opt.list, run),
       cli::flag("--check", &opt.check, run),
       cli::flag("--update-baselines", &opt.update_baselines, run),
       cli::text("--tolerances", &opt.tolerances_path),
       cli::text("--json", &opt.json_path),
       cli::text("--markdown", &opt.markdown_path)});
  if (!parser.parse(argc, argv)) {
    return 2;
  }
  const std::vector<std::string>& args = parser.positionals();
  const bool diff = !args.empty() && args[0] == "diff";
  if (!parser.check_scope(diff ? "diff" : "run")) {
    return 2;
  }
  if (diff) {
    return args.size() == 3 ? cmd_diff(opt, args[1], args[2]) : parser.fail();
  }
  if (!args.empty() || opt.spec_path.empty() ||
      (opt.check && opt.update_baselines)) {
    return parser.fail();
  }
  return cmd_run(opt);
}
