#pragma once

/// \file tolerance.hpp
/// Per-metric perf-tolerance policies for the fetch-bench-v1 comparators
/// (`exp_run diff` and `exp_run --check`). The old comparator
/// applied one flat 3x ratio band to every metric; this engine loads a
/// checked-in policy file (`bench/baselines/tolerances.json`, schema
/// "fetch-tol-v1") that says, per metric:
///
///   - how wide the ratio band is (`max_ratio`, > 1.0),
///   - which direction is a regression (`direction`: "both" flags any
///     move outside the band; "higher" means higher-is-better, so only
///     a *drop* regresses; "lower" means lower-is-better, so only a
///     *rise* regresses — getting faster can never fail the gate),
///   - an absolute floor (`abs_slack`: moves of at most this many units
///     never flag, which keeps sub-millisecond timings from tripping a
///     ratio band on runner jitter), and
///   - whether the metric is too noisy to block on (`warn_only`: the
///     verdict is reported as WARN and never fails the gate).
///
/// Metrics without an entry use the file's "default" block. A metric
/// present in the baseline but absent from the candidate is its own
/// verdict (kMissing) — a renamed or dropped metric must never read as
/// "no regression" (distinct exit code in `exp_run diff`).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/table.hpp"
#include "util/json.hpp"

namespace fetch::exp {

enum class Direction : std::uint8_t {
  kBoth,    ///< any move outside the band regresses
  kHigher,  ///< higher is better: only a drop regresses
  kLower,   ///< lower is better: only a rise regresses
};

[[nodiscard]] std::string_view direction_name(Direction d);
[[nodiscard]] std::optional<Direction> parse_direction(std::string_view text);

struct MetricPolicy {
  double max_ratio = 3.0;  ///< band is [base/max_ratio, base*max_ratio]
  double abs_slack = 0.0;  ///< |current - baseline| <= abs_slack never flags
  Direction direction = Direction::kBoth;
  bool warn_only = false;
};

/// The parsed tolerances file: an ordered metric → policy map plus the
/// fallback policy for unlisted metrics.
class TolerancePolicy {
 public:
  /// Flat policy, the comparators' default without a tolerances file:
  /// every metric gets a symmetric ratio band of \p ratio, nothing is
  /// warn-only.
  [[nodiscard]] static TolerancePolicy flat(double ratio);

  [[nodiscard]] static std::optional<TolerancePolicy> parse(
      const util::json::Value& doc, std::string* error);
  [[nodiscard]] static std::optional<TolerancePolicy> load(
      const std::string& path, std::string* error);

  [[nodiscard]] const MetricPolicy& for_metric(std::string_view name) const;
  [[nodiscard]] const MetricPolicy& fallback() const { return fallback_; }
  [[nodiscard]] std::size_t listed_metrics() const { return metrics_.size(); }

 private:
  MetricPolicy fallback_;
  std::vector<std::pair<std::string, MetricPolicy>> metrics_;
};

enum class VerdictStatus : std::uint8_t {
  kOk,         ///< within policy
  kWarn,       ///< outside policy but metric is warn-only
  kRegressed,  ///< outside policy; fails the gate
  kMissing,    ///< in baseline, absent from candidate; fails (own code)
  kNew,        ///< in candidate only; informational
  kSkipped,    ///< baseline value unusable for a ratio (<= 0)
};

[[nodiscard]] std::string_view status_name(VerdictStatus status);

struct MetricVerdict {
  std::string name;
  std::string unit;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when not computable)
  VerdictStatus status = VerdictStatus::kOk;
  /// Baseline/current's exact formatted texts, for byte-stable reports.
  std::string baseline_text;
  std::string current_text;
};

/// One full baseline-vs-candidate comparison under a policy.
struct DiffReport {
  std::vector<MetricVerdict> rows;  ///< baseline order, then new metrics
  std::size_t compared = 0;
  std::size_t regressed = 0;
  std::size_t warned = 0;
  std::size_t missing = 0;
  std::size_t added = 0;

  /// True when a blocking metric moved outside its band.
  [[nodiscard]] bool gate_failed() const { return regressed != 0; }
  /// True when a baseline metric vanished from the candidate.
  [[nodiscard]] bool any_missing() const { return missing != 0; }
  [[nodiscard]] std::string_view verdict() const {
    if (gate_failed()) {
      return "regressed";
    }
    if (any_missing()) {
      return "missing-metrics";
    }
    return "ok";
  }
};

/// Applies \p policy to a single metric pair.
[[nodiscard]] VerdictStatus judge(double baseline, double current,
                                  const MetricPolicy& policy);

/// Compares two fetch-bench-v1 documents' `results` arrays row by row.
/// Both documents must already be schema-checked by the caller.
[[nodiscard]] DiffReport diff_reports(const util::json::Value& baseline,
                                      const util::json::Value& current,
                                      const TolerancePolicy& policy);

/// Renders \p report as a fetch-bench-diff-v1 verdict document (the
/// machine-readable `--json` output of `exp_run diff` / `--check`).
[[nodiscard]] util::json::Value verdict_json(const DiffReport& report,
                                             const std::string& baseline_path,
                                             const std::string& current_path,
                                             const std::string& policy_source);

/// Renders \p report as the per-metric console table (metric, baseline,
/// current, ratio, status) every comparator path prints.
[[nodiscard]] eval::TextTable verdict_table(const DiffReport& report);

/// Renders \p report as a GitHub-flavored markdown table for
/// $GITHUB_STEP_SUMMARY (one header line, one row per metric, summary
/// footer) so a gate verdict is readable without downloading artifacts.
[[nodiscard]] std::string verdict_markdown(const DiffReport& report,
                                           const std::string& title);

}  // namespace fetch::exp
