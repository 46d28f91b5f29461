#include "exp/tolerance.hpp"

#include <cmath>

#include "eval/table.hpp"
#include "util/json_schema.hpp"

namespace fetch::exp {

namespace {

using util::json::Value;

/// Parses one policy block, inheriting unset fields from \p base.
std::optional<MetricPolicy> parse_policy(const Value& obj,
                                         const MetricPolicy& base,
                                         std::string* error,
                                         const std::string& context) {
  MetricPolicy policy = base;
  if (const Value* ratio = util::json::optional(
          obj, "max_ratio", Value::Kind::kNumber, error, context)) {
    policy.max_ratio = ratio->as_double();
    if (policy.max_ratio <= 1.0) {
      *error = context + ": max_ratio must be > 1.0";
      return std::nullopt;
    }
  } else if (!error->empty()) {
    return std::nullopt;
  }
  if (const Value* slack = util::json::optional(
          obj, "abs_slack", Value::Kind::kNumber, error, context)) {
    policy.abs_slack = slack->as_double();
    if (policy.abs_slack < 0.0) {
      *error = context + ": abs_slack must be >= 0";
      return std::nullopt;
    }
  } else if (!error->empty()) {
    return std::nullopt;
  }
  if (const Value* dir = util::json::optional(
          obj, "direction", Value::Kind::kString, error, context)) {
    const auto parsed = parse_direction(dir->text());
    if (!parsed) {
      *error = context + ": direction must be both|higher|lower";
      return std::nullopt;
    }
    policy.direction = *parsed;
  } else if (!error->empty()) {
    return std::nullopt;
  }
  if (const Value* warn = util::json::optional(
          obj, "warn_only", Value::Kind::kBool, error, context)) {
    policy.warn_only = warn->as_bool();
  } else if (!error->empty()) {
    return std::nullopt;
  }
  return policy;
}

const Value* find_row(const Value& report, const std::string& name) {
  const Value* results = report.get("results");
  if (results == nullptr) {
    return nullptr;
  }
  for (const Value& row : results->items()) {
    const Value* row_name = row.get("name");
    if (row_name != nullptr && row_name->text() == name) {
      return &row;
    }
  }
  return nullptr;
}

std::string row_unit(const Value& row) {
  const Value* unit = row.get("unit");
  return unit == nullptr ? std::string() : unit->text();
}

}  // namespace

std::string_view direction_name(Direction d) {
  switch (d) {
    case Direction::kBoth:
      return "both";
    case Direction::kHigher:
      return "higher";
    case Direction::kLower:
      return "lower";
  }
  return "both";
}

std::optional<Direction> parse_direction(std::string_view text) {
  if (text == "both") {
    return Direction::kBoth;
  }
  if (text == "higher") {
    return Direction::kHigher;
  }
  if (text == "lower") {
    return Direction::kLower;
  }
  return std::nullopt;
}

std::string_view status_name(VerdictStatus status) {
  switch (status) {
    case VerdictStatus::kOk:
      return "ok";
    case VerdictStatus::kWarn:
      return "warn";
    case VerdictStatus::kRegressed:
      return "regressed";
    case VerdictStatus::kMissing:
      return "missing";
    case VerdictStatus::kNew:
      return "new";
    case VerdictStatus::kSkipped:
      return "skipped";
  }
  return "ok";
}

TolerancePolicy TolerancePolicy::flat(double ratio) {
  TolerancePolicy policy;
  policy.fallback_.max_ratio = ratio;
  return policy;
}

std::optional<TolerancePolicy> TolerancePolicy::parse(const Value& doc,
                                                      std::string* error) {
  error->clear();
  if (!util::json::expect_schema(doc, "fetch-tol-v1", error, "tolerances")) {
    return std::nullopt;
  }
  TolerancePolicy policy;
  if (const Value* fallback = util::json::optional(
          doc, "default", Value::Kind::kObject, error, "tolerances")) {
    auto parsed =
        parse_policy(*fallback, MetricPolicy{}, error, "tolerances.default");
    if (!parsed) {
      return std::nullopt;
    }
    policy.fallback_ = *parsed;
  } else if (!error->empty()) {
    return std::nullopt;
  }
  if (const Value* metrics = util::json::optional(
          doc, "metrics", Value::Kind::kObject, error, "tolerances")) {
    for (const util::json::Member& member : metrics->members()) {
      if (!member.second.is_object()) {
        *error = "tolerances.metrics." + member.first + ": must be an object";
        return std::nullopt;
      }
      auto parsed = parse_policy(member.second, policy.fallback_, error,
                                 "tolerances.metrics." + member.first);
      if (!parsed) {
        return std::nullopt;
      }
      policy.metrics_.emplace_back(member.first, *parsed);
    }
  } else if (!error->empty()) {
    return std::nullopt;
  }
  return policy;
}

std::optional<TolerancePolicy> TolerancePolicy::load(const std::string& path,
                                                     std::string* error) {
  auto doc = util::json::load_file(path, error);
  if (!doc) {
    return std::nullopt;
  }
  return parse(*doc, error);
}

const MetricPolicy& TolerancePolicy::for_metric(std::string_view name) const {
  for (const auto& [metric, policy] : metrics_) {
    if (metric == name) {
      return policy;
    }
  }
  return fallback_;
}

VerdictStatus judge(double baseline, double current,
                    const MetricPolicy& policy) {
  if (baseline <= 0.0) {
    return VerdictStatus::kSkipped;
  }
  if (std::abs(current - baseline) <= policy.abs_slack) {
    return VerdictStatus::kOk;
  }
  const double ratio = current / baseline;
  bool outside = false;
  switch (policy.direction) {
    case Direction::kBoth:
      outside = ratio > policy.max_ratio || ratio < 1.0 / policy.max_ratio;
      break;
    case Direction::kHigher:  // regression = value dropped below the band
      outside = ratio < 1.0 / policy.max_ratio;
      break;
    case Direction::kLower:  // regression = value rose above the band
      outside = ratio > policy.max_ratio;
      break;
  }
  if (!outside) {
    return VerdictStatus::kOk;
  }
  return policy.warn_only ? VerdictStatus::kWarn : VerdictStatus::kRegressed;
}

DiffReport diff_reports(const Value& baseline, const Value& current,
                        const TolerancePolicy& policy) {
  DiffReport report;
  const Value* base_results = baseline.get("results");
  if (base_results != nullptr) {
    for (const Value& row : base_results->items()) {
      const Value* name = row.get("name");
      const Value* base_value = row.get("value");
      if (name == nullptr || base_value == nullptr) {
        continue;
      }
      MetricVerdict verdict;
      verdict.name = name->text();
      verdict.unit = row_unit(row);
      verdict.baseline = base_value->as_double();
      verdict.baseline_text = base_value->text();
      const Value* other = find_row(current, verdict.name);
      const Value* cur_value =
          other == nullptr ? nullptr : other->get("value");
      if (cur_value == nullptr) {
        verdict.status = VerdictStatus::kMissing;
        ++report.missing;
        report.rows.push_back(std::move(verdict));
        continue;
      }
      verdict.current = cur_value->as_double();
      verdict.current_text = cur_value->text();
      verdict.status =
          judge(verdict.baseline, verdict.current, policy.for_metric(verdict.name));
      if (verdict.baseline > 0.0) {
        verdict.ratio = verdict.current / verdict.baseline;
      }
      switch (verdict.status) {
        case VerdictStatus::kRegressed:
          ++report.compared;
          ++report.regressed;
          break;
        case VerdictStatus::kWarn:
          ++report.compared;
          ++report.warned;
          break;
        case VerdictStatus::kOk:
          ++report.compared;
          break;
        default:
          break;
      }
      report.rows.push_back(std::move(verdict));
    }
  }
  const Value* cur_results = current.get("results");
  if (cur_results != nullptr) {
    for (const Value& row : cur_results->items()) {
      const Value* name = row.get("name");
      if (name == nullptr || find_row(baseline, name->text()) != nullptr) {
        continue;
      }
      MetricVerdict verdict;
      verdict.name = name->text();
      verdict.unit = row_unit(row);
      verdict.status = VerdictStatus::kNew;
      if (const Value* value = row.get("value")) {
        verdict.current = value->as_double();
        verdict.current_text = value->text();
      }
      ++report.added;
      report.rows.push_back(std::move(verdict));
    }
  }
  return report;
}

util::json::Value verdict_json(const DiffReport& report,
                               const std::string& baseline_path,
                               const std::string& current_path,
                               const std::string& policy_source) {
  Value doc = Value::object();
  doc.set("schema", Value("fetch-bench-diff-v1"));
  doc.set("baseline", Value(baseline_path));
  doc.set("current", Value(current_path));
  doc.set("policy", Value(policy_source));
  Value rows = Value::array();
  for (const MetricVerdict& v : report.rows) {
    Value row = Value::object();
    row.set("name", Value(v.name));
    if (!v.unit.empty()) {
      row.set("unit", Value(v.unit));
    }
    if (!v.baseline_text.empty()) {
      row.set("baseline", Value::number(v.baseline, v.baseline_text));
    }
    if (!v.current_text.empty()) {
      row.set("current", Value::number(v.current, v.current_text));
    }
    if (v.ratio != 0.0) {
      row.set("ratio", Value::number(v.ratio, eval::fmt(v.ratio, 3)));
    }
    row.set("status", Value(std::string(status_name(v.status))));
    rows.add(std::move(row));
  }
  doc.set("rows", std::move(rows));
  Value summary = Value::object();
  summary.set("compared", Value::number(
                              static_cast<std::uint64_t>(report.compared)));
  summary.set("regressed", Value::number(
                               static_cast<std::uint64_t>(report.regressed)));
  summary.set("warned",
              Value::number(static_cast<std::uint64_t>(report.warned)));
  summary.set("missing",
              Value::number(static_cast<std::uint64_t>(report.missing)));
  summary.set("new", Value::number(static_cast<std::uint64_t>(report.added)));
  doc.set("summary", std::move(summary));
  doc.set("verdict", Value(std::string(report.verdict())));
  return doc;
}

eval::TextTable verdict_table(const DiffReport& report) {
  eval::TextTable table({"metric", "baseline", "current", "ratio", "status"});
  for (const MetricVerdict& v : report.rows) {
    table.add_row({v.name, v.baseline_text.empty() ? "-" : v.baseline_text,
                   v.current_text.empty() ? "-" : v.current_text,
                   v.ratio == 0.0 ? "-" : eval::fmt(v.ratio, 2),
                   std::string(status_name(v.status))});
  }
  return table;
}

std::string verdict_markdown(const DiffReport& report,
                             const std::string& title) {
  std::string out;
  out += "### " + title + " — " + std::string(report.verdict()) + "\n\n";
  out += "| metric | baseline | current | ratio | status |\n";
  out += "|---|---|---|---|---|\n";
  for (const MetricVerdict& v : report.rows) {
    const bool hot = v.status == VerdictStatus::kRegressed ||
                     v.status == VerdictStatus::kMissing;
    out += "| " + v.name;
    out += " | " + (v.baseline_text.empty() ? "-" : v.baseline_text);
    out += " | " + (v.current_text.empty() ? "-" : v.current_text);
    out += " | " + (v.ratio == 0.0 ? std::string("-") : eval::fmt(v.ratio, 2));
    out += " | ";
    if (hot) {
      out += "**" + std::string(status_name(v.status)) + "**";
    } else {
      out += status_name(v.status);
    }
    out += " |\n";
  }
  out += "\n";
  out += std::to_string(report.compared) + " compared, " +
         std::to_string(report.regressed) + " regressed, " +
         std::to_string(report.warned) + " warned, " +
         std::to_string(report.missing) + " missing, " +
         std::to_string(report.added) + " new\n";
  return out;
}

}  // namespace fetch::exp
