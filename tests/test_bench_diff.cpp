/// \file test_bench_diff.cpp
/// Drives the real bench-report comparator, `exp_run diff` (path injected
/// by CMake, like FETCH_CLI_PATH for test_cli), and pins its exit-code
/// contract: 0 ok · 1 regression · 2 usage/unreadable input · 3 baseline
/// metric missing from the candidate — plus the fetch-bench-diff-v1
/// `--json` verdict document and per-metric tolerance policies loaded
/// from a config file.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fetch {
namespace {

using util::json::Value;

#ifdef EXP_RUN_PATH

struct CommandResult {
  int status = -1;
  std::string stdout_text;
};

CommandResult run_diff(const std::string& args) {
  CommandResult result;
  const std::string command =
      std::string(EXP_RUN_PATH) + " diff " + args + " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.stdout_text += buffer;
  }
  const int status = ::pclose(pipe);
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string write_report(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& rows) {
  Value doc = Value::object();
  doc.set("schema", Value("fetch-bench-v1"));
  doc.set("bench", Value("bench_unit"));
  Value results = Value::array();
  for (const auto& [metric, value] : rows) {
    Value row = Value::object();
    row.set("name", Value(metric));
    row.set("value", Value::number(value));
    row.set("unit", Value("ns/op"));
    results.add(std::move(row));
  }
  doc.set("results", std::move(results));
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump() << "\n";
  return path;
}

std::string write_text(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

Value slurp_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = Value::parse(buffer.str());
  EXPECT_TRUE(doc.has_value()) << path;
  return doc ? *doc : Value();
}

TEST(BenchDiff, IdenticalReportsPass) {
  const std::string base = write_report("bd_same_a.json", {{"m", 10.0}});
  const std::string cur = write_report("bd_same_b.json", {{"m", 10.0}});
  const CommandResult r = run_diff(base + " " + cur);
  EXPECT_EQ(r.status, 0) << r.stdout_text;
}

TEST(BenchDiff, RegressionExitsOne) {
  const std::string base = write_report("bd_reg_a.json", {{"m", 10.0}});
  const std::string cur = write_report("bd_reg_b.json", {{"m", 100.0}});
  EXPECT_EQ(run_diff(base + " " + cur).status, 1);
  // Without a tolerances file the band is the built-in flat 3x.
  const std::string inside = write_report("bd_reg_c.json", {{"m", 25.0}});
  EXPECT_EQ(run_diff(base + " " + inside).status, 0);
}

TEST(BenchDiff, MissingMetricExitsThree) {
  const std::string base =
      write_report("bd_miss_a.json", {{"kept", 10.0}, {"dropped", 5.0}});
  const std::string cur = write_report("bd_miss_b.json", {{"kept", 10.0}});
  EXPECT_EQ(run_diff(base + " " + cur).status, 3);
}

TEST(BenchDiff, RegressionOutranksMissing) {
  const std::string base =
      write_report("bd_both_a.json", {{"kept", 10.0}, {"dropped", 5.0}});
  const std::string cur = write_report("bd_both_b.json", {{"kept", 100.0}});
  EXPECT_EQ(run_diff(base + " " + cur).status, 1);
}

TEST(BenchDiff, UnreadableInputExitsTwo) {
  const std::string base = write_report("bd_io_a.json", {{"m", 10.0}});
  const std::string junk = write_text("bd_io_junk.json", "not json at all");
  EXPECT_EQ(run_diff(base + " /does/not/exist.json").status, 2);
  EXPECT_EQ(run_diff(base + " " + junk).status, 2);
  EXPECT_EQ(run_diff(base).status, 2);  // usage
  EXPECT_EQ(run_diff("--strict " + base + " " + base).status, 2);
  EXPECT_EQ(run_diff("--check " + base + " " + base).status, 2);  // run-only
}

TEST(BenchDiff, JsonVerdictIsMachineReadable) {
  const std::string base =
      write_report("bd_json_a.json", {{"fast", 10.0}, {"gone", 1.0}});
  const std::string cur =
      write_report("bd_json_b.json", {{"fast", 99.0}, {"extra", 2.0}});
  const std::string verdict_path = ::testing::TempDir() + "/bd_verdict.json";
  const CommandResult r =
      run_diff("--json " + verdict_path + " " + base + " " + cur);
  EXPECT_EQ(r.status, 1);

  const Value verdict = slurp_json(verdict_path);
  ASSERT_TRUE(verdict.is_object());
  EXPECT_EQ(verdict.get("schema")->text(), "fetch-bench-diff-v1");
  EXPECT_EQ(verdict.get("verdict")->text(), "regressed");
  const Value* summary = verdict.get("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->get("regressed")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(summary->get("missing")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(summary->get("new")->as_double(), 1.0);
  const Value* rows = verdict.get("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 3u);
  EXPECT_EQ(rows->items()[0].get("status")->text(), "regressed");
  EXPECT_EQ(rows->items()[1].get("status")->text(), "missing");
  EXPECT_EQ(rows->items()[2].get("status")->text(), "new");
}

TEST(BenchDiff, MarkdownSummaryIsWritten) {
  const std::string base = write_report("bd_md_a.json", {{"m", 10.0}});
  const std::string cur = write_report("bd_md_b.json", {{"m", 100.0}});
  const std::string md_path = ::testing::TempDir() + "/bd_summary.md";
  run_diff("--markdown " + md_path + " " + base + " " + cur);
  std::ifstream in(md_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("| metric |"), std::string::npos);
  EXPECT_NE(buffer.str().find("**regressed**"), std::string::npos);
}

TEST(BenchDiff, TolerancesConfigDrivesTheVerdict) {
  const std::string tolerances = write_text("bd_tol.json", R"({
    "schema": "fetch-tol-v1",
    "default": {"max_ratio": 3.0},
    "metrics": {
      "qps": {"direction": "higher", "max_ratio": 2.0},
      "p99": {"warn_only": true}
    }})");
  // qps doubled: higher-is-better, improvement never fails.
  const std::string base_up =
      write_report("bd_tol_a.json", {{"qps", 100.0}, {"p99", 5.0}});
  const std::string cur_up =
      write_report("bd_tol_b.json", {{"qps", 200.0}, {"p99", 5.0}});
  EXPECT_EQ(run_diff("--tolerances " + tolerances + " " + base_up +
                     " " + cur_up)
                .status,
            0);
  // qps dropped below the band: regression.
  const std::string cur_down =
      write_report("bd_tol_c.json", {{"qps", 40.0}, {"p99", 5.0}});
  EXPECT_EQ(run_diff("--tolerances " + tolerances + " " + base_up +
                     " " + cur_down)
                .status,
            1);
  // p99 exploded but is warn-only: exit 0, status warn in the verdict.
  const std::string cur_noisy =
      write_report("bd_tol_d.json", {{"qps", 100.0}, {"p99", 500.0}});
  const std::string verdict_path = ::testing::TempDir() + "/bd_tol_v.json";
  const CommandResult r =
      run_diff("--tolerances " + tolerances + " --json " +
               verdict_path + " " + base_up + " " + cur_noisy);
  EXPECT_EQ(r.status, 0) << r.stdout_text;
  const Value verdict = slurp_json(verdict_path);
  EXPECT_EQ(verdict.get("rows")->items()[1].get("status")->text(), "warn");
  // An unreadable tolerances file is an infrastructure error, not a pass.
  EXPECT_EQ(run_diff("--tolerances /does/not/exist.json " +
                     base_up + " " + cur_up)
                .status,
            2);
}

#else

TEST(BenchDiff, Skipped) {
  GTEST_SKIP() << "EXP_RUN_PATH not provided by the build";
}

#endif  // EXP_RUN_PATH

}  // namespace
}  // namespace fetch
