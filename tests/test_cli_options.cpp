/// \file test_cli_options.cpp
/// The shared option table (util/cli.hpp): both flag spellings, missing,
/// malformed and unknown values, presence-based scope, passthrough, and
/// every rejection of the numeric parsers — plus one real front end
/// driven end to end, so a malformed number is shown to be a usage error
/// (exit 2) rather than a crash.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"

namespace fetch::util::cli {
namespace {

/// A mutable argv ("prog" + \p args) for Parser::parse.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

/// A small fetch-cli-shaped table: one global, one scoped to "query".
struct Table {
  std::size_t jobs = 0;
  std::string json;
  bool check = false;
  std::size_t retries = 0;
  std::vector<std::string> lists;

  Parser parser(bool passthrough = false) {
    return Parser("usage: prog\n",
                  {count("--jobs", &jobs), text("--json", &json),
                   flag("--check", &check),
                   count("--retries", &retries, 0, {"query"}),
                   text_list("--from-file", &lists)},
                  passthrough);
  }
};

TEST(CliOptions, BothFlagFormsAndPositionals) {
  Table t;
  Parser p = t.parser();
  Argv args({"--json", "a.json", "query", "--jobs=3", "--check", "x",
             "--from-file", "l1", "--from-file=l2"});
  ASSERT_TRUE(p.parse(args.argc(), args.argv()));
  EXPECT_EQ(t.json, "a.json");
  EXPECT_EQ(t.jobs, 3u);
  EXPECT_TRUE(t.check);
  EXPECT_EQ(t.lists, (std::vector<std::string>{"l1", "l2"}));
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"query", "x"}));
  EXPECT_TRUE(p.given("--jobs"));
  EXPECT_FALSE(p.given("--retries"));
  // `--f=` is an explicit empty value, not a missing one.
  Table empty;
  Parser q = empty.parser();
  Argv blank({"--json="});
  ASSERT_TRUE(q.parse(blank.argc(), blank.argv()));
  EXPECT_TRUE(q.given("--json"));
  EXPECT_EQ(empty.json, "");
}

TEST(CliOptions, MissingValueIsRejected) {
  Table t;
  Parser p = t.parser();
  Argv args({"detect", "--json"});
  EXPECT_FALSE(p.parse(args.argc(), args.argv()));
}

TEST(CliOptions, UnknownFlagIsRejected) {
  for (const char* unknown : {"--nope", "--nope=1", "-x", "-", "--jso"}) {
    Table t;
    Parser p = t.parser();
    Argv args({"detect", unknown});
    EXPECT_FALSE(p.parse(args.argc(), args.argv())) << unknown;
  }
}

TEST(CliOptions, BooleanFlagTakesNoValue) {
  Table t;
  Parser p = t.parser();
  Argv args({"--check=yes"});
  EXPECT_FALSE(p.parse(args.argc(), args.argv()));
}

TEST(CliOptions, PassthroughCollectsUnknownFlagsVerbatim) {
  Table t;
  Parser p = t.parser(/*passthrough=*/true);
  Argv args({"--benchmark_filter=BM_x", "--jobs", "2",
             "--benchmark_min_time=0.01"});
  ASSERT_TRUE(p.parse(args.argc(), args.argv()));
  EXPECT_EQ(t.jobs, 2u);
  ASSERT_EQ(p.passthrough().size(), 2u);
  EXPECT_STREQ(p.passthrough()[0], "--benchmark_filter=BM_x");
  EXPECT_STREQ(p.passthrough()[1], "--benchmark_min_time=0.01");
  // Known flags are still validated in passthrough mode.
  Table bad;
  Parser q = bad.parser(/*passthrough=*/true);
  Argv malformed({"--jobs", "two"});
  EXPECT_FALSE(q.parse(malformed.argc(), malformed.argv()));
}

TEST(CliOptions, ScopeIsCheckedOnPresenceNotValue) {
  // The default value (0) is as out of scope as any other value.
  for (const char* value : {"0", "1"}) {
    Table t;
    Parser p = t.parser();
    Argv args({"--retries", value, "detect", "x"});
    ASSERT_TRUE(p.parse(args.argc(), args.argv()));
    EXPECT_FALSE(p.check_scope("detect")) << value;
    EXPECT_TRUE(p.check_scope("query")) << value;
  }
  // Unscoped rows apply to every command.
  Table t;
  Parser p = t.parser();
  Argv args({"--jobs", "2", "detect"});
  ASSERT_TRUE(p.parse(args.argc(), args.argv()));
  EXPECT_TRUE(p.check_scope("detect"));
}

TEST(CliOptions, UnsignedParserRejectsSignsJunkAndOverflow) {
  std::uint64_t value = 99;
  EXPECT_TRUE(parse_unsigned("4", &value));
  EXPECT_EQ(value, 4u);
  EXPECT_TRUE(parse_unsigned("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_unsigned("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  value = 99;
  for (const char* bad : {"-1", "+1", "", "4x", " 4", "4 ", "banana", "0x10",
                          "1.5", "18446744073709551616",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_unsigned(bad, &value)) << bad;
  }
  EXPECT_EQ(value, 99u);  // rejected inputs leave the output untouched
  std::uint8_t narrow = 0;
  EXPECT_TRUE(parse_unsigned("255", &narrow));
  EXPECT_FALSE(parse_unsigned("256", &narrow));  // overflow of the target
}

TEST(CliOptions, DoubleParserRejectsSignsJunkRangeAndNonFinite) {
  double value = 7.0;
  EXPECT_TRUE(parse_double("2.5", &value));
  EXPECT_DOUBLE_EQ(value, 2.5);
  EXPECT_TRUE(parse_double("1e3", &value));
  EXPECT_DOUBLE_EQ(value, 1000.0);
  value = 7.0;
  for (const char* bad : {"-1", "+1", "", "1.5x", " 1", "inf", "nan",
                          "infinity", "1e999", "abc"}) {
    EXPECT_FALSE(parse_double(bad, &value)) << bad;
  }
  EXPECT_DOUBLE_EQ(value, 7.0);
}

TEST(CliOptions, RowValidatorsRejectMalformedValues) {
  std::size_t clients = 5;
  double qps = 1.0;
  std::string op = "query";
  std::optional<int> level;
  const auto parse_level = [](std::string_view text) -> std::optional<int> {
    if (text == "info") {
      return 1;
    }
    return std::nullopt;
  };
  const auto reject = [&](std::vector<std::string> args) {
    Parser p("usage: prog\n",
             {count("--clients", &clients, 1), positive("--open-loop", &qps),
              choice("--op", &op, {"ping", "query"}),
              parsed("--log-level", &level, parse_level)});
    Argv argv(std::move(args));
    return !p.parse(argv.argc(), argv.argv());
  };
  EXPECT_TRUE(reject({"--clients", "0"}));  // below the row's minimum
  EXPECT_TRUE(reject({"--clients=-1"}));    // no wrap to ULONG_MAX
  EXPECT_TRUE(reject({"--clients", "99999999999999999999"}));
  EXPECT_TRUE(reject({"--open-loop", "0"}));
  EXPECT_TRUE(reject({"--open-loop", "-5"}));
  EXPECT_TRUE(reject({"--open-loop", "nan"}));
  EXPECT_TRUE(reject({"--op", "stats"}));
  EXPECT_TRUE(reject({"--log-level", "loud"}));
  EXPECT_EQ(clients, 5u);
  EXPECT_DOUBLE_EQ(qps, 1.0);
  EXPECT_EQ(op, "query");
  EXPECT_FALSE(level.has_value());

  EXPECT_FALSE(reject({"--clients", "3", "--open-loop", "2.5", "--op", "ping",
                       "--log-level", "info"}));
  EXPECT_EQ(clients, 3u);
  EXPECT_DOUBLE_EQ(qps, 2.5);
  EXPECT_EQ(op, "ping");
  EXPECT_EQ(level, 1);
}

#ifdef FETCH_HOSTILE_CHECK_PATH

/// Exit status of hostile_check run with \p args. A signal death never
/// reads as 2: the shell reports it as 128+N, or pclose as -1.
int exit_status(const std::string& args) {
  const std::string command = std::string(FETCH_HOSTILE_CHECK_PATH) + " " +
                              args + " >/dev/null 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliOptions, FrontEndRejectsMalformedNumbersWithUsageExit) {
  // A malformed number is a usage error, never an uncaught exception.
  EXPECT_EQ(exit_status("--max-rss-mb abc"), 2);
  EXPECT_EQ(exit_status("--clients=-1"), 2);
}

#endif  // FETCH_HOSTILE_CHECK_PATH

}  // namespace
}  // namespace fetch::util::cli
