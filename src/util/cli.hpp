#pragma once

/// \file cli.hpp
/// The one command-line option layer every front end parses through
/// (fetch-cli, exp_run, hostile_check, strip_tool and the bench binaries).
/// A front end declares a table of rows — the flag's spelling, the variable
/// it sets, a validated value parser, and the subcommands that own it — and
/// the table does the rest:
///
///   - `--flag VALUE` and `--flag=VALUE` are both accepted;
///   - unknown flags, missing values and malformed values are rejected;
///   - a flag given to a subcommand that does not own it is rejected. Scope
///     is checked on the flag's *presence*, never by comparing the value it
///     set to a default (`--retries 0 detect` is as wrong as `--retries 1`);
///   - other tokens are collected as positionals and, when the table allows
///     it, unknown flags are passed through verbatim (bench_micro forwards
///     them to google-benchmark).
///
/// Every rejection prints the reason and the usage text on stderr; the
/// caller exits 2.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace fetch::util::cli {

/// Parses a plain unsigned decimal into \p out: digits only — no sign,
/// blank or trailing junk — and no overflow of T.
template <std::unsigned_integral T>
[[nodiscard]] bool parse_unsigned(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses an unsigned decimal number (`2.5`, `1e3`) into \p out: no sign,
/// no trailing junk, no out-of-range value, nothing non-finite.
[[nodiscard]] inline bool parse_double(std::string_view text, double* out) {
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    return false;
  }
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// Subcommands that own a flag; empty = every command.
using Scope = std::vector<std::string>;

/// One table row. Build rows with the helpers below.
struct Option {
  std::string name;  ///< exact spelling, e.g. "--jobs" or "-o"
  bool takes_value = true;
  /// Stores the value ("" for a boolean flag); false = malformed.
  std::function<bool(std::string_view)> set;
  Scope commands;
};

/// Boolean switch: present = true. Takes no value.
inline Option flag(std::string name, bool* target, Scope commands = {}) {
  return {std::move(name), false,
          [target](std::string_view) {
            *target = true;
            return true;
          },
          std::move(commands)};
}

/// Free-form text (a path, an id); the last occurrence wins.
inline Option text(std::string name, std::string* target,
                   Scope commands = {}) {
  return {std::move(name), true,
          [target](std::string_view value) {
            *target = value;
            return true;
          },
          std::move(commands)};
}

/// Repeatable text: every occurrence is appended in order.
inline Option text_list(std::string name, std::vector<std::string>* target,
                        Scope commands = {}) {
  return {std::move(name), true,
          [target](std::string_view value) {
            target->emplace_back(value);
            return true;
          },
          std::move(commands)};
}

/// Unsigned integer no smaller than \p min (see parse_unsigned).
template <std::unsigned_integral T>
Option count(std::string name, T* target, std::type_identity_t<T> min = 0,
             Scope commands = {}) {
  return {std::move(name), true,
          [target, min](std::string_view value) {
            T parsed{};
            if (!parse_unsigned(value, &parsed) || parsed < min) {
              return false;
            }
            *target = parsed;
            return true;
          },
          std::move(commands)};
}

/// Strictly positive finite number (see parse_double).
inline Option positive(std::string name, double* target,
                       Scope commands = {}) {
  return {std::move(name), true,
          [target](std::string_view value) {
            double parsed = 0.0;
            if (!parse_double(value, &parsed) || parsed <= 0.0) {
              return false;
            }
            *target = parsed;
            return true;
          },
          std::move(commands)};
}

/// A value from a closed set, validated by the module that owns the
/// spelling: \p parse maps text to std::optional<V>, nullopt = malformed.
template <typename T, typename Parse>
Option parsed(std::string name, T* target, Parse parse, Scope commands = {}) {
  return {std::move(name), true,
          [target, parse](std::string_view value) {
            const auto result = parse(value);
            if (!result) {
              return false;
            }
            *target = *result;
            return true;
          },
          std::move(commands)};
}

/// Text restricted to \p allowed spellings.
inline Option choice(std::string name, std::string* target,
                     std::vector<std::string> allowed, Scope commands = {}) {
  return {std::move(name), true,
          [target, allowed = std::move(allowed)](std::string_view value) {
            if (std::find(allowed.begin(), allowed.end(), value) ==
                allowed.end()) {
              return false;
            }
            *target = value;
            return true;
          },
          std::move(commands)};
}

class Parser {
 public:
  /// \p usage is printed after every rejection. With \p passthrough,
  /// unknown flags are collected (see passthrough()) instead of rejected.
  Parser(std::string usage, std::vector<Option> options,
         bool passthrough = false)
      : usage_(std::move(usage)),
        options_(std::move(options)),
        allow_passthrough_(passthrough) {}

  /// Parses argv[1..argc). Tokens starting with '-' are flags; everything
  /// else is a positional. False (after printing why) on any rejection.
  [[nodiscard]] bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.empty() || arg.front() != '-') {
        positionals_.emplace_back(arg);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string_view name = arg.substr(0, eq);
      const Option* option = find(name);
      if (option == nullptr) {
        if (allow_passthrough_) {
          passthrough_.push_back(argv[i]);
          continue;
        }
        return reject("unknown option " + std::string(name));
      }
      std::string_view value;
      if (!option->takes_value) {
        if (eq != std::string_view::npos) {
          return reject(option->name + " takes no value");
        }
      } else if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return reject(option->name + " needs a value");
      }
      if (!option->set(value)) {
        return reject("invalid value \"" + std::string(value) + "\" for " +
                      option->name);
      }
      given_.insert(option->name);
    }
    return true;
  }

  /// Rejects every given flag whose row is not owned by \p command.
  [[nodiscard]] bool check_scope(std::string_view command) const {
    for (const Option& option : options_) {
      const Scope& owners = option.commands;
      if (!owners.empty() && given(option.name) &&
          std::find(owners.begin(), owners.end(), command) == owners.end()) {
        return reject(option.name + " does not apply to " +
                      std::string(command));
      }
    }
    return true;
  }

  /// Whether \p name appeared on the command line.
  [[nodiscard]] bool given(std::string_view name) const {
    return given_.find(std::string(name)) != given_.end();
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  /// Unknown flags, verbatim and in order (passthrough tables only).
  [[nodiscard]] const std::vector<char*>& passthrough() const {
    return passthrough_;
  }

  /// For usage errors found after parsing: prints \p reason (when
  /// non-empty) and the usage text, returns the usage exit code 2.
  int fail(std::string_view reason = {}) const {
    if (!reason.empty()) {
      std::cerr << "error: " << reason << "\n";
    }
    std::cerr << usage_;
    return 2;
  }

 private:
  [[nodiscard]] const Option* find(std::string_view name) const {
    const auto it = std::find_if(
        options_.begin(), options_.end(),
        [name](const Option& option) { return option.name == name; });
    return it == options_.end() ? nullptr : &*it;
  }

  bool reject(const std::string& reason) const {
    fail(reason);
    return false;
  }

  std::string usage_;
  std::vector<Option> options_;
  bool allow_passthrough_;
  std::vector<std::string> positionals_;
  std::vector<char*> passthrough_;
  std::set<std::string> given_;
};

}  // namespace fetch::util::cli
