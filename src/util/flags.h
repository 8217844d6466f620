#ifndef DIAL_UTIL_FLAGS_H_
#define DIAL_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file
/// Tiny command-line flag parser for the tools, bench harnesses and
/// examples. Supports `--name=value`, `--name value`, and boolean `--name` /
/// `--no-name`. Unknown flags, malformed values (`--workers=abc`,
/// `--workers=`), and missing values are hard errors so typos in sweep
/// scripts and serve launch lines are caught immediately: Parse prints the
/// error and the usage text and exits with status 2. Values that only a
/// later parser can judge (an unknown `--backend`, say) fail the same way
/// through CheckFlag, before a tool does any real work.

namespace dial::util {

class FlagSet {
 public:
  /// Registers a flag with a default; returns a stable pointer to the value.
  int64_t* AddInt(const std::string& name, int64_t default_value,
                  const std::string& help);
  double* AddDouble(const std::string& name, double default_value,
                    const std::string& help);
  bool* AddBool(const std::string& name, bool default_value, const std::string& help);
  std::string* AddString(const std::string& name, const std::string& default_value,
                         const std::string& help);

  /// Parses argv (skipping argv[0]). `--help` prints the usage text and
  /// exits 0; an error prints its message and the usage text to stderr and
  /// exits 2.
  void Parse(int argc, char** argv);

  /// Status-returning variant of Parse for embedding and tests: returns
  /// InvalidArgument for unknown flags, positionals, malformed or missing
  /// values, and for `--help`. Flags parsed before the offending argument
  /// keep their new values; the rest are untouched.
  Status TryParse(int argc, char** argv);

  /// Usage text listing every registered flag.
  std::string Usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    std::string help;
    std::string default_text;
    int64_t* int_value = nullptr;
    double* double_value = nullptr;
    bool* bool_value = nullptr;
    std::string* string_value = nullptr;
  };

  Status SetFromText(const std::string& name, Flag& flag, const std::string& text);

  std::map<std::string, Flag> flags_;
  // Deques of stable storage for registered values.
  std::vector<std::unique_ptr<int64_t>> int_storage_;
  std::vector<std::unique_ptr<double>> double_storage_;
  std::vector<std::unique_ptr<bool>> bool_storage_;
  std::vector<std::unique_ptr<std::string>> string_storage_;
};

/// The value spelled `text` among `choices` (spelling, value). Any other
/// text is InvalidArgument "unknown <what> '<text>' (expected a|b|c)",
/// which names every accepted spelling: the shared body of the enum
/// parsers (data::ParseScale, core::ParseIndexBackend, ...).
template <typename T>
StatusOr<T> ParseChoice(const std::string& what, const std::string& text,
                        std::initializer_list<std::pair<const char*, T>> choices) {
  std::string expected;
  for (const auto& [name, value] : choices) {
    if (text == name) return value;
    if (!expected.empty()) expected += '|';
    expected += name;
  }
  return Status::InvalidArgument("unknown " + what + " '" + text +
                                 "' (expected " + expected + ")");
}

/// Fails a flag value the way Parse fails a malformed flag: on a non-OK
/// `status`, prints its message on one line of stderr and exits with
/// status 2. For what Parse cannot see: an unknown enum spelling, an
/// unknown dataset, a flag that needs another.
void CheckFlag(const Status& status);

/// The value behind `parsed`, after CheckFlag on its status.
template <typename T>
T CheckFlag(StatusOr<T> parsed) {
  CheckFlag(parsed.status());
  return std::move(parsed).value();
}

}  // namespace dial::util

#endif  // DIAL_UTIL_FLAGS_H_
