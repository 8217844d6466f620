#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>

#include "status_matchers.h"

/// \file
/// FlagSet::TryParse rejection contract: unknown flags, malformed and
/// missing values, positionals; and the value checks after parsing
/// (ParseChoice, CheckFlag). A typo in a serve launch line or bench
/// sweep script must be a hard error, never a silently-defaulted flag —
/// util_test.cc covers the happy paths, this suite pins the error paths.

namespace dial::util {
namespace {

util::Status ParseArgs(FlagSet& flags, std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flags.TryParse(static_cast<int>(argv.size()),
                        const_cast<char**>(argv.data()));
}

TEST(FlagsTryParse, ValidAllKinds) {
  FlagSet flags;
  int64_t* i = flags.AddInt("count", 1, "");
  double* d = flags.AddDouble("ratio", 0.5, "");
  bool* b = flags.AddBool("verbose", false, "");
  std::string* s = flags.AddString("name", "x", "");
  DIAL_ASSERT_OK(ParseArgs(
      flags, {"--count=5", "--ratio", "2.5", "--verbose", "--name=hello"}));
  EXPECT_EQ(*i, 5);
  EXPECT_DOUBLE_EQ(*d, 2.5);
  EXPECT_TRUE(*b);
  EXPECT_EQ(*s, "hello");
}

TEST(FlagsTryParse, UnknownFlagRejected) {
  FlagSet flags;
  flags.AddInt("workers", 2, "");
  const Status s = ParseArgs(flags, {"--wrokers=4"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Unknown flag"), std::string::npos) << s.ToString();
}

TEST(FlagsTryParse, MalformedIntRejected) {
  FlagSet flags;
  int64_t* n = flags.AddInt("n", 7, "");
  EXPECT_FALSE(ParseArgs(flags, {"--n=abc"}).ok());
  EXPECT_EQ(*n, 7);  // bad value must not clobber the default
  // Trailing garbage is rejected too (strtoll would stop at the 'x').
  EXPECT_FALSE(ParseArgs(flags, {"--n=8x"}).ok());
  EXPECT_EQ(*n, 7);
}

TEST(FlagsTryParse, EmptyValueRejected) {
  FlagSet flags;
  flags.AddInt("n", 7, "");
  flags.AddDouble("r", 1.0, "");
  EXPECT_FALSE(ParseArgs(flags, {"--n="}).ok());
  EXPECT_FALSE(ParseArgs(flags, {"--r="}).ok());
}

TEST(FlagsTryParse, MissingValueRejected) {
  FlagSet flags;
  flags.AddInt("n", 7, "");
  const Status s = ParseArgs(flags, {"--n"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("expects a value"), std::string::npos) << s.ToString();
}

TEST(FlagsTryParse, MalformedDoubleRejected) {
  FlagSet flags;
  double* r = flags.AddDouble("r", 0.25, "");
  EXPECT_FALSE(ParseArgs(flags, {"--r=fast"}).ok());
  EXPECT_DOUBLE_EQ(*r, 0.25);
}

TEST(FlagsTryParse, BadBoolValueRejected) {
  FlagSet flags;
  bool* b = flags.AddBool("feature", false, "");
  EXPECT_FALSE(ParseArgs(flags, {"--feature=yes"}).ok());
  EXPECT_FALSE(*b);
  DIAL_EXPECT_OK(ParseArgs(flags, {"--feature=true"}));
  EXPECT_TRUE(*b);
  DIAL_EXPECT_OK(ParseArgs(flags, {"--feature=0"}));
  EXPECT_FALSE(*b);
}

TEST(FlagsTryParse, NegationOnlyForBools) {
  FlagSet flags;
  bool* b = flags.AddBool("feature", true, "");
  flags.AddInt("n", 1, "");
  DIAL_EXPECT_OK(ParseArgs(flags, {"--no-feature"}));
  EXPECT_FALSE(*b);
  EXPECT_FALSE(ParseArgs(flags, {"--no-n"}).ok());
}

TEST(FlagsTryParse, PositionalRejected) {
  FlagSet flags;
  flags.AddInt("n", 1, "");
  const Status s = ParseArgs(flags, {"serve"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("positional"), std::string::npos) << s.ToString();
}

TEST(FlagsTryParse, HelpIsNonOk) {
  FlagSet flags;
  EXPECT_FALSE(ParseArgs(flags, {"--help"}).ok());
  EXPECT_FALSE(ParseArgs(flags, {"-h"}).ok());
}

TEST(FlagsTryParse, EarlierFlagsKeepValuesOnLaterError) {
  FlagSet flags;
  int64_t* n = flags.AddInt("n", 1, "");
  EXPECT_FALSE(ParseArgs(flags, {"--n=5", "--bogus=1"}).ok());
  EXPECT_EQ(*n, 5);  // documented: flags before the offending argument stick
}

TEST(FlagsTryParse, IntRangeOverflowRejected) {
  FlagSet flags;
  int64_t* n = flags.AddInt("n", 1, "");
  EXPECT_FALSE(ParseArgs(flags, {"--n=99999999999999999999999999"}).ok());
  EXPECT_EQ(*n, 1);
}

enum class Color { kRed, kBlue };

StatusOr<Color> ParseColor(const std::string& text) {
  return ParseChoice<Color>("color", text,
                            {{"red", Color::kRed}, {"blue", Color::kBlue}});
}

TEST(FlagsParseChoice, MapsSpellingsAndNamesEveryChoiceOnError) {
  EXPECT_EQ(ParseColor("red").value(), Color::kRed);
  EXPECT_EQ(ParseColor("blue").value(), Color::kBlue);
  const StatusOr<Color> bad = ParseColor("Red");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "unknown color 'Red' (expected red|blue)");
}

TEST(FlagsCheckFlag, PassesValuesThrough) {
  CheckFlag(Status::OK());
  EXPECT_EQ(CheckFlag(ParseColor("blue")), Color::kBlue);
}

TEST(FlagsDeathTest, CheckFlagExitsTwoWithTheMessage) {
  EXPECT_EXIT(CheckFlag(ParseColor("green")), testing::ExitedWithCode(2),
              "error: unknown color 'green'");
  EXPECT_EXIT(CheckFlag(Status::InvalidArgument("--a requires --b")),
              testing::ExitedWithCode(2), "--a requires --b");
}

}  // namespace
}  // namespace dial::util
