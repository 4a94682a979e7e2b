#include "common/config.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <string>

namespace hmcc {
namespace {

TEST(Config, SetFromString) {
  Config c;
  EXPECT_TRUE(c.set_from_string("key=value"));
  EXPECT_EQ(c.get_string("key", ""), "value");
  EXPECT_FALSE(c.set_from_string("novalue"));
  EXPECT_FALSE(c.set_from_string("=bad"));
  EXPECT_TRUE(c.set_from_string("empty="));
  EXPECT_EQ(c.get_string("empty", "x"), "");
}

TEST(Config, TypedGetters) {
  Config c;
  c.set("u", "0x10");
  c.set("d", "2.5");
  EXPECT_EQ(c.get_uint("u", 0), 16u);
  EXPECT_DOUBLE_EQ(c.get_double("d", 0), 2.5);
}

TEST(Config, FallbacksOnMissingOrMalformed) {
  Config c;
  c.set("junk", "12abc");
  EXPECT_EQ(c.get_uint("junk", 7), 7u);
  EXPECT_EQ(c.get_uint("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
}

TEST(Config, ParseArgs) {
  const char* argv[] = {"prog", "a=1", "not-an-assignment", "b=two"};
  Config c;
  EXPECT_EQ(c.parse_args(4, argv), 2u);
  EXPECT_EQ(c.get_uint("a", 0), 1u);
  EXPECT_EQ(c.get_string("b", ""), "two");
}

TEST(Config, ParseArgsReportsRejectedTokens) {
  const char* argv[] = {"prog", "a=1", "thread8", "=oops", "b=2"};
  Config c;
  std::vector<std::string> rejected;
  EXPECT_EQ(c.parse_args(5, argv, &rejected), 2u);
  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_EQ(rejected[0], "thread8");
  EXPECT_EQ(rejected[1], "=oops");
}

TEST(Config, GetUintRejectsNegativeInput) {
  Config c;
  c.set("threads", "-1");
  c.set("spaced", "  -3");
  // strtoull would happily wrap "-1" to 2^64-1; the getter must not.
  EXPECT_EQ(c.get_uint("threads", 4), 4u);
  EXPECT_EQ(c.get_uint("spaced", 9), 9u);
  c.set("ok", "17");
  EXPECT_EQ(c.get_uint("ok", 0), 17u);
}

TEST(Config, GettersRejectOutOfRangeValues) {
  Config c;
  c.set("huge_u", "99999999999999999999999999");  // > 2^64-1
  c.set("huge_d", "1e999");                       // > DBL_MAX
  EXPECT_EQ(c.get_uint("huge_u", 5), 5u);
  EXPECT_DOUBLE_EQ(c.get_double("huge_d", 0.25), 0.25);
}

TEST(Config, GetDoubleIsLocaleIndependent) {
  // Regression: get_double used strtod, whose decimal separator follows
  // LC_NUMERIC. Under a comma-decimal locale (e.g. de_DE) "1.5" parsed as 1
  // with trailing garbage, silently truncating every fractional knob.
  Config c;
  c.set("frac", "1.5");
  c.set("comma", "1,5");
  c.set("exp", "2.5e-1");

  // Whatever the locale, '.' must be the one and only decimal separator.
  const char* old_locale = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = old_locale ? old_locale : "C";
  const bool have_comma_locale =
      std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
      std::setlocale(LC_NUMERIC, "fr_FR.UTF-8") != nullptr;

  EXPECT_DOUBLE_EQ(c.get_double("frac", 0), 1.5);
  EXPECT_DOUBLE_EQ(c.get_double("exp", 0), 0.25);
  // A comma value is malformed in the config grammar regardless of locale.
  EXPECT_DOUBLE_EQ(c.get_double("comma", 9.0), 9.0);

  std::setlocale(LC_NUMERIC, saved.c_str());
  if (!have_comma_locale) {
    GTEST_LOG_(INFO) << "no comma-decimal locale installed; exercised the "
                        "locale-independent path under the C locale only";
  }
}

TEST(Config, GettersRejectEmptyValues) {
  Config c;
  c.set("empty", "");
  EXPECT_EQ(c.get_uint("empty", 12), 12u);
  EXPECT_DOUBLE_EQ(c.get_double("empty", 1.5), 1.5);
}

}  // namespace
}  // namespace hmcc
