// The test-side JSON value type that the chrome-trace checks rely on: it
// must read every value shape the trace writer emits, round-trip through
// dump(), and reject malformed input with a reason instead of crashing.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace hmcc::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_TRUE(parse("true")->as_bool());
  EXPECT_FALSE(parse("false")->as_bool());
  EXPECT_EQ(parse("42")->as_int(), 42);
  EXPECT_EQ(parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
  // Integral text stays integral; 2^53+1 must not round through a double.
  EXPECT_EQ(parse("9007199254740993")->as_int(), 9007199254740993LL);
}

TEST(Json, ParsesContainersAndKeepsObjectOrder) {
  const auto v = parse(R"({"b": [1, 2.5, "x", null], "a": {"nested": true}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const Object& obj = v->as_object();
  ASSERT_EQ(obj.size(), 2u);
  // Insertion order, not sorted: "b" first.
  EXPECT_EQ(obj[0].first, "b");
  EXPECT_EQ(obj[1].first, "a");
  const Array& arr = obj[0].second.as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(arr[1].as_double(), 2.5);
  EXPECT_EQ(arr[2].as_string(), "x");
  EXPECT_TRUE(arr[3].is_null());
  const Value* nested = v->find("a");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->find("nested")->as_bool());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
  const auto v = parse(R"("a\"b\\c\/d\n\t\r\b\f\u0041\u00e9")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c/d\n\t\r\b\fA\xC3\xA9");
  // Surrogate pair: U+1F600 as UTF-8.
  const auto emoji = parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(emoji.has_value());
  EXPECT_EQ(emoji->as_string(), "\xF0\x9F\x98\x80");
  // dump() must emit text parse() accepts, whatever the content.
  const std::string tricky = "quote\" slash\\ ctrl\x01 text";
  const auto back = parse(quote(tricky));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), tricky);
}

TEST(Json, DumpRoundTripsThroughParse) {
  Value v = Object{
      {"name", "fig08"},
      {"count", std::int64_t{3}},
      {"ratio", 0.125},
      {"flag", true},
      {"none", nullptr},
      {"list", Array{1, "two", false}},
  };
  const std::string text = v.dump();
  const auto again = parse(text);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), text);
  EXPECT_EQ(text,
            R"({"name":"fig08","count":3,"ratio":0.125,"flag":true,)"
            R"("none":null,"list":[1,"two",false]})");
}

TEST(Json, RejectsMalformedInputWithReason) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1.", "+1",
        "{\"a\" 1}", "[1 2]", "\"\\u12\"", "\"\\x\"", "nul", "{\"a\":1,}",
        "[1,]", "\xff"}) {
    std::string error;
    EXPECT_FALSE(parse(bad, &error).has_value()) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << "no reason for: " << bad;
  }
  // Trailing garbage after a valid document is an error, not ignored.
  std::string error;
  EXPECT_FALSE(parse("{} trailing", &error).has_value());
  // Trailing whitespace is fine.
  EXPECT_TRUE(parse("  {\"a\": 1}  \n").has_value());
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(parse(deep, &error).has_value());
  EXPECT_FALSE(error.empty());
  // Comfortable nesting parses fine.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += '[';
  for (int i = 0; i < 32; ++i) ok += ']';
  EXPECT_TRUE(parse(ok).has_value());
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

}  // namespace
}  // namespace hmcc::json
