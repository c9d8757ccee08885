#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace hgdb::common {
namespace {

TEST(Json, DefaultIsNull) {
  Json value;
  EXPECT_TRUE(value.is_null());
}

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, IntDoubleInterop) {
  EXPECT_EQ(Json(2.0).as_int(), 2);
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
  EXPECT_EQ(Json(2), Json(2.0));
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW((void)Json(42).as_string(), std::runtime_error);
  EXPECT_THROW((void)Json("x").as_int(), std::runtime_error);
}

TEST(Json, ObjectAccess) {
  Json object = Json::object();
  object["a"] = Json(1);
  object["b"] = Json("two");
  EXPECT_TRUE(object.contains("a"));
  EXPECT_FALSE(object.contains("c"));
  EXPECT_EQ(object.get_int("a"), 1);
  EXPECT_EQ(object.get_string("b"), "two");
  EXPECT_EQ(object.get_string("missing", "fallback"), "fallback");
  EXPECT_EQ(object.size(), 2u);
}

TEST(Json, ArrayAccess) {
  Json array = Json::array();
  array.push_back(Json(1));
  array.push_back(Json(2));
  EXPECT_EQ(array.size(), 2u);
  EXPECT_EQ(array.at(1).as_int(), 2);
}

TEST(Json, DumpScalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("x").dump(), "\"x\"");
}

TEST(Json, DumpDeterministicKeyOrder) {
  Json object = Json::object();
  object["zebra"] = Json(1);
  object["apple"] = Json(2);
  EXPECT_EQ(object.dump(), "{\"apple\":2,\"zebra\":1}");
}

TEST(Json, DumpEscapes) {
  Json value(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(value.dump(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e2").as_double(), 250.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const Json value = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  EXPECT_EQ(value.get("a")->get().at(2).get_string("b"), "c");
  EXPECT_TRUE(value.get("d")->get().is_null());
}

TEST(Json, ParseEscapesAndUnicode) {
  EXPECT_EQ(Json::parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json value = Json::parse("  {  \"a\" :\n[ 1 ,2 ]\t}  ");
  EXPECT_EQ(value.get("a")->get().size(), 2u);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, RoundTrip) {
  const std::string text =
      R"({"breakpoints":[{"id":1,"line":42}],"status":"success","time":1024})";
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, RoundTripLargeIntegers) {
  const int64_t big = 0x7fffffffffffffffll;
  Json value(big);
  EXPECT_EQ(Json::parse(value.dump()).as_int(), big);
}

TEST(Json, AsIntRejectsDoublesOutsideInt64) {
  EXPECT_THROW((void)Json::parse("1e300").as_int(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("-1e300").as_int(), std::runtime_error);
  EXPECT_THROW((void)Json(9223372036854775808.0).as_int(), std::runtime_error);
  EXPECT_THROW((void)Json(std::nan("")).as_int(), std::runtime_error);
  EXPECT_THROW((void)Json(HUGE_VAL).as_int(), std::runtime_error);
  // In range: truncates toward zero, down to the exact int64 minimum.
  EXPECT_EQ(Json::parse("-2.9").as_int(), -2);
  EXPECT_EQ(Json(-9223372036854775808.0).as_int(), INT64_MIN);
  // get_int goes through as_int, so it fails the same way.
  EXPECT_THROW((void)Json::parse(R"({"n":1e300})").get_int("n"),
               std::runtime_error);
}

TEST(Json, EqualityDeep) {
  const Json a = Json::parse(R"({"x":[1,{"y":2}]})");
  const Json b = Json::parse(R"({"x":[1,{"y":2}]})");
  const Json c = Json::parse(R"({"x":[1,{"y":3}]})");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

class JsonFuzzRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonFuzzRoundTrip, ParseDumpParseIsStable) {
  const Json first = Json::parse(GetParam());
  const Json second = Json::parse(first.dump());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.dump(), second.dump());
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonFuzzRoundTrip,
    ::testing::Values("{}", "[]", "[[[[1]]]]", R"({"a":{"b":{"c":[null]}}})",
                      R"([1,2.5,"x",true,null,{"k":[]}])",
                      R"({"empty":"","zero":0,"neg":-1})"));

}  // namespace
}  // namespace hgdb::common
