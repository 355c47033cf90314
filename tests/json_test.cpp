// Tests for the JSON substrate: parsing (full grammar, errors with
// positions), document model accessors, and rendering round trips,
// including number bytes against printf and strtod as oracles.
#include "config/json.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <vector>

namespace stordep::config {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").isNull());
  EXPECT_EQ(Json::parse("true").asBool(), true);
  EXPECT_EQ(Json::parse("false").asBool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.25e2").asNumber(), -325.0);
  EXPECT_EQ(Json::parse("\"hello\"").asString(), "hello");
}

TEST(Json, ParsesContainers) {
  const Json doc = Json::parse(R"({"a": [1, 2, 3], "b": {"c": "d"}})");
  ASSERT_TRUE(doc.isObject());
  const JsonArray& a = doc.at("a").asArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].asNumber(), 2.0);
  EXPECT_EQ(doc.at("b").at("c").asString(), "d");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(R"([[1, [2, [3]]], {}, [], {"k": null}])");
  ASSERT_EQ(doc.asArray().size(), 4u);
  EXPECT_DOUBLE_EQ(doc.asArray()[0].asArray()[1].asArray()[1].asArray()[0]
                       .asNumber(),
                   3.0);
  EXPECT_TRUE(doc.asArray()[3].at("k").isNull());
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("line\nbreak\t\"quoted\" \\ A")");
  EXPECT_EQ(doc.asString(), "line\nbreak\t\"quoted\" \\ A");
  // Unicode beyond ASCII encodes as UTF-8.
  EXPECT_EQ(Json::parse(R"("é")").asString(), "\xC3\xA9");
  EXPECT_EQ(Json::parse(R"("€")").asString(), "\xE2\x82\xAC");
}

TEST(Json, ParseErrorsCarryPositions) {
  try {
    (void)Json::parse("{\n  \"a\": tru\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1, 2,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)Json::parse("{1: 2}"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("\"bad\\q\""), JsonError);
  EXPECT_THROW((void)Json::parse("\"bad\\u12g4\""), JsonError);
  EXPECT_THROW((void)Json::parse("12 34"), JsonError);  // trailing garbage
  EXPECT_THROW((void)Json::parse("nope"), JsonError);
}

TEST(Json, TypeMismatchesThrow) {
  const Json num = Json::parse("1");
  EXPECT_THROW((void)num.asString(), std::runtime_error);
  EXPECT_THROW((void)num.asArray(), std::runtime_error);
  EXPECT_THROW((void)num.asObject(), std::runtime_error);
  EXPECT_THROW((void)num.asBool(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"s\"").asNumber(), std::runtime_error);
}

TEST(Json, DumpRoundTrips) {
  const std::string text =
      R"({"name":"baseline","n":42,"nested":{"list":[1,2.5,"x",true,null]}})";
  const Json doc = Json::parse(text);
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_TRUE(doc == reparsed);
  const Json repretty = Json::parse(doc.pretty());
  EXPECT_TRUE(doc == repretty);
}

TEST(Json, PrettyIsIndentated) {
  const Json doc = Json::parse(R"({"a": [1, 2]})");
  const std::string pretty = doc.pretty();
  EXPECT_NE(pretty.find("{\n  \"a\": [\n    1,\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(Json, SetBuildsObjects) {
  Json doc;  // starts null
  doc.set("a", Json(1));
  doc.set("b", Json("two"));
  doc.set("a", Json(3));  // overwrite keeps position
  ASSERT_TRUE(doc.isObject());
  ASSERT_EQ(doc.asObject().size(), 2u);
  EXPECT_EQ(doc.asObject()[0].first, "a");
  EXPECT_DOUBLE_EQ(doc.at("a").asNumber(), 3.0);
}

TEST(Json, ObjectOrderPreserved) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const JsonObject& object = doc.asObject();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "z");
  EXPECT_EQ(object[1].first, "a");
  EXPECT_EQ(object[2].first, "m");
  // And the order survives a dump/parse cycle.
  EXPECT_EQ(Json::parse(doc.dump()).asObject()[0].first, "z");
}

TEST(Json, NumbersRenderCleanly) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json(1360.0 * 1024 * 1024 * 1024).dump(), "1460288880640");
}

std::uint64_t bitsOf(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(Json, SubnormalsRoundTripAndOutOfRangeStaysRejected) {
  for (const double value : {DBL_TRUE_MIN, -DBL_TRUE_MIN,
                             std::nextafter(DBL_MIN, 0.0), 1e-310}) {
    const std::string text = Json(value).dump();
    const Json parsed = Json::parse(text);
    ASSERT_TRUE(parsed.isNumber()) << text;
    EXPECT_EQ(bitsOf(parsed.asNumber()), bitsOf(value)) << text;
  }
  EXPECT_EQ(Json(DBL_TRUE_MIN).dump(), "4.9406564584124654e-324");
  EXPECT_EQ(Json::parse("2.2250738585072009e-308").asNumber(),
            std::nextafter(DBL_MIN, 0.0));
  // Beyond the double range in either direction is still an error.
  for (const char* text : {"1e400", "-1e400", "1e-400", "-1e-400"}) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << text;
  }
}

TEST(Json, RejectsNumbersRfc8259Forbids) {
  for (const char* text :
       {"01", "-01", "00", "-00", "-.5", ".5", "1.", "1.e3", "-", "1e", "1e+",
        "1E-", "+1", "[01]", "{\"a\": 1.}"}) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << text;
  }
  for (const char* text :
       {"0", "-0", "0.5", "-0.5", "10", "1e3", "1E+3", "1.5e-3", "0e0"}) {
    EXPECT_NO_THROW((void)Json::parse(text)) << text;
  }
  // The error names the offending character's position.
  try {
    (void)Json::parse("{\n  \"a\": 01\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 9u);
  }
}

/// The bytes the writer printed with snprintf before it used to_chars.
std::string printfNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const bool whole = value == std::floor(value) && std::fabs(value) < 1e15;
  std::snprintf(buf, sizeof(buf), whole ? "%.0f" : "%.17g", value);
  return buf;
}

TEST(Json, NumberBytesMatchPrintfAndParseMatchesStrtod) {
  std::vector<double> values = {
      0.0,   -0.0,  DBL_MAX, -DBL_MAX, DBL_MIN,  DBL_TRUE_MIN, 0.1, 1.0 / 3.0,
      2.5,   -7.0,  1e300,   1e-300,   HUGE_VAL, -HUGE_VAL,    NAN};
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  // Whole numbers on both sides of the 1e15 switch between the formats.
  for (const double base : {1e15, 9007199254740992.0, 1e17}) {
    for (int k = -300; k <= 300; ++k) {
      values.push_back(base + k);
      values.push_back(-(base + k));
    }
  }
  for (int n = 1; n <= 300; ++n) {
    for (const int d : {3, 7, 10, 100, 1000, 1024, 3600}) {
      values.push_back(static_cast<double>(n) / d);
      values.push_back(-static_cast<double>(n) * 1e6 / d);
    }
  }

  for (const double value : values) {
    const std::string text = Json(value).dump();
    ASSERT_EQ(text, printfNumber(value)) << std::hexfloat << value;
    if (!std::isfinite(value)) continue;
    // What dump writes, parse reads back to the same bits.
    const double parsed = Json::parse(text).asNumber();
    ASSERT_EQ(bitsOf(parsed), bitsOf(value)) << text;
    errno = 0;
    const double reference = std::strtod(text.c_str(), nullptr);
    if (errno != ERANGE) {
      ASSERT_EQ(bitsOf(parsed), bitsOf(reference)) << text;
    }
  }
}

TEST(Json, ShippedDesignFilesRePrettyByteForByte) {
  // Written by hand with short decimals ("perGB": 17.2), which "%.17g"
  // prints in full; its pretty rendering must be a fixed point instead.
  const std::set<std::string> handWritten = {"baseline_reliability.json"};
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(STORDEP_SOURCE_DIR) + "/designs")) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    const std::string name = entry.path().filename().string();
    if (handWritten.count(name) == 0) {
      EXPECT_EQ(doc.pretty() + "\n", text.str()) << name;
    } else {
      const Json again = Json::parse(doc.pretty());
      EXPECT_TRUE(again == doc) << name;
      EXPECT_EQ(again.pretty(), doc.pretty()) << name;
    }
  }
  EXPECT_GE(files, 8);
}

TEST(Json, WhitespaceTolerant) {
  const Json doc = Json::parse("  \n\t{ \"a\" :\r\n [ 1 , 2 ] }  \n");
  EXPECT_EQ(doc.at("a").asArray().size(), 2u);
}

}  // namespace
}  // namespace stordep::config
