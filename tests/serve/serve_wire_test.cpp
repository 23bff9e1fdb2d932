// Wire-format tests: the flat JSONL protocol must round-trip every value
// kind, enforce RFC 8259 string rules, and reject anything outside the
// flat-object grammar with a position-bearing diagnostic.
#include "serve/wire.h"

#include <gtest/gtest.h>

#include "serve/server.h"

namespace boosting::serve {
namespace {

WireObject parse(const std::string& line) {
  WireObject obj;
  std::string err;
  EXPECT_TRUE(parseWireObject(line, &obj, &err)) << line << ": " << err;
  return obj;
}

std::string rejects(const std::string& line) {
  WireObject obj;
  std::string err;
  EXPECT_FALSE(parseWireObject(line, &obj, &err)) << line;
  EXPECT_FALSE(err.empty()) << "diagnostic must be set: " << line;
  return err;
}

TEST(ServeWire, ParsesEveryValueKind) {
  const auto obj = parse(R"({"s":"x","i":-42,"d":1.5,"t":true,"f":false,)"
                         R"("z":null})");
  EXPECT_EQ(getStr(obj, "s"), "x");
  EXPECT_EQ(getInt(obj, "i"), -42);
  EXPECT_EQ(obj.at("d").kind, WireValue::Kind::Double);
  EXPECT_DOUBLE_EQ(obj.at("d").d, 1.5);
  EXPECT_TRUE(getBool(obj, "t"));
  EXPECT_FALSE(getBool(obj, "f", true));
  EXPECT_EQ(obj.at("z").kind, WireValue::Kind::Null);
}

TEST(ServeWire, RoundTripsThroughSerializer) {
  WireObject obj;
  obj["name"] = WireValue::ofStr("tab\there \"quoted\" \\ nl\n");
  obj["count"] = WireValue::ofInt(1234567890123LL);
  obj["rate"] = WireValue::ofDouble(0.1);
  obj["on"] = WireValue::ofBool(true);
  const std::string line = writeWireObject(obj);
  const auto back = parse(line);
  EXPECT_EQ(getStr(back, "name"), "tab\there \"quoted\" \\ nl\n");
  EXPECT_EQ(getInt(back, "count"), 1234567890123LL);
  EXPECT_DOUBLE_EQ(back.at("rate").d, 0.1);
  EXPECT_TRUE(getBool(back, "on"));
  // Deterministic output: keys sorted, stable across serializations.
  EXPECT_EQ(line, writeWireObject(back));
}

TEST(ServeWire, DecodesUnicodeEscapes) {
  const auto obj = parse(R"({"s":"Aé€😀"})");
  EXPECT_EQ(getStr(obj, "s"), "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(ServeWire, EmptyObjectAndWhitespace) {
  EXPECT_TRUE(parse("{}").empty());
  EXPECT_EQ(getInt(parse("  { \"a\" : 1 }  "), "a"), 1);
}

TEST(ServeWire, RejectsNestedContainers) {
  EXPECT_NE(rejects(R"({"a":{"b":1}})").find("nested"), std::string::npos);
  EXPECT_NE(rejects(R"({"a":[1,2]})").find("nested"), std::string::npos);
}

TEST(ServeWire, RejectsMalformedInput) {
  rejects("");
  rejects("not json");
  rejects(R"({"a":1)");          // unterminated object
  rejects(R"({"a" 1})");         // missing colon
  rejects(R"({"a":1} trailing)");  // trailing garbage
  rejects(R"({"a":tru})");       // bad literal
  rejects(R"({"a":-})");         // malformed number
  rejects(R"({"a":"\q"})");      // unknown escape
  rejects(R"({"a":"\ud800"})");  // lone high surrogate
  rejects("{\"a\":\"ctl\x01\"}");  // raw control character
}

TEST(ServeWire, HelpersFallBackOnWrongKind) {
  const auto obj = parse(R"({"n":"three"})");
  EXPECT_EQ(getInt(obj, "n", 7), 7);
  EXPECT_EQ(getStr(obj, "missing", "dflt"), "dflt");
  EXPECT_TRUE(hasKey(obj, "n"));
  EXPECT_FALSE(hasKey(obj, "missing"));
}

TEST(ServeWire, SubmitRejectsUnknownKeysByName) {
  // Removed options and typos are errors, never silently ignored fields.
  for (const char* key : {"threads", "shards", "pipeline", "symetry"}) {
    const auto req = parse(std::string(R"({"op":"submit","id":"a",)") + "\"" +
                           key + "\":4}");
    JobSpec spec;
    std::string err;
    EXPECT_FALSE(parseSubmitRequest(req, &spec, &err)) << key;
    EXPECT_EQ(err, std::string("submit: unknown key '") + key + "'");
  }
  const auto ok = parse(
      R"({"op":"submit","id":"a","candidate":"relay","n":3,"f":1,)"
      R"("claim":2,"priority":5,"symmetry":"off","por":"on",)"
      R"("witness":true,"progress":false})");
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(parseSubmitRequest(ok, &spec, &err)) << err;
  EXPECT_EQ(spec.id, "a");
  EXPECT_EQ(spec.n, 3);
  EXPECT_EQ(spec.claim, 2);
  EXPECT_EQ(spec.priority, 5);
  EXPECT_EQ(spec.symmetry, analysis::SymmetryMode::Off);
  EXPECT_EQ(spec.por, analysis::PorMode::On);
  EXPECT_TRUE(spec.wantWitness);
}

TEST(ServeWire, SubmitRejectsMistypedValues) {
  JobSpec spec;
  std::string err;
  EXPECT_FALSE(parseSubmitRequest(parse(R"({"op":"submit","n":"3"})"), &spec,
                                  &err));
  EXPECT_EQ(err, "n: expected an integer");
  EXPECT_FALSE(parseSubmitRequest(parse(R"({"op":"submit","por":"banana"})"),
                                  &spec, &err));
  EXPECT_EQ(err, "por: expected auto|on|off, got 'banana'");
}

}  // namespace
}  // namespace boosting::serve
