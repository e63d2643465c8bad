#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/contract.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace braidio::util {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"mode", "power"});
  t.add_row({"active", "94.56 mW"});
  t.add_row({"backscatter", "36.4 uW"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("mode"), std::string::npos);
  EXPECT_NE(s.find("backscatter"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, ShortRowsPaddedLongRowsRejected) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, StreamsToOstream) {
  TablePrinter t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(FormatSiPower, PicksSensibleUnits) {
  EXPECT_EQ(format_si_power(0.129), "129 mW");
  EXPECT_EQ(format_si_power(16.54e-6), "16.54 uW");
  EXPECT_EQ(format_si_power(4.2), "4.2 W");
  EXPECT_EQ(format_si_power(0.0), "0 W");
  EXPECT_EQ(format_si_power(2e-9), "2 nW");
}

TEST(Format, FixedAndScientific) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  const auto s = format_scientific(2546.0, 3);
  EXPECT_NE(s.find("e"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RendersRowsAndValidatesWidth) {
  CsvWriter w({"d", "ber"});
  w.add_row(std::vector<std::string>{"0.5", "1e-3"});
  w.add_row(std::vector<double>{1.0, 0.01});
  EXPECT_THROW(w.add_row(std::vector<double>{1.0}), std::invalid_argument);
  const auto s = w.to_string();
  EXPECT_EQ(s, "d,ber\n0.5,1e-3\n1,0.01\n");
}

TEST(Csv, WritesFile) {
  CsvWriter w({"x"});
  w.add_row(std::vector<double>{42.0});
  const std::string path = ::testing::TempDir() + "/braidio_csv_test.csv";
  w.write_file(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
  EXPECT_THROW(w.write_file("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(Json, NumberKeepsSeventeenDigitsAndNullsNonFinite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::number(0.1), "0.10000000000000001");
  EXPECT_EQ(json::number(2.0), "2");
  EXPECT_EQ(json::number(1.5e-300), "1.5000000000000001e-300");
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(kInf), "null");
  EXPECT_EQ(json::number(-kInf), "null");
}

TEST(Json, FixedNeverUsesAnExponent) {
  EXPECT_EQ(json::fixed(2.5, 3), "2.500");
  EXPECT_EQ(json::fixed(1e-7, 9), "0.000000100");
  EXPECT_EQ(json::fixed(121.0, 0), "121");
  EXPECT_EQ(json::fixed(1e20, 0), "100000000000000000000");
  EXPECT_EQ(json::fixed(1e300, 1).size(), 303u);
  EXPECT_EQ(json::fixed(std::numeric_limits<double>::quiet_NaN(), 3), "null");
}

TEST(Json, EscapeKeepsEveryControlCharacter) {
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("\n\t"), "\\n\\t");
  EXPECT_EQ(json::escape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(json::escape("caf\xc3\xa9 /~"), "caf\xc3\xa9 /~");
}

TEST(JsonWriter, BreaksTheTopTwoDepthsAndInlinesDeeper) {
  json::Writer w;
  w.begin_object().key("n").value(-1).key("rows").begin_array();
  w.begin_object().key("x").array(std::vector<int>{1, 2}).end_object();
  w.begin_object().end_object().end_array();
  w.key("empty").begin_array().end_array();
  w.key("big").value(std::numeric_limits<std::uint64_t>::max());
  w.key("flag").value(true).key("none").null();
  w.key("t\tk").value("q\"").end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"n\": -1,\n"
            "  \"rows\": [\n"
            "    {\"x\": [1, 2]},\n"
            "    {}\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"big\": 18446744073709551615,\n"
            "  \"flag\": true,\n"
            "  \"none\": null,\n"
            "  \"t\\tk\": \"q\\\"\"\n"
            "}\n");
}

TEST(JsonWriterDeathTest, RejectsMisplacedMembersAndOpenDocuments) {
#if BRAIDIO_CONTRACTS_ENABLED
  EXPECT_DEATH(json::Writer().begin_array().key("k"), "REQUIRE");
  EXPECT_DEATH(json::Writer().begin_object().value(1), "REQUIRE");
  EXPECT_DEATH(json::Writer().begin_object().end_array(), "REQUIRE");
  EXPECT_DEATH((void)json::Writer().begin_object().str(), "REQUIRE");
  EXPECT_DEATH(json::Writer().value(1).value(2), "REQUIRE");
#else
  GTEST_SKIP() << "contracts disabled";
#endif
}

TEST(Log, LevelGateWorks) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Dropping below the gate must not crash and must not emit.
  ::testing::internal::CaptureStderr();
  BRAIDIO_LOG_INFO << "hidden";
  BRAIDIO_LOG_ERROR << "visible";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("hidden"), std::string::npos);
  EXPECT_NE(err.find("visible"), std::string::npos);
  set_log_level(before);
}

}  // namespace
}  // namespace braidio::util
