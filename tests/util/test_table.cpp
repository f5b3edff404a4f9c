#include "util/table.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace snnfi::util {
namespace {

ResultTable sample_table() {
    ResultTable table("Demo", {"name", "value"});
    table.add_row({std::string("alpha"), 1.5});
    table.add_row({std::string("beta"), -2.25});
    return table;
}

TEST(ResultTable, Dimensions) {
    const auto table = sample_table();
    EXPECT_EQ(table.num_rows(), 2u);
    EXPECT_EQ(table.num_columns(), 2u);
    EXPECT_EQ(table.title(), "Demo");
}

TEST(ResultTable, RejectsEmptyColumnsAndBadRows) {
    EXPECT_THROW(ResultTable("x", {}), std::invalid_argument);
    auto table = sample_table();
    EXPECT_THROW(table.add_row({std::string("only-one")}), std::invalid_argument);
}

TEST(ResultTable, CellAccess) {
    const auto table = sample_table();
    EXPECT_EQ(std::get<std::string>(table.at(0, 0)), "alpha");
    EXPECT_DOUBLE_EQ(table.number_at(1, 1), -2.25);
    EXPECT_THROW(table.number_at(0, 0), std::invalid_argument);
    EXPECT_THROW(table.at(5, 0), std::out_of_range);
}

TEST(ResultTable, NumericColumn) {
    const auto table = sample_table();
    const auto values = table.numeric_column(1);
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[0], 1.5);
    EXPECT_THROW(sample_table().numeric_column(0), std::invalid_argument);
}

TEST(ResultTable, PrintContainsHeaderAndCells) {
    auto table = sample_table();
    table.add_note("a caption");
    const std::string text = table.to_string();
    EXPECT_NE(text.find("Demo"), std::string::npos);
    EXPECT_NE(text.find("a caption"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.5000"), std::string::npos);  // 4 decimals
}

TEST(ResultTable, CsvFormatAndEscaping) {
    ResultTable table("T", {"a,b", "note"});
    table.add_row({std::string("va\"l"), std::string("line1\nline2")});
    const std::string csv = table.to_csv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"va\"\"l\""), std::string::npos);
    EXPECT_NE(csv.find("\"line1\nline2\""), std::string::npos);
}

TEST(ResultTable, JsonStructureAndNumbers) {
    auto table = sample_table();
    table.add_note("a note");
    const std::string json = table.to_json();
    EXPECT_EQ(json,
              "{\"title\":\"Demo\",\"columns\":[\"name\",\"value\"],"
              "\"notes\":[\"a note\"],"
              "\"rows\":[[\"alpha\",1.5],[\"beta\",-2.25]]}");
}

TEST(ResultTable, JsonEscapesSpecialCharacters) {
    ResultTable table("Ti\"tle\\", {"col\n1"});
    table.add_row({std::string("tab\there \"quoted\"")});
    table.add_note("control:\x01");
    const std::string json = table.to_json();
    EXPECT_NE(json.find("\"Ti\\\"tle\\\\\""), std::string::npos);
    EXPECT_NE(json.find("\"col\\n1\""), std::string::npos);
    EXPECT_NE(json.find("tab\\there \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("control:\\u0001"), std::string::npos);
}

TEST(ResultTable, JsonNonFiniteBecomesNull) {
    ResultTable table("T", {"x"});
    table.add_row({std::numeric_limits<double>::quiet_NaN()});
    table.add_row({std::numeric_limits<double>::infinity()});
    const std::string json = table.to_json();
    EXPECT_NE(json.find("[null],[null]"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ResultTable, CsvRoundTripWithQuotesAndCommas) {
    ResultTable table("T", {"a,b", "plain", "tricky"});
    table.add_row({std::string("va\"l"), std::string("x"),
                   std::string("line1\nline2, with comma")});
    table.add_row({std::string("\"fully quoted\""), std::string(""),
                   std::string("commas,,everywhere")});
    const auto records = parse_csv(table.to_csv());
    ASSERT_EQ(records.size(), 3u);  // header + 2 rows
    EXPECT_EQ(records[0], (std::vector<std::string>{"a,b", "plain", "tricky"}));
    EXPECT_EQ(records[1],
              (std::vector<std::string>{"va\"l", "x", "line1\nline2, with comma"}));
    EXPECT_EQ(records[2], (std::vector<std::string>{"\"fully quoted\"", "",
                                                    "commas,,everywhere"}));
}

TEST(ParseCsv, HandlesEmptyAndUnquoted) {
    EXPECT_TRUE(parse_csv("").empty());
    const auto records = parse_csv("a,b\n1,2\n");
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1], (std::vector<std::string>{"1", "2"}));
}

TEST(JsonFields, ReadExactlyWhatTheWritersEmit) {
    const std::string record = "{\"name\":\"a\\\"b\\u0007\",\"n\":42,\"t\":-7,"
                               "\"x\":" + json_number(0.1) + ",\"ok\":true}";
    EXPECT_EQ(json_get_string(record, "name"), "a\"b\a");
    EXPECT_EQ(json_get_size(record, "n"), 42u);
    EXPECT_EQ(json_get_int64(record, "t"), -7);
    EXPECT_EQ(json_get_double(record, "x"), 0.1);
    EXPECT_EQ(json_get_bool(record, "ok"), true);
    EXPECT_FALSE(json_get_size(record, "missing").has_value());
    EXPECT_FALSE(json_get_size(record, "t").has_value());  // signed
    EXPECT_FALSE(json_get_size(record, "x").has_value());  // fractional
    // No whitespace around values, no '+', finite numbers only.
    EXPECT_FALSE(json_get_size("{\"n\": 42}", "n").has_value());
    EXPECT_FALSE(json_get_size("{\"n\":42 }", "n").has_value());
    EXPECT_FALSE(json_get_int64("{\"t\":+7}", "t").has_value());
    EXPECT_FALSE(json_get_size("{\"n\":18446744073709551616}", "n").has_value());
    EXPECT_FALSE(json_get_double("{\"x\":1e999}", "x").has_value());
    EXPECT_FALSE(json_get_double("{\"x\":nan}", "x").has_value());
    EXPECT_FALSE(json_get_double("{\"x\":null}", "x").has_value());
    EXPECT_FALSE(json_get_bool("{\"ok\":1}", "ok").has_value());
    EXPECT_FALSE(json_get_string("{\"s\":\"open", "s").has_value());
}

TEST(ResultTable, StreamOperator) {
    std::ostringstream os;
    os << sample_table();
    EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace snnfi::util
