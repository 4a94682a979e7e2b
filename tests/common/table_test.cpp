#include "common/table.hpp"

#include <gtest/gtest.h>

#include "common/file_io.hpp"

namespace hmcc {
namespace {

TEST(Table, AsciiAlignment) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "quote\"inside"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("only,,"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::pct(0.4747, 2), "47.47%");
}

TEST(Table, WriteCsvRoundTrip) {
  Table t({"k"});
  t.add_row({"v"});
  const std::string path = ::testing::TempDir() + "/hmcc_table_test.csv";
  ASSERT_EQ(write_file_atomic(path, t.to_csv()), "");
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "k\nv\n");
}

}  // namespace
}  // namespace hmcc
