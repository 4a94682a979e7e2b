// TraceWriter: chrome://tracing event shapes, the drop cap, publication of
// the document through write_file_atomic (as System::run writes it), and
// that the emitted document actually parses as JSON (via the test-side
// parser in tests/support/json.hpp).
#include "obs/trace_writer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/file_io.hpp"
#include "support/json.hpp"

namespace hmcc::obs {
namespace {

using json::parse;

TEST(JsonEscape, ControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceWriter, EmitsParsableDocument) {
  TraceWriter tw;
  tw.complete("dmc_batch", "coalescer", 1000.0, 250.0, 3);
  tw.counter("crq_occupancy", 1250.0, 7.0);
  tw.instant("timeout \"flush\"", "coalescer", 2000.0, 1);

  std::string err;
  const auto doc = parse(tw.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());

  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 3u);

  const auto& span = events->as_array()[0];
  EXPECT_EQ(span.find("name")->as_string(), "dmc_batch");
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(span.find("ts")->as_double(), 1.0);     // 1000 ns -> 1 us
  EXPECT_DOUBLE_EQ(span.find("dur")->as_double(), 0.25);
  EXPECT_EQ(span.find("tid")->as_int(), 3);

  const auto& ctr = events->as_array()[1];
  EXPECT_EQ(ctr.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(ctr.find("args")->find("value")->as_double(), 7.0);

  const auto& inst = events->as_array()[2];
  EXPECT_EQ(inst.find("ph")->as_string(), "i");
  EXPECT_EQ(inst.find("name")->as_string(), "timeout \"flush\"");
}

TEST(TraceWriter, EmptyWriterStillParses) {
  TraceWriter tw;
  std::string err;
  const auto doc = parse(tw.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(doc->find("traceEvents")->as_array().empty());
}

TEST(TraceWriter, CapCountsDrops) {
  TraceWriter tw(/*max_events=*/2);
  tw.instant("a", "t", 0.0, 0);
  tw.instant("b", "t", 1.0, 0);
  tw.instant("c", "t", 2.0, 0);
  EXPECT_EQ(tw.size(), 2u);
  EXPECT_EQ(tw.dropped(), 1u);
  std::string err;
  const auto doc = parse(tw.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("otherData")->find("dropped")->as_int(), 1);
}

TEST(TraceWriter, WriteJsonPublishesAtomically) {
  const std::string path =
      testing::TempDir() + "/hmcc_trace_writer_test.json";
  std::remove(path.c_str());
  TraceWriter tw;
  tw.complete("span", "cat", 0.0, 10.0, 0);
  ASSERT_EQ(write_file_atomic(path, tw.to_json()), "");
  // No temp residue next to the published file.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = parse(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("traceEvents")->as_array().size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceWriter, WriteJsonFailsCleanlyOnBadPath) {
  TraceWriter tw;
  EXPECT_EQ(write_file_atomic("/nonexistent-dir/trace.json", tw.to_json()),
            "/nonexistent-dir/trace.json: No such file or directory");
}

}  // namespace
}  // namespace hmcc::obs
