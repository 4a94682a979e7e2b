// TraceWriter: chrome://tracing event shapes, the drop cap and publication
// of the document through write_file_atomic (as System::run writes it).
// to_json() is deterministic, so each test asserts the exact document:
// escaping and number format included.
#include "obs/trace_writer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/file_io.hpp"

namespace hmcc::obs {
namespace {

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
  tw.complete("timeout \"flush\"", "coalescer", 2000.0, 0.5, 1);
  // Timestamps and durations are microseconds in their shortest round-trip
  // form: 1000 ns -> 1, 250 ns -> 0.25, 0.5 ns -> 5e-04.
  EXPECT_EQ(tw.to_json(),
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":0},"
            "\"traceEvents\":["
            "{\"name\":\"dmc_batch\",\"cat\":\"coalescer\",\"ph\":\"X\","
            "\"ts\":1,\"dur\":0.25,\"pid\":0,\"tid\":3},"
            "{\"name\":\"crq_occupancy\",\"ph\":\"C\",\"ts\":1.25,\"pid\":0,"
            "\"args\":{\"value\":7}},"
            "{\"name\":\"timeout \\\"flush\\\"\",\"cat\":\"coalescer\","
            "\"ph\":\"X\",\"ts\":2,\"dur\":5e-04,\"pid\":0,\"tid\":1}]}");
}

TEST(TraceWriter, EmptyWriterStillParses) {
  EXPECT_EQ(TraceWriter().to_json(),
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":0},"
            "\"traceEvents\":[]}");
}

TEST(TraceWriter, CapCountsDrops) {
  TraceWriter tw(/*max_events=*/2);
  tw.counter("a", 0.0, 1.0);
  tw.counter("b", 1000.0, 2.0);
  tw.counter("c", 2000.0, 3.0);
  EXPECT_EQ(tw.to_json(),
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":1},"
            "\"traceEvents\":["
            "{\"name\":\"a\",\"ph\":\"C\",\"ts\":0,\"pid\":0,"
            "\"args\":{\"value\":1}},"
            "{\"name\":\"b\",\"ph\":\"C\",\"ts\":1,\"pid\":0,"
            "\"args\":{\"value\":2}}]}");
}

TEST(TraceWriter, PublishesThroughWriteFileAtomic) {
  const std::string path =
      testing::TempDir() + "/hmcc_trace_writer_test.json";
  std::remove(path.c_str());
  TraceWriter tw;
  tw.complete("span", "cat", 0.0, 10.0, 0);
  ASSERT_EQ(write_file_atomic(path, tw.to_json()), "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), tw.to_json());
  std::remove(path.c_str());
}

TEST(TraceWriter, PublishFailsCleanlyOnBadPath) {
  TraceWriter tw;
  EXPECT_EQ(write_file_atomic("/nonexistent-dir/trace.json", tw.to_json()),
            "/nonexistent-dir/trace.json: No such file or directory");
}

}  // namespace
}  // namespace hmcc::obs
