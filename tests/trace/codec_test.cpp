#include "trace/codec.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "workloads/workload.hpp"

namespace hmcc::trace {
namespace {

void put_test_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

MultiTrace mixed_trace() {
  MultiTrace mt;
  mt.per_core.resize(3);
  mt.per_core[0] = {TraceRecord::load(0x40000000, 8),
                    TraceRecord::load(0x40000008, 8),
                    TraceRecord::load(0x40000010, 8),
                    TraceRecord::store(0x40000010, 8),
                    TraceRecord::make_fence(),
                    TraceRecord::load(0x1234, 4)};
  mt.per_core[1] = {};
  mt.per_core[2] = {TraceRecord::make_barrier(), TraceRecord::make_barrier(),
                    TraceRecord::load(0xDEADBEEF, 16),
                    TraceRecord::load(0x10, 16),  // large negative delta
                    TraceRecord::store(0xFFFFFFFFFFFFFFF0ull, 1)};
  return mt;
}

void expect_equal(const MultiTrace& a, const MultiTrace& b) {
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    ASSERT_EQ(a.per_core[c].size(), b.per_core[c].size()) << "core " << c;
    for (std::size_t i = 0; i < a.per_core[c].size(); ++i) {
      EXPECT_TRUE(a.per_core[c][i] == b.per_core[c][i])
          << "core " << c << " record " << i;
    }
  }
}

TEST(Codec, RoundTripMixedRecords) {
  const MultiTrace mt = mixed_trace();
  const auto bytes = encode(mt);
  MultiTrace back;
  const CodecResult res = decode(bytes, back);
  ASSERT_TRUE(res.ok()) << res.detail;
  expect_equal(mt, back);
}

TEST(Codec, EncodeIsDeterministicAndCompact) {
  const MultiTrace mt = mixed_trace();
  const auto a = encode(mt);
  const auto b = encode(mt);
  EXPECT_EQ(a, b);
  // Delta + run-length coding must beat the 16-byte-per-record flat layout.
  EXPECT_LT(a.size(), mt.total_records() * 16);
}

TEST(Codec, RoundTripEveryGenerator) {
  workloads::WorkloadParams p;
  p.num_cores = 4;
  p.accesses_per_core = 600;
  for (const std::string& name : workloads::workload_names()) {
    const MultiTrace mt = workloads::make_workload(name)->generate(p);
    MultiTrace back;
    const CodecResult res = decode(encode(mt), back);
    ASSERT_TRUE(res.ok()) << name << ": " << res.detail;
    expect_equal(mt, back);
    // Re-encoding the decoded trace must be byte-identical (stable corpus).
    EXPECT_EQ(encode(back), encode(mt)) << name;
  }
}

TEST(Codec, FileRoundTripAndAtomicWrite) {
  const MultiTrace mt = mixed_trace();
  const std::string path = ::testing::TempDir() + "/codec_rt.hmct";
  ASSERT_TRUE(write_file(mt, path).ok());
  // The temp staging file must not survive the rename.
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  MultiTrace back;
  const CodecResult res = read_file(back, path);
  ASSERT_TRUE(res.ok()) << res.detail;
  expect_equal(mt, back);
}

TEST(Codec, RejectsBadMagic) {
  const std::vector<std::uint8_t> bytes = {'n', 'o', 'p', 'e', 2, 0, 0, 0};
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kBadMagic);
  EXPECT_TRUE(out.per_core.empty());
}

TEST(Codec, RejectsWrongVersion) {
  // Version 1 gets no special treatment: it fails like any unknown version.
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{99}}) {
    std::vector<std::uint8_t> bytes = encode(MultiTrace{});
    bytes[4] = version;  // version field
    MultiTrace out;
    const CodecResult res = decode(bytes, out);
    EXPECT_EQ(res.status, CodecStatus::kBadVersion);
    EXPECT_EQ(res.detail, "version " + std::to_string(version));
  }
}

TEST(Codec, RejectsTruncationAtEveryPrefix) {
  // Chopping the buffer anywhere must produce a named error, never UB.
  const auto bytes = encode(mixed_trace());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    MultiTrace out;
    const CodecResult res = decode(bytes.data(), len, out);
    EXPECT_FALSE(res.ok()) << "prefix " << len;
    EXPECT_TRUE(out.per_core.empty()) << "prefix " << len;
  }
}

TEST(Codec, RejectsAbsurdRecordCount) {
  // Header claiming ~10^15 records in a 6-byte body.
  std::vector<std::uint8_t> bytes;
  bytes = {0x54, 0x43, 0x4D, 0x48, 2, 0, 0, 0};  // magic + v2
  bytes.push_back(1);  // one stream
  for (int i = 0; i < 7; ++i) bytes.push_back(0xFF);  // huge varint count
  bytes.push_back(0x01);
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kAbsurdCount);
}

TEST(Codec, RejectsTooManyStreams) {
  std::vector<std::uint8_t> bytes = {0x54, 0x43, 0x4D, 0x48, 2, 0, 0, 0};
  put_test_varint(bytes, kMaxStreams + 1);
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kTooManyCores);
}

TEST(Codec, RejectsVarintOverflow) {
  std::vector<std::uint8_t> bytes = {0x54, 0x43, 0x4D, 0x48, 2, 0, 0, 0};
  for (int i = 0; i < 10; ++i) bytes.push_back(0xFF);  // never-ending varint
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kVarintOverflow);
}

TEST(Codec, RejectsReservedTagBitsAndBadKind) {
  auto make = [](std::uint8_t tag) {
    std::vector<std::uint8_t> bytes = {0x54, 0x43, 0x4D, 0x48, 2, 0, 0, 0};
    bytes.push_back(1);  // one stream
    bytes.push_back(1);  // one record
    bytes.push_back(tag);
    bytes.push_back(0);  // would-be delta
    return bytes;
  };
  MultiTrace out;
  EXPECT_EQ(decode(make(0x80), out).status, CodecStatus::kBadRecord);
  EXPECT_EQ(decode(make(0x03), out).status, CodecStatus::kBadRecord);
  // Marker carrying the store bit: markers have no access payload.
  EXPECT_EQ(decode(make(0x01 | 0x04), out).status, CodecStatus::kBadRecord);
}

TEST(Codec, RejectsRunExceedingDeclaredCount) {
  std::vector<std::uint8_t> bytes = {0x54, 0x43, 0x4D, 0x48, 2, 0, 0, 0};
  bytes.push_back(1);     // one stream
  bytes.push_back(2);     // two records declared
  bytes.push_back(0x12);  // barrier group with run length
  bytes.push_back(100);   // run of 100 > declared 2
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kBadRecord);
}

TEST(Codec, RejectsTrailingGarbage) {
  auto bytes = encode(mixed_trace());
  bytes.push_back(0xAB);
  MultiTrace out;
  EXPECT_EQ(decode(bytes, out).status, CodecStatus::kBadRecord);
}

TEST(Codec, MissingFileIsIoError) {
  MultiTrace out;
  EXPECT_EQ(read_file(out, "/nonexistent/dir/x.hmct").status,
            CodecStatus::kIoError);
  const CodecResult res = write_file(mixed_trace(), "/nonexistent/dir/x.hmct");
  EXPECT_EQ(res.status, CodecStatus::kIoError);
  EXPECT_EQ(res.detail, "/nonexistent/dir/x.hmct: No such file or directory");
}

TEST(Codec, ReadFileMatchesDecodeOnCorruptFile) {
  // read_file decodes the whole file through decode(), so a corrupt file
  // reports exactly the status and detail string its bytes decode to.
  auto bytes = encode(mixed_trace());
  bytes.resize(bytes.size() - 3);
  const std::string path = ::testing::TempDir() + "/codec_corrupt.hmct";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  MultiTrace mem_out;
  const CodecResult mem = decode(bytes, mem_out);
  MultiTrace file_out;
  const CodecResult file = read_file(file_out, path);
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status, mem.status);
  EXPECT_EQ(file.detail, mem.detail);
  EXPECT_TRUE(file_out.per_core.empty());
}

TEST(Codec, StatusStringsAreStable) {
  EXPECT_STREQ(to_string(CodecStatus::kOk), "ok");
  EXPECT_STREQ(to_string(CodecStatus::kBadMagic), "bad magic");
  EXPECT_STREQ(to_string(CodecStatus::kVarintOverflow), "varint overflow");
}

}  // namespace
}  // namespace hmcc::trace
