// Versioned binary trace codec: the `.hmct` interchange format.
//
// Traces captured from any generator (CPU or warp front-end) are stored
// once and replayed byte-identically via `trace_replay=PATH`, by the
// workbench and by bench_suite alike. The format is built for corpus
// storage: varint delta-encoded addresses and run-length-grouped records
// compress the regular streams our generators emit by ~5-10x versus a flat
// 16-byte-per-record layout, while staying trivially seekable per stream.
//
// On-disk layout (all multi-byte primitives are LEB128 varints unless
// noted; the magic/version pair is fixed-width little-endian so other
// versions and foreign files are recognizable before any varint decoding):
//
//   u32  magic    0x484D4354 ("HMCT")
//   u32  version  2
//   varint num_streams                 (one per core; <= kMaxStreams)
//   per stream:
//     varint num_records               (bounded by remaining file size)
//     groups until num_records are produced:
//       u8 tag:
//          bits 0-1  RecordKind (0 access, 1 fence, 2 barrier; 3 invalid)
//          bit  2    store (access only; fences/barriers must leave it 0)
//          bit  3    size follows as a varint, updating the stream's
//                    current access size (initially 8; sticky thereafter)
//          bit  4    run length follows as a varint (default 1)
//          bits 5-7  reserved, must be zero
//       [varint size]                  if bit 3
//       [varint run]                   if bit 4
//       for access groups: run x zigzag-varint address deltas, each
//       relative to the previous record's address (initially 0)
//
// Marker groups (fence/barrier) carry no payload beyond an optional run
// length and never touch the stream's current size — a marker can never
// smuggle in an address (see RecordKind in trace.hpp).
//
// Decoding is hostile-input safe by construction: every failure mode maps
// to a named CodecStatus, record counts are validated against the actual
// byte count remaining (a 4-byte file claiming 10^15 records is rejected
// before any allocation), and varints longer than 10 bytes are refused.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace hmcc::trace {

inline constexpr std::uint32_t kHmctMagic = 0x484D4354;  // "HMCT"
inline constexpr std::uint32_t kHmctVersion = 2;
inline constexpr std::uint64_t kMaxStreams = 4096;

enum class CodecStatus : std::uint8_t {
  kOk = 0,
  kIoError,         ///< file could not be opened/read/written
  kBadMagic,        ///< not an .hmct file at all
  kBadVersion,      ///< recognized magic, unsupported version
  kTooManyCores,    ///< stream count exceeds kMaxStreams
  kAbsurdCount,     ///< claimed record count exceeds remaining bytes
  kVarintOverflow,  ///< varint longer than 10 bytes / overflows u64
  kTruncated,       ///< input ended mid-header or mid-group
  kBadRecord,       ///< invalid kind, reserved tag bits, marker with store
};

[[nodiscard]] const char* to_string(CodecStatus s) noexcept;

/// Outcome of a decode (or file read): status plus a human-readable detail
/// string naming what was wrong and where ("stream 3: varint overflow").
struct CodecResult {
  CodecStatus status = CodecStatus::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const noexcept { return status == CodecStatus::kOk; }
};

/// Serialize to the v2 byte layout above. Never fails.
[[nodiscard]] std::vector<std::uint8_t> encode(const MultiTrace& trace);

/// Parse an .hmct byte buffer into `out`. Only version 2 is accepted; any
/// other version fails with kBadVersion. On failure `out` is left empty and
/// the result names the offending construct; allocation is bounded by the
/// input size, so a malformed buffer can never OOM the process.
[[nodiscard]] CodecResult decode(const std::uint8_t* data, std::size_t size,
                                 MultiTrace& out);
[[nodiscard]] CodecResult decode(const std::vector<std::uint8_t>& bytes,
                                 MultiTrace& out);

/// File wrappers. Writing goes through write_file_atomic
/// (common/file_io.hpp): a crashed or concurrent run never leaves a
/// half-written corpus file behind, and a failed write reports the path
/// and the reason in the kIoError detail. Reading loads the file into one
/// buffer and decode()s it, so a file reports exactly the status and
/// detail its bytes would.
[[nodiscard]] CodecResult write_file(const MultiTrace& trace,
                                     const std::string& path);
[[nodiscard]] CodecResult read_file(MultiTrace& out, const std::string& path);

}  // namespace hmcc::trace
