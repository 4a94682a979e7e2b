#include "trace/codec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace hmcc::trace {

const char* to_string(CodecStatus s) noexcept {
  switch (s) {
    case CodecStatus::kOk: return "ok";
    case CodecStatus::kIoError: return "io error";
    case CodecStatus::kBadMagic: return "bad magic";
    case CodecStatus::kBadVersion: return "unsupported version";
    case CodecStatus::kTooManyCores: return "too many cores";
    case CodecStatus::kAbsurdCount: return "absurd record count";
    case CodecStatus::kVarintOverflow: return "varint overflow";
    case CodecStatus::kTruncated: return "truncated input";
    case CodecStatus::kBadRecord: return "malformed record";
  }
  return "?";
}

namespace {

// Tag-byte layout (see codec.hpp).
constexpr std::uint8_t kTagKindMask = 0x03;
constexpr std::uint8_t kTagStore = 0x04;
constexpr std::uint8_t kTagHasSize = 0x08;
constexpr std::uint8_t kTagHasRun = 0x10;
constexpr std::uint8_t kTagReserved = 0xE0;

// A claimed record count is "absurd" when it could not have come from our
// encoder: every group costs at least one byte, and the only groups that
// produce many records per byte are run-length marker groups, whose
// expansion is far below 1024 records per input byte in any trace a
// generator can emit. The ratio bound (plus the run-vs-remaining check in
// the group loop) caps decoder allocation by the input size, so a 20-byte
// hostile file claiming 10^15 records is rejected before any allocation.
constexpr std::uint64_t kMaxRecordsPerByte = 1024;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked cursor over the input; every read reports a named
/// failure instead of walking off the end.
///
/// Two modes share every decode path:
///  * memory — `data/size` span the whole buffer (zero-copy, the
///    historical behavior of decode());
///  * streaming — `data/size` span a refillable window over `file`, and
///    `file_left` counts the bytes beyond it. remaining() includes those
///    unread bytes, so the absurd-count and reserve bounds behave exactly
///    as if the file had been slurped — a corpus larger than memory only
///    ever occupies one `chunk`-sized window of input at a time.
struct Reader {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::FILE* file = nullptr;      ///< non-null = streaming mode
  std::uint64_t file_left = 0;    ///< unread bytes beyond the window
  std::size_t chunk = 1u << 16;   ///< refill granularity
  std::vector<std::uint8_t> buf;  ///< the window (streaming mode only)
  bool io_error = false;          ///< fread came up short of file_left

  [[nodiscard]] std::size_t remaining() const {
    return (size - pos) + static_cast<std::size_t>(file_left);
  }

  /// Make at least @p n contiguous bytes available at pos, refilling the
  /// window from the file when streaming. False = the input is exhausted
  /// (or the underlying read failed — see io_error).
  [[nodiscard]] bool ensure(std::size_t n) {
    if (size - pos >= n) return true;
    if (file == nullptr || io_error) return false;
    const std::size_t left = size - pos;
    if (left != 0 && pos != 0) std::memmove(buf.data(), buf.data() + pos, left);
    const std::size_t want_extra = std::max(chunk, n) - left;
    const auto to_read = static_cast<std::size_t>(
        std::min<std::uint64_t>(want_extra, file_left));
    buf.resize(left + to_read);
    if (to_read != 0) {
      const std::size_t got = std::fread(buf.data() + left, 1, to_read, file);
      if (got != to_read) {
        io_error = true;
        buf.resize(left + got);
      }
      file_left -= got;
    }
    data = buf.data();
    size = buf.size();
    pos = 0;
    return !io_error && size >= n;
  }

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (!ensure(1)) return false;
    v = data[pos++];
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (!ensure(4)) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    }
    return true;
  }
  [[nodiscard]] CodecStatus varint(std::uint64_t& v) {
    v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!ensure(1)) return CodecStatus::kTruncated;
      const std::uint8_t b = data[pos++];
      const std::uint64_t payload = b & 0x7F;
      if (shift == 63 && payload > 1) return CodecStatus::kVarintOverflow;
      v |= payload << shift;
      if ((b & 0x80) == 0) return CodecStatus::kOk;
    }
    return CodecStatus::kVarintOverflow;  // 10th byte still had the cont bit
  }
};

CodecResult fail(CodecStatus status, std::string detail) {
  return CodecResult{status, std::move(detail)};
}

std::string at_stream(std::uint64_t stream, const char* what) {
  return "stream " + std::to_string(stream) + ": " + what;
}

CodecResult decode_v2(Reader& r, MultiTrace& out) {
  std::uint64_t streams = 0;
  if (auto s = r.varint(streams); s != CodecStatus::kOk) {
    return fail(s, "stream count");
  }
  if (streams > kMaxStreams) {
    return fail(CodecStatus::kTooManyCores,
                std::to_string(streams) + " streams (max " +
                    std::to_string(kMaxStreams) + ")");
  }
  out.per_core.assign(streams, {});
  for (std::uint64_t si = 0; si < streams; ++si) {
    auto& stream = out.per_core[si];
    std::uint64_t count = 0;
    if (auto s = r.varint(count); s != CodecStatus::kOk) {
      return fail(s, at_stream(si, "record count"));
    }
    if (count > 16 + r.remaining() * kMaxRecordsPerByte) {
      return fail(CodecStatus::kAbsurdCount,
                  at_stream(si, "claims more records than the input could "
                                "possibly encode"));
    }
    stream.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, r.remaining())));
    std::uint32_t cur_size = 8;
    Addr prev_addr = 0;
    while (stream.size() < count) {
      std::uint8_t tag = 0;
      if (!r.u8(tag)) return fail(CodecStatus::kTruncated, at_stream(si, "tag"));
      if ((tag & kTagReserved) != 0) {
        return fail(CodecStatus::kBadRecord,
                    at_stream(si, "reserved tag bits set"));
      }
      const std::uint8_t kind_bits = tag & kTagKindMask;
      if (kind_bits > 2) {
        return fail(CodecStatus::kBadRecord, at_stream(si, "invalid kind 3"));
      }
      const auto kind = static_cast<RecordKind>(kind_bits);
      const bool is_access = kind == RecordKind::kAccess;
      if (!is_access && (tag & (kTagStore | kTagHasSize)) != 0) {
        return fail(CodecStatus::kBadRecord,
                    at_stream(si, "marker group with access payload bits"));
      }
      if (tag & kTagHasSize) {
        std::uint64_t size = 0;
        if (auto s = r.varint(size); s != CodecStatus::kOk) {
          return fail(s, at_stream(si, "size field"));
        }
        if (size == 0 || size > (1u << 20)) {
          return fail(CodecStatus::kBadRecord,
                      at_stream(si, "access size out of range"));
        }
        cur_size = static_cast<std::uint32_t>(size);
      }
      std::uint64_t run = 1;
      if (tag & kTagHasRun) {
        if (auto s = r.varint(run); s != CodecStatus::kOk) {
          return fail(s, at_stream(si, "run length"));
        }
      }
      if (run == 0 || run > count - stream.size()) {
        return fail(CodecStatus::kBadRecord,
                    at_stream(si, "run length exceeds declared records"));
      }
      if (is_access) {
        const ReqType type =
            (tag & kTagStore) ? ReqType::kStore : ReqType::kLoad;
        for (std::uint64_t k = 0; k < run; ++k) {
          std::uint64_t zz = 0;
          if (auto s = r.varint(zz); s != CodecStatus::kOk) {
            return fail(s, at_stream(si, "address delta"));
          }
          prev_addr += static_cast<Addr>(unzigzag(zz));
          stream.push_back(type == ReqType::kStore
                               ? TraceRecord::store(prev_addr, cur_size)
                               : TraceRecord::load(prev_addr, cur_size));
        }
      } else {
        const TraceRecord marker = kind == RecordKind::kFence
                                       ? TraceRecord::make_fence()
                                       : TraceRecord::make_barrier();
        for (std::uint64_t k = 0; k < run; ++k) stream.push_back(marker);
      }
    }
  }
  if (r.remaining() != 0) {
    return fail(CodecStatus::kBadRecord,
                std::to_string(r.remaining()) + " trailing bytes");
  }
  return {};
}

}  // namespace

std::vector<std::uint8_t> encode(const MultiTrace& trace) {
  std::vector<std::uint8_t> out;
  put_u32(out, kHmctMagic);
  put_u32(out, kHmctVersion);
  put_varint(out, trace.per_core.size());
  for (const auto& stream : trace.per_core) {
    put_varint(out, stream.size());
    std::uint32_t cur_size = 8;
    Addr prev_addr = 0;
    const std::size_t n = stream.size();
    std::size_t i = 0;
    while (i < n) {
      const TraceRecord& first = stream[i];
      // Group the maximal run of records sharing a tag: same kind, and for
      // accesses the same type and payload size.
      std::size_t j = i + 1;
      while (j < n && stream[j].kind == first.kind &&
             (!first.is_access() || (stream[j].type == first.type &&
                                     stream[j].size == first.size))) {
        ++j;
      }
      const std::uint64_t run = j - i;
      std::uint8_t tag = static_cast<std::uint8_t>(first.kind);
      if (first.is_access()) {
        if (first.type == ReqType::kStore) tag |= kTagStore;
        if (first.access_size() != cur_size) tag |= kTagHasSize;
      }
      if (run > 1) tag |= kTagHasRun;
      out.push_back(tag);
      if (tag & kTagHasSize) {
        put_varint(out, first.access_size());
        cur_size = first.access_size();
      }
      if (tag & kTagHasRun) put_varint(out, run);
      if (first.is_access()) {
        for (std::size_t k = i; k < j; ++k) {
          const Addr a = stream[k].access_addr();
          put_varint(out, zigzag(static_cast<std::int64_t>(a - prev_addr)));
          prev_addr = a;
        }
      }
      i = j;
    }
  }
  return out;
}

namespace {

/// Header check shared by the memory and streaming entry points: the
/// Reader abstracts where bytes come from, so both paths run the exact
/// same validation with the exact same failure strings.
CodecResult decode_reader(Reader& r, MultiTrace& out) {
  out.per_core.clear();
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!r.u32(magic)) return fail(CodecStatus::kTruncated, "magic");
  if (magic != kHmctMagic) return fail(CodecStatus::kBadMagic, "not an .hmct file");
  if (!r.u32(version)) return fail(CodecStatus::kTruncated, "version");
  if (version != kHmctVersion) {
    return fail(CodecStatus::kBadVersion, "version " + std::to_string(version));
  }
  CodecResult res = decode_v2(r, out);
  if (!res.ok()) out.per_core.clear();
  return res;
}

}  // namespace

CodecResult decode(const std::uint8_t* data, std::size_t size,
                   MultiTrace& out) {
  Reader r;
  r.data = data;
  r.size = size;
  return decode_reader(r, out);
}

CodecResult decode(const std::vector<std::uint8_t>& bytes, MultiTrace& out) {
  return decode(bytes.data(), bytes.size(), out);
}

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace

CodecResult write_file(const MultiTrace& trace, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode(trace);
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return fail(CodecStatus::kIoError, "cannot open " + tmp);
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      return fail(CodecStatus::kIoError, "short write to " + tmp);
    }
    if (std::fflush(f.get()) != 0) {
      return fail(CodecStatus::kIoError, "flush failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(CodecStatus::kIoError, "rename to " + path + " failed");
  }
  return {};
}

CodecResult read_file(MultiTrace& out, const std::string& path) {
  return read_file(out, path, kReadChunkBytes);
}

CodecResult read_file(MultiTrace& out, const std::string& path,
                      std::size_t chunk_bytes) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail(CodecStatus::kIoError, "cannot open " + path);
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return fail(CodecStatus::kIoError, "seek failed for " + path);
  }
  const long end = std::ftell(f.get());
  if (end < 0) return fail(CodecStatus::kIoError, "tell failed for " + path);
  std::rewind(f.get());
  // Stream the file through a bounded window instead of slurping it: the
  // decoder only ever holds `chunk_bytes` of raw input, so a corpus file
  // bigger than memory decodes with the same validation (remaining()
  // counts the unread tail, keeping every bound byte-identical).
  Reader r;
  r.file = f.get();
  r.file_left = static_cast<std::uint64_t>(end);
  r.chunk = std::max<std::size_t>(chunk_bytes, 16);
  CodecResult res = decode_reader(r, out);
  if (r.io_error) {
    out.per_core.clear();
    return fail(CodecStatus::kIoError, "short read from " + path);
  }
  return res;
}

}  // namespace hmcc::trace
