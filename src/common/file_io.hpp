// The one writer every result file goes through: suite CSVs and BENCH_*.json,
// metrics snapshots, chrome traces, .hmct corpus files and the examples'
// outputs.
#pragma once

#include <string>
#include <string_view>

namespace hmcc {

/// Write @p body to @p path. Returns "" on success and "<path>: <reason>"
/// on failure, so callers print "error: " plus the result.
///
/// A regular file, or a path that does not exist yet, is replaced
/// atomically: the bytes go to a temp file beside it, named uniquely per
/// call so that concurrent writers of one path never share a temp file, and
/// a rename publishes it. A reader never sees a torn file, and the last
/// writer wins. Anything else (a device, a FIFO, a symlink such as
/// /dev/stdout) is written in place, so the rename never replaces it.
[[nodiscard]] std::string write_file_atomic(const std::string& path,
                                            std::string_view body);

}  // namespace hmcc
