// chrome://tracing (Trace Event Format) span export for simulation runs.
//
// The writer buffers events in memory as pre-rendered JSON fragments and
// writes one self-contained file at the end of a run, so recording an event
// is a couple of string appends — cheap enough to leave compiled in. The
// zero-overhead-when-off guarantee lives at the CALL SITES: every
// instrumented component holds a `TraceWriter*` that is null unless tracing
// was requested, and the only cost on the off path is that null check.
//
// Timestamps are nanoseconds of simulated time (cycles x kNsPerCycle), so
// a trace lines up with the paper's latency numbers, not host wall-clock.
//
// System::run writes to_json() through write_file_atomic
// (common/file_io.hpp): several Systems sweeping concurrently with the same
// trace path race benignly — the last finisher wins and the file always
// parses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hmcc::obs {

/// Not thread-safe: the System that owns a writer records into it from its
/// one simulation thread.
class TraceWriter {
 public:
  /// @p max_events bounds buffered memory; once reached, further events are
  /// not stored, only counted in the document's "dropped" field.
  explicit TraceWriter(std::size_t max_events = 1u << 20)
      : max_events_(max_events) {}

  /// A span: "X" (complete) event with explicit duration. @p tid groups
  /// spans into horizontal tracks in the viewer (e.g. one per vault).
  void complete(std::string_view name, std::string_view category,
                double ts_ns, double dur_ns, std::uint32_t tid = 0);

  /// A counter series sample ("C" event): the viewer draws it as a stacked
  /// area chart (e.g. CRQ occupancy over time).
  void counter(std::string_view name, double ts_ns, double value);

  /// The complete trace document ({"displayTimeUnit", "traceEvents", ...}).
  [[nodiscard]] std::string to_json() const;

 private:
  /// Append the rendered event if capacity remains; count it as dropped
  /// otherwise.
  void push(std::string event);

  std::size_t max_events_;
  std::vector<std::string> events_;
  std::uint64_t dropped_ = 0;
};

/// JSON string escaping for event/category names (quotes, backslash,
/// control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace hmcc::obs
