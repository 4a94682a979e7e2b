// In-memory host-time spans recorded around the benchmark's calls into each
// simulator layer, written out once at exit as chrome-trace JSON (the
// Trace Event Format that obs::TraceWriter also emits).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = top level
    std::uint32_t rep = 0;     ///< repetition the span belongs to
    double start_us = 0.0;     ///< host microseconds since the log began
    double end_us = 0.0;
  };

  /// Closes its span when it goes out of scope; the innermost open span is
  /// the parent of any span opened meanwhile.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint32_t rep);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  /// Write {"traceEvents": [...]} to @p path. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  std::string workload_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace perfbench
