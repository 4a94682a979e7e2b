#include "obs/trace_writer.hpp"

#include <cstdio>

#include "obs/metrics.hpp"  // format_double

namespace hmcc::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void TraceWriter::push(std::string event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceWriter::complete(std::string_view name, std::string_view category,
                           double ts_ns, double dur_ns, std::uint32_t tid) {
  push("{\"name\":\"" + json_escape(name) + "\",\"cat\":\"" +
       json_escape(category) + "\",\"ph\":\"X\",\"ts\":" +
       format_double(ts_ns / 1000.0) + ",\"dur\":" +
       format_double(dur_ns / 1000.0) + ",\"pid\":0,\"tid\":" +
       std::to_string(tid) + "}");
}

void TraceWriter::counter(std::string_view name, double ts_ns, double value) {
  push("{\"name\":\"" + json_escape(name) +
       "\",\"ph\":\"C\",\"ts\":" + format_double(ts_ns / 1000.0) +
       ",\"pid\":0,\"args\":{\"value\":" + format_double(value) + "}}");
}

void TraceWriter::instant(std::string_view name, std::string_view category,
                          double ts_ns, std::uint32_t tid) {
  push("{\"name\":\"" + json_escape(name) + "\",\"cat\":\"" +
       json_escape(category) + "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
       format_double(ts_ns / 1000.0) + ",\"pid\":0,\"tid\":" +
       std::to_string(tid) + "}");
}

std::size_t TraceWriter::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t TraceWriter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceWriter::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":" +
      std::to_string(dropped_) + "},\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ',';
    out += events_[i];
  }
  out += "]}";
  return out;
}

}  // namespace hmcc::obs
