#include "spans.hpp"

#include <cstdio>

#include "obs/trace_writer.hpp"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint32_t rep)
    : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::uint32_t>(log_->spans_.size() + 1);
  s.parent = log_->open_.empty() ? 0 : log_->spans_[log_->open_.back()].id;
  s.rep = rep;
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(s));
  log_->open_.push_back(index_);
  log_->spans_[index_].start_us = log_->now_us();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_us = log_->now_us();
  log_->open_.pop_back();
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"workload\": "
                 "\"%s\", \"rep\": %u}}",
                 i ? ",\n" : "", hmcc::obs::json_escape(s.name).c_str(),
                 s.start_us, s.end_us - s.start_us, s.id, s.parent,
                 hmcc::obs::json_escape(workload_).c_str(), s.rep);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
