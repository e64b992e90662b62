#include "spans.hpp"

#include <fstream>

namespace perfbench {

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, std::vector<double>> SpanLog::self_us() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e3);
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.request
        << ", \"ts\": " << static_cast<double>(span.start_ns - origin) / 1e3
        << ", \"dur\": "
        << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
