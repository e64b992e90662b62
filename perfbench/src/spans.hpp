#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call, recorded from the benchmark's own code around a call
/// into the program. `parent` indexes the enclosing span in the same log
/// (-1 = none); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory (one log per thread; merged at the end) and
/// written out once the run is over.
class SpanLog {
 public:
  /// Open a span; close it with end(). Returns its index.
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Append another log, re-basing its parent indices.
  void merge(const SpanLog& other);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (duration minus the time its children cover) of every span,
  /// grouped by span name, in microseconds.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_us() const;

  /// Write every span as Chrome trace-event JSON ("X" events, one track
  /// per request). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
