#include "stats.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tail supported_tail(std::vector<double>& values, double wanted) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  // Ten samples beyond percentile p means n * (1 - p/100) >= 10.
  const double highest = n > 10.0 ? 100.0 * (1.0 - 10.0 / n) : 0.0;
  tail.percentile = std::min(wanted, std::floor(highest * 10.0) / 10.0);
  tail.value = percentile(values, tail.percentile);
  return tail;
}

std::vector<double> window_rates(const std::vector<std::int64_t>& event_ns,
                                 std::int64_t start_ns, std::int64_t end_ns,
                                 int windows) {
  if (end_ns <= start_ns || windows < 1) return {};
  const double width =
      static_cast<double>(end_ns - start_ns) / static_cast<double>(windows);
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  for (const std::int64_t at : event_ns) {
    const auto slice = static_cast<std::int64_t>(
        static_cast<double>(at - start_ns) / width);
    counts[static_cast<std::size_t>(
        std::clamp<std::int64_t>(slice, 0, windows - 1))] += 1.0;
  }
  for (double& count : counts) count /= width / 1e9;
  return counts;
}

std::vector<std::size_t> quiet_slices(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::vector<std::size_t> quiet;
  for (const std::size_t slice : order) {
    if (steal[slice] > kQuietSteal && quiet.size() >= kMinQuietSlices) break;
    quiet.push_back(slice);
  }
  std::sort(quiet.begin(), quiet.end());
  return quiet;
}

double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steal) {
  std::vector<double> quiet;
  for (const std::size_t slice : quiet_slices(steal)) {
    quiet.push_back(values[slice]);
  }
  return percentile(quiet, 50.0);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << '}';
  return out.str();
}

namespace {

/// utime + stime of process `pid`, in seconds, from /proc/<pid>/stat.
double proc_cpu_seconds(const std::string& pid) {
  std::ifstream file("/proc/" + pid + "/stat");
  std::string stat;
  std::getline(file, stat);
  const std::size_t comm_end = stat.rfind(')');
  if (comm_end == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(comm_end + 1));
  std::string field;
  double ticks = 0.0;
  // Fields 3.. follow the command name; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// "VmHWM", "VmRSS", ... of /proc/self/status, in MiB.
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  double total = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  // Each thread lists the children it forked.
  std::error_code ignored;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ignored)) {
    std::ifstream children(task.path() / "children");
    std::string pid;
    while (children >> pid) total += proc_cpu_seconds(pid);
  }
  return total;
}

double host_steal_seconds() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  file >> cpu;
  for (double& field : ticks) file >> field;
  if (!file || cpu != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb() { return status_mb("VmHWM"); }

double current_rss_mb() { return status_mb("VmRSS"); }

bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // reset the peak resident set to the current one
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace perfbench
