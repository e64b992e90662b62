#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0..100) of `values` (sorted in place).
/// 0 when empty.
double percentile(std::vector<double>& values, double p);

/// A tail percentile as the sample supports it.
struct Tail {
  double percentile = 0.0;  ///< the percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;
};

/// The percentile-support rule: report `wanted` (e.g. 99) only when at
/// least ten samples lie beyond it; otherwise the highest percentile that
/// has ten samples beyond it (the 0th when fewer than eleven samples).
Tail supported_tail(std::vector<double>& values, double wanted);

/// Events per second in each of `windows` equal slices of
/// [start_ns, end_ns). Their median is steadier than the overall rate on a
/// shared host: a burst of outside interference costs one slice, not the
/// run.
std::vector<double> window_rates(const std::vector<std::int64_t>& event_ns,
                                 std::int64_t start_ns, std::int64_t end_ns,
                                 int windows);

/// A slice is quiet when the hypervisor stole at most this share of the
/// host's CPU in it. Steal is the one kind of interference from other
/// tenants that a guest can measure; in slices above this share, rates
/// fell and latencies rose by up to several times.
inline constexpr double kQuietSteal = 0.02;

/// Fewest slices an estimate uses: when fewer are quiet, the least stolen.
inline constexpr std::size_t kMinQuietSlices = 3;

/// The quiet slices' indices (see kQuietSteal and kMinQuietSlices), in
/// time order.
std::vector<std::size_t> quiet_slices(const std::vector<double>& steal);

/// The median of `values` over the quiet slices; 0 when there are none.
double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steal);

/// One named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
std::string metrics_json(const std::vector<Metric>& metrics);

/// CPU seconds (user + system) this process has used (getrusage) plus
/// those of its live child processes (/proc/<pid>/stat), such as the
/// shard pool's workers. A child's CPU counts only while it lives, so take
/// differences over spans in which the children stay the same.
double process_cpu_seconds();

/// CPU seconds the hypervisor has stolen from this machine's virtual CPUs,
/// summed over all of them (the "steal" column of /proc/stat); 0 on bare
/// metal or when /proc is unavailable.
double host_steal_seconds();

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double peak_rss_mb();

/// Current resident set (VmRSS) in MiB; 0 when /proc is unavailable.
double current_rss_mb();

/// Return freed heap to the system and restart the VmHWM peak from the
/// current resident set. False when the kernel refused the reset.
bool reset_peak_rss();

}  // namespace perfbench
