// perfbench_lab: the lab-serving benchmark binary.
//
//   perfbench_lab --workload NAME --seed N --seconds S --trace 0|1
//                 --dir SCRATCH --worker-bin PATH/TO/pdclab
//
// Runs a pdc::lab::Server in this process under one seeded workload and
// prints, last, one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 the
// per-layer metrics (client spans during the load phases plus a replay of
// the workload's stream through each layer's public calls). Every Result is
// checked against a reference computed before the server starts; any
// failure makes the run exit 1 after printing its line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "load.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "support/error.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fputs(
      "usage: perfbench_lab --workload NAME --seed N --seconds S --trace 0|1 "
      "--dir SCRATCH --worker-bin PDCLAB\n",
      stderr);
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-34s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

/// "<what> in N slices: v1 v2 ...", in time order.
void print_slices(const char* what, const std::vector<double>& values) {
  std::printf("%s in %zu slices:", what, values.size());
  for (const double value : values) std::printf(" %.4g", value);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunConfig config;
  std::string workload = "";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--worker-bin") {
      config.worker_bin = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || workload.empty() || (trace != 0 && trace != 1) ||
      config.dir.empty() || config.worker_bin.empty() || config.seconds <= 0) {
    usage();
    return 2;
  }
  config.trace = trace == 1;

  try {
    config.workload = &workload_named(workload);
    std::filesystem::remove_all(config.dir);
    std::filesystem::create_directories(config.dir);
    // The shard pool's private socket directories go under TMPDIR.
    ::setenv("TMPDIR", config.dir.c_str(), 1);

    const Generator generator(*config.workload, config.seed);
    Streams streams = prepare_streams(config, generator);
    LoadResult load = run_load(config, generator, streams);
    Replay replay;
    std::vector<Metric> metrics;
    if (config.trace) {
      replay = replay_layers(config, streams, config.seconds / 4);
      metrics = per_layer_metrics(load, replay);
      SpanLog all = load.client_spans;
      all.merge(replay.spans);
      if (!all.write_chrome_trace(config.dir + "/spans.json")) {
        std::fprintf(stderr, "perfbench: could not write spans.json\n");
      }
    } else {
      metrics = end_to_end_metrics(load);
    }
    const Tally tally = run_tally(load, replay);

    std::printf("workload %s seed %llu: %s\n", config.workload->name,
                static_cast<unsigned long long>(config.seed),
                config.workload->why);
    print_metrics(metrics);
    if (!config.trace) {
      const Tail p99 = load.open.p99_ms();
      std::printf("%-34s %14.4f ms (p%.1f; %zu open-loop samples; not "
                  "gated)\n",
                  "p99_ms", p99.value, p99.percentile, p99.samples);
      const auto [fastest, slowest] =
          std::minmax_element(load.setup_s.begin(), load.setup_s.end());
      std::printf("setup_s is the median of %zu starts (%.6f to %.6f s)\n",
                  load.setup_s.size(), *fastest, *slowest);
      std::vector<double> open_p50s;
      for (std::vector<double> latency : load.open.window_latency_ms) {
        open_p50s.push_back(percentile(latency, 50.0));
      }
      print_slices("closed-loop jobs/s", load.closed.window_rates);
      print_slices("closed-loop CPU ms/job", load.closed.window_cpu_ms_per_job);
      print_slices("closed-loop host CPU share stolen",
                   load.closed.window_steal);
      print_slices("open-loop median ms", open_p50s);
      print_slices("open-loop host CPU share stolen", load.open.window_steal);
      std::printf("jobs_per_s, cpu_ms_per_job and p50_ms are medians over "
                  "the slices with at most %.0f%% stolen (at least %zu): %zu "
                  "of %zu closed, %zu of %zu open\n",
                  kQuietSteal * 100, kMinQuietSlices,
                  quiet_slices(load.closed.window_steal).size(),
                  load.closed.window_steal.size(),
                  quiet_slices(load.open.window_steal).size(),
                  load.open.window_steal.size());
      print_slices("rss_mb is the largest of, per round,", load.round_rss_mb);
      std::printf("(each round's peak RSS at the end of its open loop less "
                  "the resident set just before its server started%s; "
                  "%.1f MB before the first)\n",
                  load.rss_peak_reset ? "" : ", but the peak reset was refused",
                  load.rss_baseline_mb);
    }
    std::printf("error_rate %.6f (attempted %llu, rejected %llu, lost %llu, "
                "bad exit %llu, mismatched %llu)\n",
                tally.error_rate(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.rejected),
                static_cast<unsigned long long>(tally.lost),
                static_cast<unsigned long long>(tally.bad_exit),
                static_cast<unsigned long long>(tally.mismatched));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed()),
                metrics_json(metrics).c_str());
    std::fflush(stdout);
    std::error_code ignored;
    for (const auto& entry :
         std::filesystem::directory_iterator(config.dir, ignored)) {
      if (entry.path().filename() != "spans.json") {
        std::filesystem::remove_all(entry.path(), ignored);
      }
    }
    return tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
