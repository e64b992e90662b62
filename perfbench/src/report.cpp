#include "report.hpp"

#include <algorithm>
#include <map>

namespace perfbench {

namespace {

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double median(std::vector<double> values) { return percentile(values, 50); }

}  // namespace

std::vector<Metric> end_to_end_metrics(const LoadResult& load) {
  return {
      {"setup_s", "s", median(load.setup_s)},
      {"jobs_per_s", "1/s", load.closed.jobs_per_s()},
      {"p50_ms", "ms", load.open.p50_ms()},
      {"cpu_ms_per_job", "ms", load.closed.cpu_ms_per_job()},
      {"rss_mb", "MB",
       load.round_rss_mb.empty()
           ? 0.0
           : *std::max_element(load.round_rss_mb.begin(),
                               load.round_rss_mb.end())},
  };
}

std::vector<Metric> per_layer_metrics(const LoadResult& load,
                                      const Replay& replay) {
  auto client = load.client_spans.self_us();
  auto layer = replay.spans.self_us();
  const auto p = [](std::map<std::string, std::vector<double>>& spans,
                    const char* name, double pct, double scale = 1.0) {
    return percentile(spans[name], pct) * scale;
  };

  // Time the replayed layers account for per request: each request span's
  // duration minus its own self time.
  std::vector<double> accounted_us;
  {
    const auto& spans = replay.spans.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string(spans[i].name) == "replay.request") {
        accounted_us.push_back(child_us[i]);
      }
    }
  }
  const double client_p50 = p(client, "lab.client.accept", 50) +
                            p(client, "lab.client.result", 50);

  const auto& stats = load.timed_stats;
  const auto accepted = static_cast<double>(stats.accepted);
  Phase open = load.open;  // both halves of a traced run's open loop
  open += load.open_traced;

  return {
      {"lab.client.connect_p50_us", "us", p(client, "lab.client.connect", 50)},
      {"lab.client.connect_p99_us", "us", p(client, "lab.client.connect", 99)},
      {"lab.client.accept_p50_us", "us", p(client, "lab.client.accept", 50)},
      {"lab.client.accept_p99_us", "us", p(client, "lab.client.accept", 99)},
      {"lab.client.result_p50_us", "us", p(client, "lab.client.result", 50)},
      {"lab.client.result_p99_us", "us", p(client, "lab.client.result", 99)},
      {"lab.client.unaccounted_p50_us", "us",
       client_p50 - median(accounted_us)},
      {"lab.protocol.decode_submit_ns", "ns",
       p(layer, "lab.protocol.decode_submit", 50, 1e3)},
      {"lab.protocol.encode_result_ns", "ns",
       p(layer, "lab.protocol.encode_result", 50, 1e3)},
      {"lab.protocol.digest_ns", "ns", p(layer, "lab.protocol.digest", 50, 1e3)},
      {"lab.server.cache_hit_ratio", "ratio",
       ratio(static_cast<double>(stats.cache_hits), accepted)},
      {"lab.server.executed_per_job", "ratio",
       ratio(static_cast<double>(stats.executed), accepted)},
      {"lab.cache.lookup_ns", "ns", p(layer, "lab.cache.lookup", 50, 1e3)},
      {"lab.cache.insert_ns", "ns", p(layer, "lab.cache.insert", 50, 1e3)},
      {"lab.queue.push_pop_ns", "ns", p(layer, "lab.queue.push_pop", 50, 1e3)},
      {"lab.executor.validate_us", "us", p(layer, "lab.executor.validate", 50)},
      {"lab.executor.patternlet_p50_us", "us",
       p(layer, "lab.executor.patternlet", 50)},
      {"lab.executor.patternlet_p99_us", "us",
       p(layer, "lab.executor.patternlet", 99)},
      {"lab.executor.exemplar_p50_us", "us",
       p(layer, "lab.executor.exemplar", 50)},
      {"lab.executor.exemplar_p99_us", "us",
       p(layer, "lab.executor.exemplar", 99)},
      {"lab.executor.notebook_p50_us", "us",
       p(layer, "lab.executor.notebook", 50)},
      {"lab.executor.notebook_p99_us", "us",
       p(layer, "lab.executor.notebook", 99)},
      {"lab.executor.grade_p50_us", "us", p(layer, "lab.executor.grade", 50)},
      {"lab.executor.grade_p99_us", "us", p(layer, "lab.executor.grade", 99)},
      {"grade.explored_per_grade", "count",
       ratio(static_cast<double>(replay.explored),
             static_cast<double>(replay.grades))},
      {"lab.shard.execute_p50_us", "us", p(layer, "lab.shard.execute", 50)},
      {"lab.shard.execute_p99_us", "us", p(layer, "lab.shard.execute", 99)},
      {"lab.shard.respawns", "count",
       static_cast<double>(stats.worker_respawns + replay.shard_respawns)},
      {"store.put_result_p50_us", "us", p(layer, "store.put_result", 50)},
      {"store.put_result_p99_us", "us", p(layer, "store.put_result", 99)},
      {"store.put_grade_p50_us", "us", p(layer, "store.put_grade", 50)},
      {"store.fsyncs_per_append", "ratio",
       ratio(static_cast<double>(replay.wal_fsyncs),
             static_cast<double>(replay.wal_appends))},
      {"store.bytes_per_append", "B",
       ratio(static_cast<double>(replay.wal_bytes),
             static_cast<double>(replay.wal_appends))},
      {"store.recover_ms", "ms", replay.recover_ms},
      {"store.records_recovered", "count",
       static_cast<double>(replay.records_recovered)},
      {"gen.open_p99_ms", "ms", open.p99_ms().value},
      {"gen.open_p99_samples", "count", static_cast<double>(open.samples.size())},
      {"gen.late_p99_us", "us", percentile(open.late_us, 99)},
      {"gen.jobs_offered", "count",
       static_cast<double>(load.open.offered + load.open_traced.offered)},
      {"trace.untraced_jobs_per_s", "1/s", load.closed.jobs_per_s()},
      {"trace.traced_jobs_per_s", "1/s", load.closed_traced.jobs_per_s()},
      {"trace.untraced_p50_ms", "ms", load.open.p50_ms()},
      {"trace.traced_p50_ms", "ms", load.open_traced.p50_ms()},
  };
}

Tally run_tally(const LoadResult& load, const Replay& replay) {
  Tally all;
  for (const Phase* phase :
       {&load.closed, &load.open, &load.closed_traced, &load.open_traced}) {
    all += phase->tally;
  }
  all += load.untimed;
  all += replay.tally;
  return all;
}

}  // namespace perfbench
