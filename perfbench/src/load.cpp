#include "load.hpp"

#include <fcntl.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "lab/client.hpp"
#include "stats.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using pdc::lab::Client;
using pdc::lab::ClientConfig;
using pdc::lab::Server;
using pdc::lab::ServerConfig;
using pdc::lab::ServerStats;

namespace {

/// Open-loop arrivals start this long after the phase begins, so the
/// first session is not late by the thread start-up.
constexpr std::int64_t kOpenLeadNs = 2'000'000;

ServerConfig server_config(const RunConfig& config, const std::string& store,
                           bool socket_mode, bool fsync) {
  ServerConfig server;
  server.endpoint.kind = pdc::net::Endpoint::Kind::Unix;
  server.endpoint.path = store + ".sock";
  server.workers = 2;
  server.cache_capacity = kCacheCapacity;
  server.executor.max_np = 4;  // rank threads of both workers fit the host
  if (socket_mode) {
    server.executor.mode = pdc::lab::ExecMode::Socket;
    server.shard.worker_bin = config.worker_bin;
  }
  server.store.dir = store;
  server.store.fsync = fsync;
  return server;
}

/// Add what `server` counted since `before` to `sum`.
void add_delta(ServerStats& sum, const ServerStats& before,
               const Server& server) {
  const ServerStats after = server.stats();
  sum.submits += after.submits - before.submits;
  sum.accepted += after.accepted - before.accepted;
  sum.rejected += after.rejected - before.rejected;
  sum.completed += after.completed - before.completed;
  sum.failed += after.failed - before.failed;
  sum.cache_hits += after.cache_hits - before.cache_hits;
  sum.executed += after.executed - before.executed;
  sum.lockouts += after.lockouts - before.lockouts;
  sum.lost_results += after.lost_results - before.lost_results;
  sum.sessions += after.sessions - before.sessions;
  sum.cancelled += after.cancelled - before.cancelled;
  sum.worker_respawns += after.worker_respawns - before.worker_respawns;
  sum.warmed_results = after.warmed_results;
  sum.queue_depth = after.queue_depth;
}

/// One student terminal: at most one connection, one session at a time.
class Terminal {
 public:
  Terminal(const Gate& gate, const pdc::net::Endpoint& endpoint, bool fresh,
           bool traced)
      : gate_(gate), fresh_(fresh), traced_(traced) {
    client_config_.endpoint = endpoint;
    client_config_.reply_timeout_ms = 30000;
  }

  /// Run one session whose first job was due at `due_ns`.
  void run(const Session& session, std::int64_t due_ns,
           std::uint64_t request) {
    const std::int64_t session_span =
        traced_ ? spans_.begin("lab.client.session", -1, request) : -1;
    phase_.tally.attempted += session.jobs.size();
    phase_.offered += session.jobs.size();
    std::size_t finished = 0;
    try {
      if (fresh_ || !client_) {
        const std::int64_t span = open_span("lab.client.connect",
                                            session_span, request);
        client_.reset();
        client_.emplace(client_config_);
        close_span(span);
      }
      for (const protocol::Submit& job : session.jobs) {
        const std::int64_t start = finished == 0 ? due_ns : now_ns();
        std::int64_t span = open_span("lab.client.accept", session_span,
                                      request);
        const Client::Outcome outcome = client_->submit(job);
        close_span(span);
        if (!outcome.accepted()) {
          ++phase_.tally.rejected;
          ++finished;
          note("rejected: " + outcome.reject->reason);
          continue;
        }
        span = open_span("lab.client.result", session_span, request);
        const protocol::Result result =
            client_->wait_result(outcome.accept->job_id);
        close_span(span);
        ++finished;
        const std::uint64_t before = phase_.tally.succeeded;
        phase_.tally.record(gate_, job, result);
        if (phase_.tally.succeeded > before) {
          const std::int64_t done = now_ns();
          phase_.samples.push_back(
              Sample{done, static_cast<double>(done - start) / 1e6});
        } else {
          std::string output;
          for (const std::string& line : result.output) output += " | " + line;
          note("wrong result for '" + job.name + "' (exit " +
               std::to_string(result.exit_code) + ") " + result.error +
               output.substr(0, 400));
        }
      }
      if (fresh_) client_.reset();
    } catch (const pdc::Error& error) {
      phase_.tally.lost += session.jobs.size() - finished;
      client_.reset();
      note(std::string("session lost: ") + error.what());
    }
    if (session_span >= 0) spans_.end(session_span);
  }

  /// Record how late an open-loop session started.
  void late(std::int64_t ns) {
    phase_.late_us.push_back(static_cast<double>(ns) / 1e3);
  }

  Phase& phase() noexcept { return phase_; }
  SpanLog& spans() noexcept { return spans_; }
  void close() { client_.reset(); }

 private:
  std::int64_t open_span(const char* name, std::int64_t parent,
                         std::uint64_t request) {
    return traced_ ? spans_.begin(name, parent, request) : -1;
  }
  void close_span(std::int64_t span) {
    if (span >= 0) spans_.end(span);
  }
  void note(const std::string& what) {
    if (notes_++ < 3) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }

  const Gate& gate_;
  const bool fresh_;
  const bool traced_;
  ClientConfig client_config_;
  std::optional<Client> client_;
  Phase phase_;
  SpanLog spans_;
  int notes_ = 0;
};

/// Session `i` of a stream a phase drives.
using SessionSource = std::function<Session(std::uint64_t)>;

/// Drive sessions with kTerminals terminals. Closed loop (`offsets` null):
/// each terminal takes the next session from `cursor` as soon as its last
/// one finished, until `seconds` have passed (never, when `seconds` is 0)
/// or `end` is reached. Open loop: session i is due at its offset (rebased
/// to the first session) and is timed from then, however late a terminal
/// picks it up. Timed phases are cut into slices (see Phase).
Phase drive(const Gate& gate, const pdc::net::Endpoint& endpoint, bool fresh,
            bool traced, const SessionSource& source,
            std::atomic<std::uint64_t>& cursor, std::uint64_t end,
            const std::vector<double>* offsets, double seconds,
            SpanLog& spans) {
  std::vector<std::unique_ptr<Terminal>> terminals;
  for (int t = 0; t < kTerminals; ++t) {
    terminals.push_back(
        std::make_unique<Terminal>(gate, endpoint, fresh, traced));
  }
  const std::uint64_t first = cursor.load();
  const std::int64_t start = now_ns();
  const std::int64_t origin = start + kOpenLeadNs;
  const bool closed_timed = offsets == nullptr && seconds > 0;
  const std::int64_t deadline =
      closed_timed ? start + static_cast<std::int64_t>(seconds * 1e9)
                   : std::numeric_limits<std::int64_t>::max();

  // Slices of kSliceSeconds: of [start, deadline), or of the due times.
  double span_s = 0.0;
  if (closed_timed) {
    span_s = seconds;
  } else if (offsets != nullptr && end > first) {
    span_s = (*offsets)[end - 1] - (*offsets)[first];
  }
  const int slices =
      span_s > 0
          ? std::max(1, static_cast<int>(std::lround(span_s / kSliceSeconds)))
          : 0;
  const std::int64_t slice0 = closed_timed ? start : origin;
  const double width_ns = span_s * 1e9 / std::max(1, slices);

  std::vector<std::thread> threads;
  for (auto& terminal : terminals) {
    threads.emplace_back([&, t = terminal.get()] {
      // Wake at the due time, not up to the default 50 us after it: the
      // slack would otherwise count into every open-loop latency.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::uint64_t i = cursor++; i < end; i = cursor++) {
        const Session session = source(i);
        std::int64_t due = now_ns();
        if (offsets != nullptr) {
          due = origin + static_cast<std::int64_t>(
                             ((*offsets)[i] - (*offsets)[first]) * 1e9);
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
          t->late(now_ns() - due);
        } else if (due >= deadline) {
          break;
        }
        t->run(session, due, i);
      }
      t->close();
    });
  }
  std::vector<double> cpu_s;    // at each slice edge
  std::vector<double> steal_s;  // at each slice edge
  for (int edge = 0; slices > 0 && edge <= slices; ++edge) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        slice0 + static_cast<std::int64_t>(width_ns * edge) - now_ns()));
    cpu_s.push_back(process_cpu_seconds());
    steal_s.push_back(host_steal_seconds());
  }
  for (std::thread& thread : threads) thread.join();

  Phase phase;
  for (auto& terminal : terminals) {
    Phase& part = terminal->phase();
    phase.tally += part.tally;
    phase.offered += part.offered;
    phase.samples.insert(phase.samples.end(), part.samples.begin(),
                         part.samples.end());
    phase.late_us.insert(phase.late_us.end(), part.late_us.begin(),
                         part.late_us.end());
    spans.merge(terminal->spans());
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  const double cpus = std::max(1U, std::thread::hardware_concurrency());
  for (int slice = 0; slice < slices; ++slice) {
    phase.window_steal.push_back((steal_s[slice + 1] - steal_s[slice]) /
                                 (width_ns / 1e9 * cpus));
  }
  if (closed_timed) {
    // Jobs that finish after the deadline belong to no slice.
    std::vector<std::int64_t> done;
    done.reserve(phase.samples.size());
    for (const Sample& sample : phase.samples) {
      if (sample.done_ns < deadline) done.push_back(sample.done_ns);
    }
    phase.window_rates = window_rates(done, start, deadline, slices);
    for (int slice = 0; slice < slices; ++slice) {
      const double jobs = phase.window_rates[slice] * width_ns / 1e9;
      phase.window_cpu_ms_per_job.push_back(
          (cpu_s[slice + 1] - cpu_s[slice]) * 1e3 / std::max(1.0, jobs));
    }
  } else if (slices > 0) {
    phase.window_latency_ms.resize(static_cast<std::size_t>(slices));
    for (const Sample& sample : phase.samples) {
      const double due_ns = static_cast<double>(sample.done_ns - slice0) -
                            sample.latency_ms * 1e6;
      const auto slice = std::clamp(static_cast<int>(due_ns / width_ns), 0,
                                    slices - 1);
      phase.window_latency_ms[static_cast<std::size_t>(slice)].push_back(
          sample.latency_ms);
    }
  }
  return phase;
}

/// Submit `jobs` one session each through `server`, untimed, with every
/// terminal.
Tally submit_untimed(const Gate& gate, const Server& server,
                     const std::vector<protocol::Submit>& jobs) {
  std::atomic<std::uint64_t> cursor{0};
  SpanLog unused;
  return drive(gate, server.endpoint(), false, false,
               [&](std::uint64_t i) { return Session{{jobs[i]}}; }, cursor,
               jobs.size(), nullptr, 0.0, unused)
      .tally;
}

/// Add the references of sessions first, first + 1, ... a chunk at a time,
/// until `count` sessions or at least `jobs` jobs are covered. Returns the
/// number of sessions covered.
std::uint64_t add_stream_references(Gate& gate, const Generator& generator,
                                    std::uint64_t first, std::uint64_t count,
                                    std::uint64_t jobs) {
  constexpr std::uint64_t kChunk = 4096;
  std::uint64_t covered = 0;
  std::uint64_t sessions = 0;
  while (sessions < count && covered < jobs) {
    std::vector<protocol::Submit> chunk;
    for (std::uint64_t i = 0;
         i < kChunk && sessions < count && covered < jobs; ++i, ++sessions) {
      for (protocol::Submit& job : generator.session(first + sessions).jobs) {
        chunk.push_back(std::move(job));
        ++covered;
      }
    }
    gate.add_references(chunk, kTerminals);
  }
  return sessions;
}

}  // namespace

double Phase::jobs_per_s() const {
  return quiet_median(window_rates, window_steal);
}

double Phase::cpu_ms_per_job() const {
  return quiet_median(window_cpu_ms_per_job, window_steal);
}

std::vector<double> Phase::slice_p50s_ms() const {
  std::vector<double> medians;
  for (const std::size_t slice : quiet_slices(window_steal)) {
    std::vector<double> latency = window_latency_ms[slice];
    if (!latency.empty()) medians.push_back(percentile(latency, 50.0));
  }
  return medians;
}

double Phase::p50_ms() const {
  std::vector<double> medians = slice_p50s_ms();
  return percentile(medians, 50.0);
}

Tail Phase::p99_ms() const {
  std::vector<double> latency;
  for (const std::size_t slice : quiet_slices(window_steal)) {
    latency.insert(latency.end(), window_latency_ms[slice].begin(),
                   window_latency_ms[slice].end());
  }
  Tail out = supported_tail(latency, 99.0);
  out.samples = samples.size();
  return out;
}

Phase& Phase::operator+=(const Phase& later) {
  tally += later.tally;
  samples.insert(samples.end(), later.samples.begin(), later.samples.end());
  window_rates.insert(window_rates.end(), later.window_rates.begin(),
                      later.window_rates.end());
  window_cpu_ms_per_job.insert(window_cpu_ms_per_job.end(),
                               later.window_cpu_ms_per_job.begin(),
                               later.window_cpu_ms_per_job.end());
  window_steal.insert(window_steal.end(), later.window_steal.begin(),
                      later.window_steal.end());
  window_latency_ms.insert(window_latency_ms.end(),
                           later.window_latency_ms.begin(),
                           later.window_latency_ms.end());
  late_us.insert(late_us.end(), later.late_us.begin(), later.late_us.end());
  offered += later.offered;
  return *this;
}

std::string template_store_dir(const RunConfig& config) {
  return config.dir + "/template";
}

Streams prepare_streams(const RunConfig& config, const Generator& generator) {
  Streams streams;
  streams.open_offsets_s =
      generator.arrival_offsets(static_cast<std::uint64_t>(std::ceil(
          config.workload->offered_sessions_per_s * config.seconds / 2)));
  return streams;
}

LoadResult run_load(const RunConfig& config, const Generator& generator,
                    Streams& streams) {
  const Workload& workload = *config.workload;
  LoadResult out;

  // shard_restart: an untimed inline pass journals the recovered set into
  // the template store that every start() below recovers from a copy of.
  if (workload.socket_mode) {
    const auto recovered = generator.recovered_set();
    streams.gate.add_references(recovered, kTerminals);
    Server prepopulate(server_config(config, template_store_dir(config),
                                     /*socket_mode=*/false, /*fsync=*/false));
    prepopulate.start();
    out.untimed += submit_untimed(streams.gate, prepopulate, recovered);
    prepopulate.stop();
  }

  // Set-up is timed in bursts spread over the run (here, before the bulk of
  // the reference runs, then after each round), so a slow patch of a shared
  // host moves one burst, not the median.
  int starts = 0;
  const auto fresh_store = [&] {
    const std::string store = config.dir + "/store-" + std::to_string(starts++);
    fs::remove_all(store);
    if (workload.socket_mode) {
      fs::copy(template_store_dir(config), store, fs::copy_options::recursive);
    }
    return server_config(config, store, workload.socket_mode, workload.fsync);
  };
  const auto time_setups = [&] {
    for (int rep = 0; rep < kSetupRepsPerBurst; ++rep) {
      const ServerConfig server_config = fresh_store();
      Server server(server_config);
      const std::int64_t t0 = now_ns();
      server.start();
      out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      server.stop();
      fs::remove_all(server_config.store.dir);
    }
    // Commit the burst's file churn now, so the next phase's fsyncs do not
    // wait behind it in the filesystem journal.
    const int dir = ::open(config.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir >= 0) {
      ::syncfs(dir);
      ::close(dir);
    }
  };
  time_setups();

  const std::uint64_t open_sessions = streams.open_offsets_s.size();
  streams.gate.add_references(generator.assigned(), kTerminals);
  streams.closed_planned = add_stream_references(
      streams.gate, generator, 0, kOpenFirst,
      static_cast<std::uint64_t>(
          std::ceil(workload.planned_jobs_per_s * config.seconds / 2)));
  add_stream_references(streams.gate, generator, kOpenFirst, open_sessions,
                        std::numeric_limits<std::uint64_t>::max());

  const bool fresh = workload.fresh_connections;
  const int halves = config.trace ? 2 : 1;
  const double closed_seconds = config.seconds / 2 / kRounds / halves;
  const std::size_t open_parts = static_cast<std::size_t>(kRounds * halves);
  std::size_t open_part = 0;
  const auto open_end = [&] {
    return open_sessions * ++open_part / open_parts;
  };
  const SessionSource closed_source = [&](std::uint64_t i) {
    return generator.session(i);
  };
  const SessionSource open_source = [&](std::uint64_t i) {
    return generator.session(kOpenFirst + i);
  };

  std::atomic<std::uint64_t> closed_cursor{0};
  std::atomic<std::uint64_t> open_cursor{0};
  SpanLog untraced;
  for (int round = 0; round < kRounds; ++round) {
    // A fresh server each round. How the program's threads and worker
    // processes happen to land on the host's CPUs sets its speed for as
    // long as they live (see README, "Fork-join wake"), so each round is
    // a new draw instead of the whole run being one.
    const ServerConfig server_config = fresh_store();
    out.rss_peak_reset = reset_peak_rss() && out.rss_peak_reset;
    const double rss_mb = current_rss_mb();
    if (round == 0) out.rss_baseline_mb = rss_mb;
    Server server(server_config);
    server.start();
    // Fill the cache before timing: the cache has no in-flight coalescing,
    // so concurrent first submissions of one assigned job would all
    // execute.
    if (workload.id == WorkloadId::ClassReplay) {
      for (const auto& job : generator.assigned()) {
        out.untimed += submit_untimed(streams.gate, server, {job});
      }
    }
    const ServerStats before = server.stats();
    const auto endpoint = server.endpoint();
    out.open += drive(streams.gate, endpoint, fresh, false, open_source,
                      open_cursor, open_end(), &streams.open_offsets_s, 0.0,
                      untraced);
    if (config.trace) {
      out.open_traced +=
          drive(streams.gate, endpoint, fresh, true, open_source, open_cursor,
                open_end(), &streams.open_offsets_s, 0.0, out.client_spans);
    }
    // The open loop serves the same sessions for a seed whatever the
    // server's speed, so the peak RSS up to here is the footprint of a
    // fixed amount of work; after the closed loop it would follow jobs_per_s.
    out.round_rss_mb.push_back(peak_rss_mb() - rss_mb);
    out.closed += drive(streams.gate, endpoint, fresh, false, closed_source,
                        closed_cursor, kOpenFirst, nullptr, closed_seconds,
                        untraced);
    if (config.trace) {
      out.closed_traced +=
          drive(streams.gate, endpoint, fresh, true, closed_source,
                closed_cursor, kOpenFirst, nullptr, closed_seconds,
                out.client_spans);
    }
    add_delta(out.timed_stats, before, server);
    server.stop();
    fs::remove_all(server_config.store.dir);
    time_setups();
  }

  // Jobs past the planned closed stream are checked now, untimed.
  std::size_t deferred = 0;
  for (Phase* phase :
       {&out.closed, &out.open, &out.closed_traced, &out.open_traced}) {
    deferred += phase->tally.deferred.size();
    phase->tally.settle(streams.gate, kTerminals);
  }
  if (deferred > 0) {
    std::fprintf(stderr,
                 "perfbench: the closed loop outran its %llu planned "
                 "sessions; %zu jobs were checked after the run\n",
                 static_cast<unsigned long long>(streams.closed_planned),
                 deferred);
  }
  return out;
}

}  // namespace perfbench
