#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gate.hpp"
#include "lab/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// Terminals (client threads, one connection each at most): the host's
/// core count on the reference host. Fixed, so a run on a bigger machine
/// offers the same load.
inline constexpr int kTerminals = 4;

/// Result-cache entries. Large enough to hold shard_restart's recovered
/// set: with the server's default of 256, the warm start at start() would
/// keep only the last 256 of the 3000 recovered results.
inline constexpr std::size_t kCacheCapacity = 4096;

/// Server::start() repetitions per burst; setup_s is the median of all
/// bursts' starts. One burst runs before the rounds and one after each.
inline constexpr int kSetupRepsPerBurst = 10;

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and sockets (relative to the working
  /// directory keeps unix socket paths short).
  std::string dir;
  /// The `pdclab` binary the shard pool forks in `worker` mode.
  std::string worker_bin;
};

/// One successful job: when its Result arrived and how long it took from
/// when it was due.
struct Sample {
  std::int64_t done_ns = 0;
  double latency_ms = 0.0;
};

/// Slice width, seconds. Contention from other tenants of a shared host
/// comes and goes within a second; quarter-second slices let the quiet
/// stretches of a contended run be told apart, where second-long slices
/// mixed them with the stolen ones. A slice still holds a few hundred
/// open-loop jobs and over a thousand closed-loop ones.
inline constexpr double kSliceSeconds = 0.25;

/// One load phase (closed or open loop), possibly run in several parts.
///
/// A phase is cut into slices of kSliceSeconds: of its run time in a
/// closed loop, of its jobs' due times in an open one. Each slice records
/// the share of the host's CPU the hypervisor stole in it, and the
/// estimators below use only the quiet slices (quiet_slices()): other
/// tenants of a shared host then move the slices they hit, not the figure.
struct Phase {
  Tally tally;
  std::vector<Sample> samples;  ///< per successful job, in time order
  std::vector<double> late_us;  ///< open loop: session start - due time
  std::uint64_t offered = 0;    ///< jobs the phase's sessions carried

  std::vector<double> window_steal;  ///< stolen share of the host's CPU
  std::vector<double> window_rates;  ///< closed loop: successful jobs/s
  /// Closed loop: process CPU (with the shard workers') per successful job.
  std::vector<double> window_cpu_ms_per_job;
  /// Open loop: the latencies of the successful jobs due in each slice.
  std::vector<std::vector<double>> window_latency_ms;

  /// Successful jobs per second: the median quiet slice.
  [[nodiscard]] double jobs_per_s() const;
  /// CPU per successful job: the median quiet slice.
  [[nodiscard]] double cpu_ms_per_job() const;
  /// Each quiet slice's median latency, in time order.
  [[nodiscard]] std::vector<double> slice_p50s_ms() const;
  /// The open-loop median: the median of slice_p50s_ms().
  [[nodiscard]] double p50_ms() const;
  /// The open-loop p99 of the quiet slices' latencies taken together (the
  /// highest percentile with ten samples beyond it, at most p99).
  [[nodiscard]] Tail p99_ms() const;
  /// Append a later part of the same phase.
  Phase& operator+=(const Phase& later);
};

/// Rounds per run, each an open and then a closed phase on a fresh server,
/// so each metric samples several servers and the whole run.
inline constexpr int kRounds = 5;

/// Open-loop session i is the generator's session kOpenFirst + i; the
/// closed loop uses sessions 0, 1, ..., which never reach it.
inline constexpr std::uint64_t kOpenFirst = std::uint64_t{1} << 40;

/// The sizes of a run's job streams, and their reference outputs (filled
/// by run_load). Sessions themselves are generated when a terminal needs
/// them, so no stream is held in memory.
struct Streams {
  /// Closed-loop sessions whose references are computed before the server
  /// starts (Workload::planned_jobs_per_s). The closed loop may use more.
  std::uint64_t closed_planned = 0;
  std::vector<double> open_offsets_s;  ///< one per open-loop session
  Gate gate;
};

/// Size the run's job streams and draw the open-loop arrival schedule.
Streams prepare_streams(const RunConfig& config, const Generator& generator);

/// What the load run measured.
struct LoadResult {
  std::vector<double> setup_s;  ///< each timed Server::start()
  Phase closed;                 ///< untraced closed loop
  Phase open;                   ///< untraced open loop
  Phase closed_traced;          ///< trace mode only
  Phase open_traced;            ///< trace mode only
  /// Each round's peak RSS (VmHWM) at the end of its open loop, less the
  /// resident set just before its server started.
  std::vector<double> round_rss_mb;
  double rss_baseline_mb = 0.0;  ///< the first round's starting resident set
  bool rss_peak_reset = true;    ///< false if the kernel refused a reset
  pdc::lab::ServerStats timed_stats;  ///< ServerStats delta over the phases
  Tally untimed;                ///< pre-population and cache fill
  SpanLog client_spans;         ///< trace mode: connect/submit/result spans
};

/// Compute the reference output of every planned job (untimed), then run
/// kRounds rounds. Each starts a fresh server (and fills its cache on
/// class_replay), drives the open-loop and then the closed-loop phase, and
/// stops the server. The peak RSS restarts just before each round's server
/// starts.
/// Other servers are started and stopped on the side, in bursts of
/// kSetupRepsPerBurst before the rounds and after each, to time set-up.
/// Untraced runs split `seconds` evenly between the two phases; traced runs
/// split each part again into an untraced and a traced half.
LoadResult run_load(const RunConfig& config, const Generator& generator,
                    Streams& streams);

/// The shard_restart template store: the untimed pre-population pass's
/// directory, copied afresh before every start().
std::string template_store_dir(const RunConfig& config);

}  // namespace perfbench
