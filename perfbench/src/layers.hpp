#pragma once

#include <cstdint>
#include <string>

#include "load.hpp"
#include "spans.hpp"

namespace perfbench {

/// Most requests the library-level replay runs.
inline constexpr std::size_t kReplayRequests = 1500;

/// What the library-level replay measured. Span names are the metric
/// stems: "lab.protocol.decode_submit", "lab.executor.grade",
/// "store.put_result", ...
struct Replay {
  SpanLog spans;
  Tally tally;  ///< every executed result is checked against its reference
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  double recover_ms = 0.0;
  std::uint64_t records_recovered = 0;
  std::uint64_t grades = 0;
  std::uint64_t explored = 0;  ///< schedules explored, over `grades` jobs
  std::uint64_t shard_respawns = 0;
};

/// Replay the workload's own closed-loop stream, in request order, through
/// the public calls a request passes on its way through the server:
///
///   decode_submit → validate → digest → cache lookup → queue push/pop →
///   execute (Executor, or WorkerPool in socket mode) → cache insert →
///   put_result / put_grade → encode_result
///
/// one span per call, under one span per request, for at most
/// kReplayRequests requests or `budget_s` seconds. Layers the stream does
/// not reach (an executor kind it never submits, the shard pool outside
/// shard_restart) are timed on a small coverage sample drawn from the
/// workload that does reach them, so every layer metric exists for every
/// workload; the documentation lists which metrics come from the sample.
Replay replay_layers(const RunConfig& config, Streams& streams,
                     double budget_s);

}  // namespace perfbench
