#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lab/protocol.hpp"

namespace perfbench {

namespace protocol = pdc::lab::protocol;

/// The token every generated Submit carries (the server's default).
inline constexpr const char* kToken = "hands-on";

enum class WorkloadId { ClassReplay, ExploreRuns, ShardRestart };

/// One traffic mix. The constants here are part of the benchmark's
/// definition: changing any of them changes what every later run measures.
struct Workload {
  WorkloadId id = WorkloadId::ClassReplay;
  const char* name = "";
  /// Why the workload exists: which layers it stresses and which change it
  /// should predict no movement for.
  const char* why = "";
  /// Open-loop offered load, sessions per second (Poisson arrivals). Fixed
  /// at about an eighth of the closed-loop capacity measured on the
  /// reference host (4 vCPU, Release build); never derived from the
  /// current run.
  double offered_sessions_per_s = 0.0;
  /// Closed-loop jobs per second whose reference outputs are computed
  /// before the server starts: about 1.2x the capacity measured on the
  /// reference host. It does not cap jobs_per_s. The closed stream is
  /// unbounded, and a faster server's jobs beyond this plan are checked
  /// against references computed after the server stops.
  double planned_jobs_per_s = 0.0;
  /// Every session dials a fresh connection (true) or each terminal keeps
  /// one connection open for the whole phase (false).
  bool fresh_connections = false;
  /// Shard pool: jobs run in forked `pdclab worker` processes over socket
  /// transport, and the store is recovered from a pre-populated copy.
  bool socket_mode = false;
  /// WAL fsync per append. The store is on for every workload; only
  /// class_replay syncs, so the shared disk's fsync latency is measured
  /// there and does not drown the executor and shard paths elsewhere.
  bool fsync = true;
};

/// Every workload, as BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// Look a workload up by name; throws pdc::InvalidArgument when unknown.
const Workload& workload_named(const std::string& name);

/// One student session: the jobs one terminal submits back to back.
struct Session {
  std::vector<protocol::Submit> jobs;
};

/// The seeded job-stream generator. Session `i` of a stream is a pure
/// function of (workload, seed, i): the same seed gives a byte-identical
/// stream, a different seed a different one. The program under test only
/// ever sees the generated Submits.
class Generator {
 public:
  Generator(const Workload& workload, std::uint64_t seed);

  /// Session `index` of the stream. Cheap enough to call from a terminal
  /// thread, so no stream is held in memory.
  [[nodiscard]] Session session(std::uint64_t index) const;

  /// Sessions [first, first + count).
  [[nodiscard]] std::vector<Session> sessions(std::uint64_t first,
                                              std::uint64_t count) const;

  /// class_replay: the instructor's assigned jobs, submitted once before
  /// timing so the cache is full (concurrent identical misses would both
  /// execute — the cache has no in-flight coalescing).
  [[nodiscard]] const std::vector<protocol::Submit>& assigned() const {
    return assigned_;
  }

  /// shard_restart: the jobs the untimed pre-population pass journals and
  /// a quarter of the timed stream resubmits.
  [[nodiscard]] std::vector<protocol::Submit> recovered_set() const;

  /// Seeded exponential inter-arrival gaps (seconds) for `count` sessions
  /// at the workload's offered rate.
  [[nodiscard]] std::vector<double> arrival_offsets(std::uint64_t count) const;

 private:
  [[nodiscard]] protocol::Submit make(protocol::JobKind kind, std::string name,
                                      int np, std::uint64_t seed,
                                      std::string tenant) const;

  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<protocol::Submit> assigned_;
  std::vector<protocol::Submit> recovered_;  ///< shard_restart only
};

/// Jobs the pre-population pass journals for shard_restart; the value
/// store.records_recovered must read back.
inline constexpr std::uint64_t kRecoveredJobs = 3000;

/// The canonical bytes of a stream (every Submit's wire encoding, in
/// order), for the determinism check.
std::string stream_bytes(const std::vector<Session>& sessions);

}  // namespace perfbench
