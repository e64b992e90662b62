#include "workload.hpp"

#include <cmath>

#include "notebook/engine.hpp"
#include "patternlets/mpi_programs.hpp"
#include "support/error.hpp"

namespace perfbench {

using protocol::JobKind;
using protocol::Submit;

namespace {

// Offered rates are sessions/s at about an eighth of the closed-loop jobs/s
// measured on the reference host (4 vCPU VM, Release): class_replay averages
// 1.5 jobs a session, the other workloads one. The shared host's capacity
// halves for minutes at a time; at half, and then a quarter, of the capacity
// such stretches turned into open-loop backlogs and p50_ms followed them.
const std::vector<Workload> kWorkloads = {
    {WorkloadId::ClassReplay, "class_replay",
     "a class re-runs the assigned jobs: ~90% cache hits on fresh "
     "connections, so connect, admission, cache and journal-on-hit dominate; "
     "an executor change should not move it",
     /*offered_sessions_per_s=*/900.0, /*planned_jobs_per_s=*/18000.0,
     /*fresh_connections=*/true, /*socket_mode=*/false, /*fsync=*/true},
    {WorkloadId::ExploreRuns, "explore_runs",
     "every submission distinct (seed, np, all 15 patternlets, exemplars, "
     "notebook cells): fair queue, executor, mp runtime and WAL appends; a "
     "cache change should not move it",
     /*offered_sessions_per_s=*/1200.0, /*planned_jobs_per_s=*/13000.0,
     /*fresh_connections=*/false, /*socket_mode=*/false, /*fsync=*/false},
    {WorkloadId::ShardRestart, "shard_restart",
     "socket-mode shard pool restarted over a pre-populated store: recovery "
     "and worker fork in setup, a quarter resubmitted recovered jobs, the "
     "rest new jobs in forked workers",
     /*offered_sessions_per_s=*/1100.0, /*planned_jobs_per_s=*/10000.0,
     /*fresh_connections=*/false, /*socket_mode=*/true, /*fsync=*/false},
};

/// The instructor's assigned patternlets (class_replay).
const std::vector<std::string> kAssignedPatternlets = {
    "spmd", "send-receive", "broadcast", "reduce", "ring"};

const std::vector<std::string> kExemplars = {"pi", "drug-design"};

/// splitmix64: the generator's only source of randomness.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A small deterministic draw stream for one session.
class Draws {
 public:
  explicit Draws(std::uint64_t state) : state_(state) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0, 1)
  }

 private:
  std::uint64_t state_;
};

std::uint64_t stream_key(std::uint64_t seed, std::uint64_t domain,
                         std::uint64_t index) {
  return mix64(mix64(seed ^ (domain << 56)) + index);
}

const std::vector<std::string>& notebook_files() {
  static const std::vector<std::string> files =
      pdc::notebook::ProgramRegistry::mpi4py_standard().filenames();
  return files;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload& workload_named(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return workload;
  }
  throw pdc::InvalidArgument("perfbench: unknown workload '" + name + "'");
}

Generator::Generator(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  for (const std::string& exemplar : kExemplars) {
    for (std::uint64_t s = 101; s <= 104; ++s) {
      assigned_.push_back(make(JobKind::Exemplar, exemplar, 4, s, "instructor"));
    }
  }
  for (const std::string& name : kAssignedPatternlets) {
    assigned_.push_back(make(JobKind::Patternlet, name, 4, 0, "instructor"));
  }
  if (workload_.socket_mode) recovered_ = recovered_set();
}

Submit Generator::make(JobKind kind, std::string name, int np,
                       std::uint64_t seed, std::string tenant) const {
  Submit submit;
  submit.token = kToken;
  submit.tenant = std::move(tenant);
  submit.kind = kind;
  submit.name = std::move(name);
  submit.np = np;
  submit.seed = seed;
  return submit;
}

std::vector<Submit> Generator::recovered_set() const {
  const std::vector<std::string> names = pdc::patternlets::mpi_program_names();
  std::vector<Submit> jobs;
  jobs.reserve(kRecoveredJobs);
  for (std::uint64_t k = 0; k < kRecoveredJobs; ++k) {
    Draws draw(stream_key(seed_, 1, k));
    const int np = draw.below(2) == 0 ? 2 : 4;
    const std::uint64_t job_seed = draw.next() | 1;
    const std::string tenant = "student-" + std::to_string(k % 32);
    if (draw.below(4) == 0) {
      jobs.push_back(make(JobKind::Exemplar, kExemplars[draw.below(2)], np,
                          job_seed, tenant));
    } else {
      jobs.push_back(make(JobKind::Patternlet, names[draw.below(names.size())],
                          np, job_seed, tenant));
    }
  }
  return jobs;
}

Session Generator::session(std::uint64_t index) const {
  static const std::vector<std::string> names =
      pdc::patternlets::mpi_program_names();
  Draws draw(stream_key(seed_, 0, index));
  Session session;
  switch (workload_.id) {
    case WorkloadId::ClassReplay: {
      // 1-2 submits per fresh connection; 9 in 10 repeat an assigned job,
      // the rest explore an exemplar seed nobody ran before.
      const std::string tenant = "student-" + std::to_string(index % 48);
      const std::size_t count = 1 + draw.below(2);
      for (std::size_t j = 0; j < count; ++j) {
        if (draw.below(10) != 0) {
          Submit submit = assigned_[draw.below(assigned_.size())];
          submit.tenant = tenant;
          session.jobs.push_back(std::move(submit));
        } else {
          session.jobs.push_back(make(JobKind::Exemplar,
                                      kExemplars[draw.below(2)], 4,
                                      draw.next() | 1, tenant));
        }
      }
      break;
    }
    case WorkloadId::ExploreRuns: {
      const std::string tenant = "student-" + std::to_string(index % 32);
      const int np = draw.below(2) == 0 ? 2 : 4;
      const std::uint64_t job_seed = draw.next() | 1;
      const std::size_t pick = draw.below(10);
      if (pick < 7) {
        session.jobs.push_back(make(JobKind::Patternlet,
                                    names[draw.below(names.size())], np,
                                    job_seed, tenant));
      } else if (pick < 9) {
        session.jobs.push_back(make(JobKind::Exemplar,
                                    kExemplars[draw.below(2)], np, job_seed,
                                    tenant));
      } else {
        const std::string& file =
            notebook_files()[draw.below(notebook_files().size())];
        // A student saving a teaching file. Each lab job gets a fresh
        // engine, so a later `!mpirun` cell could not see the file.
        Submit cell = make(JobKind::Notebook, "", 1, job_seed, tenant);
        cell.source = "%%writefile " + file + "\nfrom mpi4py import MPI\n" +
                      "# np " + std::to_string(np) + "\n";
        session.jobs.push_back(std::move(cell));
      }
      break;
    }
    case WorkloadId::ShardRestart: {
      // A quarter warm hits on the recovered store, the rest new
      // executions. Not half: a hit takes about 0.1 ms and a new job about
      // 0.4 ms, so an even mix puts the median in the gap between the two,
      // where a percent more or fewer hits moves it across the gap.
      if (draw.below(4) == 0) {
        session.jobs.push_back(recovered_[draw.below(recovered_.size())]);
      } else {
        const int np = draw.below(2) == 0 ? 2 : 4;
        const std::uint64_t job_seed = draw.next() | 1;
        const std::string tenant = "student-" + std::to_string(index % 32);
        if (draw.below(4) == 0) {
          session.jobs.push_back(make(JobKind::Exemplar,
                                      kExemplars[draw.below(2)], np, job_seed,
                                      tenant));
        } else {
          session.jobs.push_back(make(JobKind::Patternlet,
                                      names[draw.below(names.size())], np,
                                      job_seed, tenant));
        }
      }
      break;
    }
  }
  return session;
}

std::vector<Session> Generator::sessions(std::uint64_t first,
                                         std::uint64_t count) const {
  std::vector<Session> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(session(first + i));
  return out;
}

std::vector<double> Generator::arrival_offsets(std::uint64_t count) const {
  Draws draw(stream_key(seed_, 2, 0));
  std::vector<double> offsets;
  offsets.reserve(count);
  double t = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    t += -std::log1p(-draw.unit()) / workload_.offered_sessions_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

std::string stream_bytes(const std::vector<Session>& sessions) {
  std::string bytes;
  for (const Session& session : sessions) {
    for (const Submit& submit : session.jobs) {
      const pdc::mp::Bytes frame = protocol::encode_submit(submit);
      bytes.append(reinterpret_cast<const char*>(frame.data()), frame.size());
    }
    bytes.push_back('\n');
  }
  return bytes;
}

}  // namespace perfbench
