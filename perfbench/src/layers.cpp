#include "layers.hpp"

#include <filesystem>
#include <map>
#include <memory>
#include <type_traits>

#include "grade/gradebook.hpp"
#include "grade/grader.hpp"
#include "lab/cache.hpp"
#include "lab/executor.hpp"
#include "lab/queue.hpp"
#include "lab/shard.hpp"
#include "patternlets/mpi_programs.hpp"
#include "store/store.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using protocol::JobKind;
using protocol::Result;
using protocol::Submit;

namespace {

/// Coverage sample size per layer the workload's own stream does not reach.
constexpr std::size_t kCoverageJobs = 16;

/// Requests queued ahead of each replayed push, so pop() picks among the
/// stream's tenants as it does with every terminal waiting.
constexpr std::size_t kQueueBacklog = kTerminals;

const char* executor_span(JobKind kind) {
  switch (kind) {
    case JobKind::Patternlet: return "lab.executor.patternlet";
    case JobKind::Exemplar: return "lab.executor.exemplar";
    case JobKind::Notebook: return "lab.executor.notebook";
    case JobKind::Grade: return "lab.executor.grade";
  }
  return "lab.executor.other";
}

std::string hex(std::uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
  }
  return out;
}

pdc::store::ResultRecord to_record(std::uint64_t digest, const Submit& submit,
                                   const Result& result) {
  pdc::store::ResultRecord record;
  record.digest = digest;
  record.tenant = submit.tenant;
  record.kind = static_cast<std::uint16_t>(submit.kind);
  record.name = submit.name;
  record.np = submit.np;
  record.seed = submit.seed;
  record.exit_code = result.exit_code;
  record.exec_us = result.exec_us;
  record.output = result.output;
  record.error = result.error;
  return record;
}

/// Mutation kinds the grade coverage sample cycles through.
const std::vector<std::string> kMutationKinds = {"clean", "wrong", "race",
                                                 "order", "crash"};

/// A cohort's Grade jobs at K=8: each base program in turn, with each
/// mutation kind, a per-seed salt so no two runs share a digest, and np 2
/// or 4. No workload submits these; the traced run times them so the grade
/// layers are measured.
std::vector<Submit> grade_jobs(std::uint64_t seed) {
  const std::vector<std::string> names = pdc::patternlets::mpi_program_names();
  std::vector<Submit> jobs;
  for (std::size_t i = 0; i < kCoverageJobs; ++i) {
    const int np = i % 2 == 0 ? 2 : 4;
    Submit submit;
    submit.token = kToken;
    submit.tenant = "cohort-" + std::to_string(i % 4);
    submit.kind = JobKind::Grade;
    submit.name = names[i % names.size()] + "~" +
                  kMutationKinds[i % kMutationKinds.size()] + "#" +
                  std::to_string(static_cast<std::uint32_t>(seed * 7919 + i)) +
                  "@np" + std::to_string(np);
    submit.np = np;
    submit.source = "k=8";
    jobs.push_back(std::move(submit));
  }
  return jobs;
}

/// Jobs of `kind`: the grade sample, or explore_runs' jobs of that kind.
std::vector<Submit> coverage_jobs(JobKind kind, std::uint64_t seed) {
  if (kind == JobKind::Grade) return grade_jobs(seed);
  const Generator generator(workload_named("explore_runs"), seed);
  std::vector<Submit> jobs;
  for (std::uint64_t i = 0; jobs.size() < kCoverageJobs && i < 4096; ++i) {
    for (const Submit& job : generator.session(i).jobs) {
      if (job.kind == kind) jobs.push_back(job);
    }
  }
  return jobs;
}

class Replayer {
 public:
  Replayer(const RunConfig& config, Streams& streams, Replay& out)
      : config_(config), streams_(streams), out_(out), cache_(kCacheCapacity),
        queue_(pdc::lab::FairQueue::Policy{}) {}

  void run(double budget_s) {
    const Workload& workload = *config_.workload;
    const Generator generator(workload, config_.seed);
    const std::string store_dir = config_.dir + "/replay-store";
    fs::remove_all(store_dir);
    if (workload.socket_mode) {
      fs::copy(template_store_dir(config_), store_dir,
               fs::copy_options::recursive);
    }
    open_store(store_dir);
    if (workload.socket_mode) {
      // The warm start the server performs at start().
      for (const auto& [digest, record] : store_->results()) {
        if (!record.cacheable()) continue;
        Result result;
        result.exec_us = record.exec_us;
        result.output = record.output;
        cache_.insert(digest, std::move(result));
      }
    }
    if (workload.id == WorkloadId::ClassReplay) {
      for (const Submit& job : generator.assigned()) {
        cache_.insert(protocol::digest(job), executor_.execute(job));
      }
    }
    if (workload.socket_mode) start_pool();

    // Untimed: the coverage samples and their references.
    std::map<JobKind, std::vector<Submit>> coverage;
    std::vector<Submit> all_coverage;
    for (const JobKind kind : {JobKind::Patternlet, JobKind::Exemplar,
                               JobKind::Notebook, JobKind::Grade}) {
      coverage[kind] = coverage_jobs(kind, config_.seed);
      all_coverage.insert(all_coverage.end(), coverage[kind].begin(),
                          coverage[kind].end());
    }
    streams_.gate.add_references(all_coverage, kTerminals);

    std::vector<Submit> stream;
    for (std::uint64_t i = 0; stream.size() < kReplayRequests + kQueueBacklog;
         ++i) {
      const auto jobs = generator.session(i).jobs;
      stream.insert(stream.end(), jobs.begin(), jobs.end());
    }
    for (std::size_t i = 0; i < kQueueBacklog && i < stream.size(); ++i) {
      queue_.push(job_for(stream[i]));
    }

    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    for (std::size_t i = kQueueBacklog;
         i < stream.size() && now_ns() < deadline; ++i) {
      request(stream[i]);
    }

    // Coverage: layers the stream did not reach.
    for (const auto& [kind, jobs] : coverage) {
      if (executed_[kind] >= kCoverageJobs) continue;
      for (const Submit& job : jobs) {
        const Result result = execute_inline(job, -1);
        if (kind == JobKind::Grade) put_grade(job, result, -1);
      }
    }
    if (!workload.socket_mode) {
      start_pool();
      for (const Submit& job : coverage[JobKind::Patternlet]) {
        (void)execute_on_pool(job, -1);
      }
    }
    if (pool_) {
      out_.shard_respawns = pool_->respawns();
      pool_->stop();
    }

    out_.wal_appends = store_->wal_appends();
    out_.wal_fsyncs = store_->wal_fsyncs();
    out_.wal_bytes = store_->wal_bytes();
    if (!workload.socket_mode) {
      // Recovery of the store this replay wrote.
      store_.reset();
      open_store(store_dir);
    }
    store_.reset();
    fs::remove_all(store_dir);
  }

 private:
  void open_store(const std::string& dir) {
    pdc::store::StoreConfig config;
    config.dir = dir;
    config.fsync = config_.workload->fsync;
    const std::int64_t span = out_.spans.begin("store.recover", -1, 0);
    store_ = std::make_unique<pdc::store::Store>(config);
    out_.spans.end(span);
    const auto& recovered = out_.spans.spans()[static_cast<std::size_t>(span)];
    out_.recover_ms =
        static_cast<double>(recovered.end_ns - recovered.start_ns) / 1e6;
    const auto stats = store_->recover_stats();
    out_.records_recovered = stats.snapshot_records + stats.log_records;
  }

  void start_pool() {
    pdc::lab::WorkerPoolConfig pool;
    pool.workers = 1;
    pool.worker_bin = config_.worker_bin;
    pool.executor.mode = pdc::lab::ExecMode::Socket;
    pool.executor.max_np = 4;
    pool_ = std::make_unique<pdc::lab::WorkerPool>(pool);
    pool_->start();
  }

  pdc::lab::Job job_for(const Submit& submit) {
    pdc::lab::Job job;
    job.id = ++next_id_;
    job.submit = submit;
    job.digest = protocol::digest(submit);
    return job;
  }

  template <typename Fn>
  auto timed(const char* name, std::int64_t parent, Fn&& fn) {
    const std::int64_t span = out_.spans.begin(name, parent, request_);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      out_.spans.end(span);
    } else {
      auto value = fn();
      out_.spans.end(span);
      return value;
    }
  }

  void check(const Submit& job, const Result& result) {
    ++out_.tally.attempted;
    out_.tally.record(streams_.gate, job, result);
  }

  Result execute_inline(const Submit& job, std::int64_t parent) {
    const Result result = timed(executor_span(job.kind), parent,
                                [&] { return executor_.execute(job); });
    ++executed_[job.kind];
    check(job, result);
    return result;
  }

  Result execute_on_pool(const Submit& job, std::int64_t parent) {
    const Result result = timed("lab.shard.execute", parent, [&] {
      return pool_->execute(0, next_id_, job, {});
    });
    check(job, result);
    return result;
  }

  void put_grade(const Submit& job, const Result& result,
                 std::int64_t parent) {
    if (result.exit_code != 0 || result.output.empty()) return;
    const auto graded = pdc::grade::Grade::parse_line(result.output[0]);
    ++out_.grades;
    out_.explored += static_cast<std::uint64_t>(graded.explored);
    const auto record = pdc::grade::GradeBook::to_record(
        graded, job.tenant, hex(protocol::digest(job)));
    timed("store.put_grade", parent, [&] { store_->put_grade(record); });
  }

  /// One request, in the order the server's admission and worker paths
  /// make these calls.
  void request(const Submit& submit) {
    const std::int64_t parent =
        out_.spans.begin("replay.request", -1, ++request_);
    const pdc::mp::Bytes frame = protocol::encode_submit(submit);
    const pdc::mp::Bytes body(frame.begin() + pdc::net::wire::kHeaderBytes,
                              frame.end());
    const Submit job = timed("lab.protocol.decode_submit", parent,
                             [&] { return protocol::decode_submit(body); });
    timed("lab.executor.validate", parent, [&] { executor_.validate(job); });
    const std::uint64_t digest = timed("lab.protocol.digest", parent,
                                       [&] { return protocol::digest(job); });
    auto cached =
        timed("lab.cache.lookup", parent, [&] { return cache_.lookup(digest); });
    Result result;
    if (cached) {
      result = *cached;
    } else {
      timed("lab.queue.push_pop", parent, [&] {
        queue_.push(job_for(job));
        (void)queue_.pop();
      });
      result = pool_ ? execute_on_pool(job, parent)
                     : execute_inline(job, parent);
      if (result.exit_code == 0) {
        timed("lab.cache.insert", parent,
              [&] { cache_.insert(digest, result); });
      }
    }
    const auto record = to_record(digest, job, result);
    timed("store.put_result", parent, [&] { store_->put_result(record); });
    if (job.kind == JobKind::Grade) put_grade(job, result, parent);
    (void)timed("lab.protocol.encode_result", parent,
                [&] { return protocol::encode_result(result); });
    out_.spans.end(parent);
  }

  const RunConfig& config_;
  Streams& streams_;
  Replay& out_;
  pdc::lab::Executor executor_;
  pdc::lab::ResultCache cache_;
  pdc::lab::FairQueue queue_;
  std::unique_ptr<pdc::store::Store> store_;
  std::unique_ptr<pdc::lab::WorkerPool> pool_;
  std::map<JobKind, std::size_t> executed_;
  std::uint64_t next_id_ = 0;   ///< job ids handed to the queue and pool
  std::uint64_t request_ = 0;   ///< span request id
};

}  // namespace

Replay replay_layers(const RunConfig& config, Streams& streams,
                     double budget_s) {
  Replay out;
  Replayer(config, streams, out).run(budget_s);
  return out;
}

}  // namespace perfbench
