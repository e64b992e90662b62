// Tests of the benchmark itself: the seeded generator, the percentile-
// support rule, the output gate and the metric names it emits.
//
//   cmake --build .bench_build --target perfbench_tests
//   ctest --test-dir .bench_build

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "load.hpp"
#include "gate.hpp"
#include "lab/executor.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(Generator, SameSeedGivesTheSameStreamAndAnotherSeedAnother) {
  for (const Workload& workload : workloads()) {
    const Generator a(workload, 7);
    const Generator b(workload, 7);
    const Generator c(workload, 8);
    const std::string first = stream_bytes(a.sessions(0, 300));
    EXPECT_EQ(first, stream_bytes(b.sessions(0, 300))) << workload.name;
    EXPECT_NE(first, stream_bytes(c.sessions(0, 300))) << workload.name;
    EXPECT_EQ(a.arrival_offsets(100), b.arrival_offsets(100));
    EXPECT_NE(a.arrival_offsets(100), c.arrival_offsets(100));
  }
}

TEST(Generator, WorkloadsShareWhatTheyClaim) {
  // class_replay repeats: most of its jobs are among few digests;
  // explore_runs never repeats a submission.
  const auto distinct_share = [](const char* name) {
    const Generator generator(workload_named(name), 3);
    std::set<std::uint64_t> digests;
    std::size_t jobs = 0;
    for (const Session& session : generator.sessions(0, 2000)) {
      for (const auto& job : session.jobs) {
        digests.insert(protocol::digest(job));
        ++jobs;
      }
    }
    return static_cast<double>(digests.size()) / static_cast<double>(jobs);
  };
  EXPECT_LT(distinct_share("class_replay"), 0.15);
  EXPECT_EQ(distinct_share("explore_runs"), 1.0);
}

TEST(Stats, TailIsReportedOnlyWhereTenSamplesLieBeyondIt) {
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i + 1);
  }
  Tail tail = supported_tail(values, 99.0);
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);

  values.resize(500);
  tail = supported_tail(values, 99.0);
  EXPECT_EQ(tail.percentile, 98.0);  // 10 of 500 samples lie beyond p98
  EXPECT_EQ(tail.value, 490.0);

  values.resize(50);
  EXPECT_EQ(supported_tail(values, 99.0).percentile, 80.0);

  values.resize(5);
  EXPECT_EQ(supported_tail(values, 99.0).percentile, 0.0);
}

TEST(Stats, QuietSlicesAreThoseTheHostStoleLittleFrom) {
  EXPECT_EQ(quiet_slices({0.0, 0.30, 0.01, 0.05, 0.0, 0.02}),
            (std::vector<std::size_t>{0, 2, 4, 5}));
  // Too few quiet slices: the least stolen, still in time order.
  EXPECT_EQ(quiet_slices({0.5, 0.01, 0.3, 0.2, 0.4}),
            (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(quiet_median({7, 100, 9, 8}, {0.0, 0.3, 0.0, 0.01}), 8.0);
}

TEST(Stats, PhaseEstimatesSkipTheSlicesTheHostStoleFrom) {
  // 10 events in each of 5 one-second slices but one, in which the host
  // stole a third of the CPU and only 2 jobs finished.
  std::vector<std::int64_t> events;
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < (s == 2 ? 2 : 10); ++i) {
      events.push_back(s * 1'000'000'000LL + i * 1'000'000LL);
    }
  }
  Phase phase;
  phase.window_rates = window_rates(events, 0, 5'000'000'000LL, 5);
  EXPECT_EQ(phase.window_rates, (std::vector<double>{10, 10, 2, 10, 10}));
  phase.window_steal = {0.0, 0.01, 0.33, 0.0, 0.0};
  phase.window_cpu_ms_per_job = {1.0, 1.2, 0.2, 1.1, 1.0};
  phase.window_latency_ms = {{1, 2, 3}, {2, 2, 2}, {50, 60}, {1, 1, 3}, {2}};
  EXPECT_DOUBLE_EQ(phase.jobs_per_s(), 10.0);
  EXPECT_DOUBLE_EQ(phase.cpu_ms_per_job(), 1.0);
  EXPECT_EQ(phase.slice_p50s_ms(), (std::vector<double>{2, 2, 1, 2}));
  EXPECT_DOUBLE_EQ(phase.p50_ms(), 2.0);
}

TEST(Gate, CorruptedOutputCountsIntoErrorRate) {
  protocol::Submit pi;
  pi.token = kToken;
  pi.tenant = "t";
  pi.kind = protocol::JobKind::Exemplar;
  pi.name = "pi";
  pi.np = 2;
  pi.seed = 7;
  protocol::Submit grade = pi;
  grade.kind = protocol::JobKind::Grade;
  grade.name = "ring~race#1@np2";
  grade.np = 2;
  grade.seed = 0;
  grade.source = "k=8";

  Gate gate;
  gate.add_references({pi, grade}, 2);
  ASSERT_EQ(gate.size(), 2u);

  const pdc::lab::Executor executor;
  Tally tally;
  for (const auto& job : {pi, grade}) {
    protocol::Result result = executor.execute(job);
    const std::uint64_t succeeded = tally.succeeded;
    ++tally.attempted;
    tally.record(gate, job, result);
    ASSERT_EQ(tally.succeeded, succeeded + 1) << job.name;

    result.output.at(0).back() ^= 1;  // one flipped bit
    ++tally.attempted;
    tally.record(gate, job, result);
  }
  EXPECT_EQ(tally.succeeded, 2u);
  EXPECT_EQ(tally.mismatched, 2u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.5);

  protocol::Result failed;
  failed.exit_code = 1;
  ++tally.attempted;
  tally.record(gate, pi, failed);
  EXPECT_EQ(tally.bad_exit, 1u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 3.0 / 5.0);
}

TEST(Gate, JobsPastThePlannedStreamAreCheckedAfterTheRun) {
  protocol::Submit ring;
  ring.token = kToken;
  ring.tenant = "t";
  ring.kind = protocol::JobKind::Patternlet;
  ring.name = "ring";
  ring.np = 4;
  ring.seed = 11;
  protocol::Submit pi = ring;
  pi.kind = protocol::JobKind::Exemplar;
  pi.name = "pi";

  Gate gate;  // no references yet: both jobs outran the plan
  const pdc::lab::Executor executor;
  Tally tally;
  tally.attempted = 2;
  tally.record(gate, ring, executor.execute(ring));
  protocol::Result corrupted = executor.execute(pi);
  corrupted.output.at(0) += "!";
  tally.record(gate, pi, corrupted);
  EXPECT_EQ(tally.succeeded, 2u);  // provisionally
  ASSERT_EQ(tally.deferred.size(), 2u);

  tally.settle(gate, 2);
  EXPECT_TRUE(tally.deferred.empty());
  EXPECT_EQ(gate.size(), 2u);
  EXPECT_EQ(tally.succeeded, 1u);
  EXPECT_EQ(tally.mismatched, 1u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.5);
}

/// The "name" values of one top-level list in BENCHMARK.json.
std::vector<std::string> declared(const std::string& json,
                                  const std::string& list) {
  const std::size_t start = json.find("\"" + list + "\"");
  const std::size_t end = json.find(']', start);
  std::vector<std::string> names;
  const std::regex name("\"name\": *\"([^\"]*)\"");
  const std::string body = json.substr(start, end - start);
  for (std::sregex_iterator it(body.begin(), body.end(), name), stop;
       it != stop; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(Metrics, EveryNameIsWellFormedUniqueAndDeclared) {
  const auto names_of = [](const std::vector<Metric>& metrics) {
    std::vector<std::string> names;
    for (const Metric& metric : metrics) {
      EXPECT_TRUE(std::regex_match(metric.name,
                                   std::regex("[A-Za-z0-9_.-]+")))
          << metric.name;
      EXPECT_LE(metric.name.size(), 64u) << metric.name;
      EXPECT_FALSE(metric.unit.empty()) << metric.name;
      names.push_back(metric.name);
    }
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
    return names;
  };
  const auto end_to_end = names_of(end_to_end_metrics(LoadResult{}));
  const auto per_layer = names_of(per_layer_metrics(LoadResult{}, Replay{}));

  std::ifstream file(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(file) << "BENCHMARK.json beside the benchmark directory";
  std::stringstream json;
  json << file.rdbuf();
  EXPECT_EQ(declared(json.str(), "end_to_end"), end_to_end);
  EXPECT_EQ(declared(json.str(), "per_layer"), per_layer);
  // Each workload's rationale is recorded beside its definition and
  // repeated, word for word, in BENCHMARK.json.
  for (const Workload& workload : workloads()) {
    EXPECT_NE(json.str().find("\"name\": \"" + std::string(workload.name) +
                              "\", \"why\": \"" + workload.why + "\""),
              std::string::npos)
        << workload.name;
  }
}

}  // namespace
}  // namespace perfbench
