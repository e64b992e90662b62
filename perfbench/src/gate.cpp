#include "gate.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "grade/grader.hpp"
#include "lab/executor.hpp"
#include "support/error.hpp"

namespace perfbench {

using protocol::JobKind;

namespace {

/// FNV-1a over the canonical line list (each line followed by a newline).
std::uint64_t canonical_hash(protocol::JobKind kind,
                             std::vector<std::string> lines) {
  if (kind != JobKind::Grade) std::sort(lines.begin(), lines.end());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (const char c : line + '\n') {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace

void Gate::add_references(const std::vector<protocol::Submit>& jobs,
                          int threads) {
  std::vector<const protocol::Submit*> todo;
  std::unordered_map<std::uint64_t, bool> queued;
  for (const protocol::Submit& submit : jobs) {
    const std::uint64_t digest = protocol::digest(submit);
    if (expected_.count(digest) == 0 && !queued[digest]) {
      queued[digest] = true;
      todo.push_back(&submit);
    }
  }

  // Only the hash of each reference is kept, so peak RSS stays the
  // server's, not the gate's.
  struct Reference {
    protocol::Result failure;  ///< the result, kept only when it failed
    std::uint64_t hash = 0;
  };
  const pdc::lab::Executor executor;
  std::vector<Reference> references(todo.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        protocol::Result result = executor.execute(*todo[i]);
        references[i].hash = canonical_hash(todo[i]->kind, result.output);
        if (result.exit_code != 0) references[i].failure = std::move(result);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (references[i].failure.exit_code != 0) {
      throw pdc::Error("perfbench: reference run of '" + todo[i]->name +
                       "' failed: " + references[i].failure.error);
    }
    expected_[protocol::digest(*todo[i])] = references[i].hash;
  }
}

std::optional<std::uint64_t> Gate::reference(
    const protocol::Submit& submit) const {
  const auto it = expected_.find(protocol::digest(submit));
  if (it == expected_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> Gate::output_key(const protocol::Submit& submit,
                                              const protocol::Result& result) {
  if (submit.kind == JobKind::Grade) {
    try {
      const std::string& line = result.output.at(0);
      if (pdc::grade::Grade::parse_line(line).to_line() != line) {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return canonical_hash(submit.kind, result.output);
}

void Tally::record(const Gate& gate, const protocol::Submit& submit,
                   const protocol::Result& result) {
  if (result.exit_code != 0) {
    ++bad_exit;
    return;
  }
  const std::optional<std::uint64_t> key = Gate::output_key(submit, result);
  const std::optional<std::uint64_t> expected = gate.reference(submit);
  if (!key || (expected && *expected != *key)) {
    ++mismatched;
    return;
  }
  ++succeeded;
  if (!expected) deferred.push_back(Deferred{submit, *key});
}

void Tally::settle(Gate& gate, int threads) {
  std::vector<protocol::Submit> jobs;
  jobs.reserve(deferred.size());
  for (const Deferred& job : deferred) jobs.push_back(job.submit);
  gate.add_references(jobs, threads);
  for (const Deferred& job : deferred) {
    if (gate.reference(job.submit) != job.key) {
      --succeeded;
      ++mismatched;
    }
  }
  deferred.clear();
}

Tally& Tally::operator+=(const Tally& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  rejected += other.rejected;
  lost += other.lost;
  bad_exit += other.bad_exit;
  mismatched += other.mismatched;
  deferred.insert(deferred.end(), other.deferred.begin(), other.deferred.end());
  return *this;
}

}  // namespace perfbench
