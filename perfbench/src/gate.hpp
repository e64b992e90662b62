#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lab/protocol.hpp"

namespace perfbench {

namespace protocol = pdc::lab::protocol;

/// The output gate: reference outputs computed before the server starts,
/// and the check every Result the server returns must pass.
///
/// Multi-rank programs print in scheduling order (and socket-mode workers
/// merge in rank order), so patternlet, exemplar and notebook outputs are
/// compared as sorted line lists; grade outputs, which the grader makes
/// deterministic, are compared line for line and their grade line must
/// parse back to itself. A reference is kept as a 64-bit hash of its
/// canonical lines, so the gate's memory does not swamp rss_mb.
class Gate {
 public:
  /// Execute every distinct submission among `jobs` not yet known (keyed by
  /// protocol::digest) with lab::Executor::execute, on `threads` threads.
  /// Throws pdc::Error when a reference run itself fails: the workload
  /// would then be asking for failing jobs.
  void add_references(const std::vector<protocol::Submit>& jobs, int threads);

  /// The hash of `submit`'s reference output, or nullopt when it has none.
  [[nodiscard]] std::optional<std::uint64_t> reference(
      const protocol::Submit& submit) const;

  /// The hash `result`'s output is compared by, or nullopt when the output
  /// cannot match any reference (a grade line that does not round-trip).
  [[nodiscard]] static std::optional<std::uint64_t> output_key(
      const protocol::Submit& submit, const protocol::Result& result);

  [[nodiscard]] std::size_t size() const noexcept { return expected_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> expected_;
};

/// Per-phase outcome counts. Every failure kind counts into error_rate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t rejected = 0;    ///< Reject frames (none are expected)
  std::uint64_t lost = 0;        ///< accepted, but no Result arrived
  std::uint64_t bad_exit = 0;    ///< Result with exit_code != 0
  std::uint64_t mismatched = 0;  ///< Result output differs from reference

  /// A job with no reference yet, counted as succeeded until settle().
  struct Deferred {
    protocol::Submit submit;
    std::uint64_t key = 0;  ///< Gate::output_key of its Result
  };
  std::vector<Deferred> deferred;

  /// Count one job whose Result arrived. A job the gate has no reference
  /// for (a closed loop that outran its planned stream) is deferred.
  void record(const Gate& gate, const protocol::Submit& submit,
              const protocol::Result& result);

  /// Compute the deferred jobs' references (untimed, after the load) and
  /// move each that does not match from succeeded to mismatched.
  void settle(Gate& gate, int threads);

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return rejected + lost + bad_exit + mismatched;
  }
  [[nodiscard]] double error_rate() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  Tally& operator+=(const Tally& other);
};

}  // namespace perfbench
