#pragma once

#include <vector>

#include "load.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const LoadResult& load);

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
std::vector<Metric> per_layer_metrics(const LoadResult& load,
                                      const Replay& replay);

/// Every job the run checked: the timed phases, the untimed passes and the
/// replay.
Tally run_tally(const LoadResult& load, const Replay& replay);

}  // namespace perfbench
