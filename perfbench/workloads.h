// The perfbench workloads: one simulation each, driven only through the
// simulator's public entry points (daos::Cluster construction,
// bench::FieldPatternRun spawn/collect, sim::Scheduler::run, the dfs
// namespace and bench::snapshot_run_metrics).  Every phase of a repetition
// is timed on the host's steady clock; the simulated statistics come back as
// one MetricsSnapshot so the caller can digest them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Host seconds spent in each phase of one repetition.
struct PhaseTimes {
  double cluster_build = 0.0;  // daos::Cluster construction
  double spawn = 0.0;          // process coroutines spawned
  double run = 0.0;            // sim::Scheduler::run
  double collect = 0.0;        // results gathered from the processes
  double fold = 0.0;           // layer stats folded into a MetricsSnapshot
  double teardown = 0.0;       // run state, cluster and scheduler destroyed

  [[nodiscard]] double setup() const { return cluster_build + spawn; }
  /// Scheduler start to results collected and the cluster destroyed.
  [[nodiscard]] double wall() const { return run + collect + fold + teardown; }
};

/// One repetition's outcome.  `attempted`/`failed` count field operations
/// (writes plus reads); an operation a process never issued because its
/// mount failed counts as attempted and failed.
struct RepResult {
  PhaseTimes times;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check verdict: false when the run aborted, a read returned
  /// other bytes than were written, or a field operation failed after its
  /// retries (run.py adds the bandwidth bands).
  bool correct = true;
  std::vector<std::string> problems;
  /// Every simulated statistic of the run (events, flows, layer counters,
  /// latency histograms, bandwidths, makespan).
  nws::obs::MetricsSnapshot sim;
};

/// Runs one repetition of `workload` built from `seed`; throws
/// std::invalid_argument for an unknown name.
RepResult run_rep(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
