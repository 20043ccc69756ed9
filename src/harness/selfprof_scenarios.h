// The selfprof scenario registry, shared between the selfprof bench binary
// (perf trajectory, BENCH_PR8.json) and the determinism suite.
//
// Each scenario is a pure function of its seed: one repetition builds a
// fresh scheduler and cluster from the seed and returns the folded outcome
// plus the raw throughput counters.  The determinism gate runs every
// scenario over several seeds through parallel_map at different job counts
// and byte-diffs the canonical report serialization, so nothing
// wall-clock-dependent may reach ScenarioRun.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace nws::bench {

/// One repetition's deterministic result.
struct ScenarioRun {
  RunOutcome outcome;
  std::uint64_t events = 0;  // scheduler events executed
  std::uint64_t flows = 0;   // completed network flows
  double sim_seconds = 0.0;  // final simulated clock
};

/// Repetitions selfprof times per scenario.
inline constexpr int kScenarioRepetitions = 3;

struct SelfprofScenario {
  std::string name;
  std::function<ScenarioRun(std::uint64_t seed)> run;
};

/// The fixed scenario set: IOR and the four field scenarios selfprof has
/// profiled since PR 3 (low/high contention, no-index pattern B, chaos
/// profile).  Repetition r of scenario s must be run with seed
/// `base_seed + r` to reproduce the committed BENCH_*.json figures.
std::vector<SelfprofScenario> selfprof_scenarios();

/// Canonical nws-report-v1 serialization of one scenario repetition — the
/// exact byte string the determinism gate diffs across job counts.
/// Deterministic fields only: config, bandwidth/throughput table, folded
/// metrics.  Never includes wall-clock quantities.
std::string scenario_report_json(const SelfprofScenario& scenario, std::uint64_t seed,
                                 const ScenarioRun& run);

}  // namespace nws::bench
