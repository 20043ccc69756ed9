// Experiment runner: a bench's grid of configurations x repetitions over
// fresh simulated clusters, and the best-configuration search.
//
// The paper's methodology (Sections 6.2-6.3): each configuration is repeated
// several times; bandwidths are reported either as the maximum across
// repetitions (Table 1) or the mean for the best-performing process count
// per client node (Fig. 3-6).  Every repetition runs on a freshly built
// cluster with a repetition-specific seed, as the real runs re-created pools
// between executions.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "daos/cluster.h"
#include "harness/field_bench.h"
#include "ior/ior.h"
#include "obs/metrics.h"

namespace nws::bench {

/// Bandwidths of one workload execution, GiB/s.
struct RunOutcome {
  double write_bw = 0.0;
  double read_bw = 0.0;
  /// Named counters/gauges/histograms of the run (simulator, network, DAOS
  /// client and field-I/O layers; names in docs/OBSERVABILITY.md).
  obs::MetricsSnapshot metrics;
  bool failed = false;
  std::string failure;
};

/// Repetition summary for a configuration.
struct RepetitionSummary {
  Summary write;       // GiB/s per repetition
  Summary read;        // GiB/s per repetition
  /// Per-repetition snapshots folded in repetition order (counters add,
  /// gauges max, histograms append) — bit-identical at any job count.
  obs::MetricsSnapshot metrics;
  bool any_failed = false;
  std::string failure;
};

/// Builds one run's metrics snapshot from the simulator, network and
/// workload counters.  `field` is null for workloads without a field-I/O
/// layer (IOR).  `cluster` adds the `epoch.*` namespace (commit, snapshot
/// and write-amplification accounting, docs/EPOCHS.md) — emitted only when
/// the run actually used epochs, so artifacts of epoch-free workloads are
/// byte-identical to before.
obs::MetricsSnapshot snapshot_run_metrics(const sim::Scheduler& sched, const net::FlowStats& flows,
                                          const IoLog& write_log, const IoLog& read_log,
                                          const daos::ClientStats& client,
                                          const fdb::FieldIoStats* field = nullptr,
                                          const daos::Cluster* cluster = nullptr);

/// Seed of repetition `r` of a configuration whose base seed is `base_seed`.
std::uint64_t repetition_seed(std::uint64_t base_seed, std::size_t r);

/// Runs a bench's whole sweep: `cells` configurations x `reps` repetitions,
/// where job (cell, rep) is `run(cell, rep)` — a callable that derives its
/// configuration and seed from the two indices and returns a RunOutcome.
///
/// Every job goes through one parallel_map over `jobs` threads, indexed
/// cell-major, repetition-minor (with jobs == 1 that is also the execution
/// order).  Each cell's outcomes fold in repetition order into its
/// RepetitionSummary as soon as its last repetition lands, and are freed
/// then, so only the cells in flight hold outcomes.  The grid is
/// bit-identical at any job count — `run` must build all mutable state
/// (scheduler, cluster) freshly from its seed.
std::vector<RepetitionSummary> run_grid(
    std::size_t cells, std::size_t reps, std::size_t jobs,
    const std::function<RunOutcome(std::size_t cell, std::size_t rep)>& run);

/// The paper's "best performing number of client processes per client
/// node": the index of the candidate cell with the greatest mean write+read.
/// A candidate whose repetitions all failed is skipped, and a later one wins
/// only if strictly greater.  nullopt when every candidate is skipped.
std::optional<std::size_t> best_cell(std::span<const RepetitionSummary> candidates);

/// Executes IOR (pattern A, synchronous-bandwidth metric) on a fresh
/// cluster built from `cfg` with the given seed.
RunOutcome run_ior_once(daos::ClusterConfig cfg, const ior::IorParams& params, std::uint64_t seed);

/// Executes the Field I/O benchmark (global-timing metric) on a fresh
/// cluster; `pattern` is 'A' or 'B'.
RunOutcome run_field_once(daos::ClusterConfig cfg, const FieldBenchParams& params, char pattern,
                          std::uint64_t seed);

/// A standard NEXTGenIO-like cluster config for the given node counts.
daos::ClusterConfig testbed_config(std::size_t server_nodes, std::size_t client_nodes,
                                   const std::string& provider_name = "tcp");

}  // namespace nws::bench
