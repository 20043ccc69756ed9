#include "harness/selfprof_scenarios.h"

#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace nws::bench {

namespace {

/// One field repetition: the run_field_once shape, additionally capturing
/// the raw throughput counters selfprof charts.
ScenarioRun run_field_scenario(daos::ClusterConfig cfg, const FieldBenchParams& params,
                               char pattern, std::uint64_t seed) {
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  const FieldBenchResult result = pattern == 'B' ? run_field_pattern_b(cluster, params)
                                                 : run_field_pattern_a(cluster, params);
  ScenarioRun run;
  run.outcome.failed = result.failed;
  run.outcome.failure = result.failure;
  if (!result.failed) {
    run.outcome.write_bw =
        result.write_log.empty() ? 0.0 : to_gib_per_sec(result.write_log.global_timing_bandwidth());
    run.outcome.read_bw =
        result.read_log.empty() ? 0.0 : to_gib_per_sec(result.read_log.global_timing_bandwidth());
    run.outcome.metrics =
        snapshot_run_metrics(sched, cluster.flows().stats(), result.write_log, result.read_log,
                             result.client_stats, &result.field_stats, &cluster);
    if (result.snapshot_reads > 0 || result.snapshot_pin_retries > 0 ||
        result.snapshot_fallbacks > 0) {
      run.outcome.metrics.counter("fdb.snapshot_verified_reads",
                                  static_cast<double>(result.snapshot_reads));
      run.outcome.metrics.counter("fdb.snapshot_pin_retries",
                                  static_cast<double>(result.snapshot_pin_retries));
      run.outcome.metrics.counter("fdb.snapshot_fallbacks",
                                  static_cast<double>(result.snapshot_fallbacks));
    }
  }
  run.events = sched.events_executed();
  run.flows = cluster.flows().stats().flows_completed;
  run.sim_seconds = sim::to_seconds(sched.now());
  return run;
}

ScenarioRun run_ior_scenario(daos::ClusterConfig cfg, const ior::IorParams& params,
                             std::uint64_t seed) {
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  const ior::IorResult result = ior::run_ior(cluster, params);
  ScenarioRun run;
  run.outcome.failed = result.failed;
  run.outcome.failure = result.failure;
  if (!result.failed) {
    run.outcome.write_bw = to_gib_per_sec(result.write_log.synchronous_bandwidth());
    run.outcome.read_bw = to_gib_per_sec(result.read_log.synchronous_bandwidth());
    run.outcome.metrics = snapshot_run_metrics(sched, cluster.flows().stats(), result.write_log,
                                               result.read_log, result.client_stats);
  }
  run.events = sched.events_executed();
  run.flows = cluster.flows().stats().flows_completed;
  run.sim_seconds = sim::to_seconds(sched.now());
  return run;
}

FieldBenchParams standard_field_params(fdb::Mode mode, bool shared) {
  FieldBenchParams params;
  params.mode = mode;
  params.shared_forecast_index = shared;
  params.ops_per_process = 20;
  params.processes_per_node = 16;
  return params;
}

}  // namespace

std::vector<SelfprofScenario> selfprof_scenarios() {
  std::vector<SelfprofScenario> out;

  out.push_back({"ior_2s4c_pattern_a", [](std::uint64_t seed) {
                   ior::IorParams params;
                   params.segments = 50;
                   params.processes_per_node = 24;
                   return run_ior_scenario(testbed_config(2, 4), params, seed);
                 }});

  const auto field_scenario = [&](const std::string& name, fdb::Mode mode, bool shared,
                                  char pattern) {
    out.push_back({name, [mode, shared, pattern](std::uint64_t seed) {
                     return run_field_scenario(testbed_config(1, 2),
                                               standard_field_params(mode, shared), pattern, seed);
                   }});
  };
  field_scenario("field_full_low_contention_a", fdb::Mode::full, false, 'A');
  field_scenario("field_full_high_contention_a", fdb::Mode::full, true, 'A');
  field_scenario("field_noindex_high_contention_b", fdb::Mode::no_index, true, 'B');

  out.push_back({"field_chaos_profile_a", [](std::uint64_t seed) {
                   daos::ClusterConfig cfg = testbed_config(1, 2);
                   cfg.payload_mode = daos::PayloadMode::full;
                   cfg.fault_spec = fault::FaultSpec::default_chaos(mix64(seed ^ 0xfa017ull));
                   FieldBenchParams params;
                   params.ops_per_process = 10;
                   params.processes_per_node = 8;
                   params.verify_payload = true;
                   return run_field_scenario(cfg, params, 'A', seed);
                 }});
  return out;
}

std::string scenario_report_json(const SelfprofScenario& scenario, std::uint64_t seed,
                                 const ScenarioRun& run) {
  obs::RunReport report("selfprof." + scenario.name);
  report.set_config({{"scenario", scenario.name}, {"seed", std::to_string(seed)}});

  // Everything deterministic lands in the table; ScenarioRun carries no
  // wall-clock quantity, so the byte diff across job counts is exact.
  Table table({"field", "value"});
  table.add_row({"failed", run.outcome.failed ? "1" : "0"});
  table.add_row({"failure", run.outcome.failure});
  table.add_row({"write_bw_gib_s", strf("%.9f", run.outcome.write_bw)});
  table.add_row({"read_bw_gib_s", strf("%.9f", run.outcome.read_bw)});
  table.add_row({"events", std::to_string(run.events)});
  table.add_row({"flows", std::to_string(run.flows)});
  table.add_row({"sim_seconds", strf("%.9f", run.sim_seconds)});
  report.add_table("deterministic outcome", table);
  report.merge_metrics(run.outcome.metrics);

  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

}  // namespace nws::bench
