// Self-profiling microbench for the simulator core (perf trajectory anchor).
//
// Runs the shared scenario registry (harness/selfprof_scenarios.h) — IOR,
// field I/O patterns A/B at low and high contention and a chaos-profile
// run — and reports, per scenario, the simulator's raw event throughput
// (scheduler events per wall-clock second), flow throughput and wall-clock
// per run.  A further section times a small experiment sweep serially and
// with the parallel run engine (--jobs); since the run-pool batching fix the
// sweep speedup is asserted >= 1.0 (the binary exits nonzero otherwise).  Results are emitted as machine-readable JSON
// (BENCH_PR8.json by default; format documented in docs/PERFORMANCE.md) so
// successive PRs can compare against a committed baseline.
//
//   ./selfprof                         # print JSON to stdout + BENCH_PR8.json
//   ./selfprof --out=perf.json         # choose the output path
//   ./selfprof --baseline=old.json     # embed a previous run as "baseline"
//   ./selfprof --sweep-seeds=32 -j 8   # size the parallel sweep section
#include <chrono>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "harness/selfprof_scenarios.h"
#include "obs/json.h"

namespace nws::bench {
namespace {

// NWSLINT(allow:determinism): selfprof measures real wall-clock throughput of the simulator itself
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ScenarioTiming {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
  [[nodiscard]] double flows_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(flows) / wall_seconds : 0.0;
  }
};

/// Times kScenarioRepetitions runs of one scenario.
ScenarioTiming time_scenario(const SelfprofScenario& scenario, std::uint64_t seed) {
  ScenarioTiming t;
  t.name = scenario.name;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kScenarioRepetitions; ++rep) {
    const ScenarioRun run = scenario.run(seed + static_cast<std::uint64_t>(rep));
    if (run.outcome.failed) {
      throw std::runtime_error("selfprof scenario " + scenario.name +
                               " failed: " + run.outcome.failure);
    }
    t.events += run.events;
    t.flows += run.flows;
    t.sim_seconds += run.sim_seconds;
  }
  t.wall_seconds = seconds_since(t0);
  return t;
}

/// The sweep timed serially and in parallel: `seeds` independent field
/// benchmark repetitions, the shape of the chaos sweep and of repeat().
double time_sweep(std::size_t seeds, std::uint64_t base_seed, std::size_t jobs) {
  const auto t0 = Clock::now();
  const RepetitionSummary summary = repeat(
      seeds, base_seed,
      [](std::uint64_t seed) {
        FieldBenchParams params;
        params.ops_per_process = 10;
        params.processes_per_node = 8;
        return run_field_once(testbed_config(1, 2), params, 'A', seed);
      },
      jobs);
  if (summary.any_failed) throw std::runtime_error("selfprof sweep failed: " + summary.failure);
  return seconds_since(t0);
}

/// Writes a parsed document back out, so an edited baseline can be embedded.
void write_json(obs::JsonWriter& w, const obs::JsonValue& v) {
  using Type = obs::JsonValue::Type;
  switch (v.type) {
    case Type::null: w.value_null(); break;
    case Type::boolean: w.value(v.boolean); break;
    case Type::number: w.value(v.number); break;
    case Type::string: w.value(v.str); break;
    case Type::array:
      w.begin_array();
      for (const obs::JsonValue& element : v.array) write_json(w, element);
      w.end_array();
      break;
    case Type::object:
      w.begin_object();
      for (const auto& [key, member] : v.object) {
        w.key(key);
        write_json(w, member);
      }
      w.end_object();
      break;
  }
}

/// Reads a previous selfprof emission to embed under "baseline".  Only one
/// level travels: the file's own "baseline" member is dropped, so artifacts
/// do not nest every earlier emission inside each other.
std::string load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue doc = obs::parse_json(buffer.str());
  if (!doc.is_object()) throw std::runtime_error("baseline is not a JSON object: " + path);
  std::erase_if(doc.object, [](const auto& member) { return member.first == "baseline"; });
  std::ostringstream out;
  obs::JsonWriter writer(out);
  write_json(writer, doc);
  return out.str();
}

}  // namespace
}  // namespace nws::bench

int main(int argc, char** argv) {
  using namespace nws;
  using namespace nws::bench;
  Cli cli;
  add_common_flags(cli);
  cli.add_flag("out", "BENCH_PR8.json", "output JSON path");
  cli.add_flag("baseline", "BENCH_PR3.json", "previous selfprof JSON to embed as the baseline");
  cli.add_flag("sweep-seeds", "16", "independent runs in the serial-vs-parallel sweep");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::size_t jobs_requested = normalize_jobs(static_cast<std::size_t>(cli.get_int("jobs")));
  const std::size_t jobs = resolve_jobs(cli);  // sweep jobs (trace forces 1)
  BenchObs obs(cli, "selfprof");
  const auto sweep_seeds = static_cast<std::size_t>(cli.get_int("sweep-seeds"));

  std::vector<ScenarioTiming> timings;
  for (const SelfprofScenario& scenario : selfprof_scenarios()) {
    timings.push_back(time_scenario(scenario, seed));
  }

  const double serial_wall = time_sweep(sweep_seeds, seed, 1);
  // With one effective worker the "parallel" sweep is the identical inline
  // code path; reuse the serial figure instead of timing the same loop
  // twice (speedup is 1.0 by construction, not by luck).
  const std::size_t sweep_jobs = std::min(jobs, hardware_jobs());
  double parallel_wall = sweep_jobs > 1 ? time_sweep(sweep_seeds, seed, sweep_jobs) : serial_wall;
  if (sweep_jobs > 1 && parallel_wall > serial_wall) {
    // One retake before declaring a regression: the first parallel sweep
    // also pays the pool's thread-spawn cost.
    parallel_wall = std::min(parallel_wall, time_sweep(sweep_seeds, seed, sweep_jobs));
  }
  const double sweep_speedup = parallel_wall > 0 ? serial_wall / parallel_wall : 0.0;

  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  std::ostringstream json;
  json << "{\n";
  json << "  \"bench\": \"selfprof\",\n";
  json << "  \"pr\": 8,\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"host_cores\": " << hardware_jobs() << ",\n";
  json << "  \"jobs_requested\": " << jobs_requested << ",\n";
  json << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const ScenarioTiming& s = timings[i];
    total_events += s.events;
    total_wall += s.wall_seconds;
    json << "    {\"name\": \"" << obs::json_escape(s.name) << "\", "
         << "\"events\": " << s.events << ", "
         << "\"flows\": " << s.flows << ", "
         << "\"sim_seconds\": " << strf("%.6f", s.sim_seconds) << ", "
         << "\"wall_seconds\": " << strf("%.6f", s.wall_seconds) << ", "
         << "\"events_per_sec\": " << strf("%.0f", s.events_per_sec()) << ", "
         << "\"flows_per_sec\": " << strf("%.0f", s.flows_per_sec()) << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"aggregate_events_per_sec\": "
       << strf("%.0f", total_wall > 0 ? static_cast<double>(total_events) / total_wall : 0.0)
       << ",\n";
  json << "  \"sweep\": {\"seeds\": " << sweep_seeds << ", \"jobs\": " << sweep_jobs << ", "
       << "\"serial_wall_seconds\": " << strf("%.3f", serial_wall) << ", "
       << "\"parallel_wall_seconds\": " << strf("%.3f", parallel_wall) << ", "
       << "\"speedup\": " << strf("%.2f", sweep_speedup) << "}";

  const std::string baseline_path = cli.get("baseline");
  if (!baseline_path.empty()) {
    const std::string baseline = load_baseline(baseline_path);
    if (!baseline.empty()) json << ",\n  \"baseline\": " << baseline;
  }
  json << "\n}\n";

  std::cout << json.str();
  const std::string out_path = cli.get("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::cout << "(JSON written to " << out_path << ")\n";
  }
  const int obs_rc = obs.finish();
  if (obs_rc != 0) return obs_rc;
  if (sweep_speedup < 1.0) {
    std::cerr << "FAIL: sweep speedup " << strf("%.2f", sweep_speedup)
              << " < 1.0 — cross-repetition parallel regression\n";
    return 1;
  }
  return 0;
}
