// Reproduces Fig. 5: Field I/O benchmark, global timing bandwidth, LOW
// contention (each process owns its forecast index Key-Value), patterns A
// and B, up to 12 server nodes.
//
// Paper observations to match (Section 6.3.1):
//   * pattern A: "no containers" scales with "no index"; for write at large
//     node counts the indexed mode even wins;
//   * pattern A, full mode: runs FAILED beyond 8 server nodes (a DAOS issue
//     the paper reported upstream, Section 7) — reproduced via fault
//     injection (disable with --no-emulate-issues);
//   * pattern B: "no containers" stands out at ~2.75 GiB/s aggregated per
//     engine, reaching ~70 GiB/s with 12 server nodes; full and no-index
//     scale at ~1.6 GiB/s aggregated per engine;
//   * both patterns decline beyond ~10 server nodes.
#include <algorithm>

#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("reps", "2", "repetitions per configuration");
  cli.add_flag("servers", "1,2,4,8,10,12", "server node counts");
  cli.add_flag("ops", "30", "field I/O operations per process (paper: 2000)");
  cli.add_flag("ppn", "32", "processes per client node");
  cli.add_flag("emulate-issues", "true", "emulate the >8-server container creation issue");
  cli.add_flag("check-shapes", "false",
               "exit 1 unless full-mode A fails beyond 8 server nodes and no-containers B is ~2x full");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig5_fieldio_low_contention");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> servers = bench::size_list(cli, "servers");
  if (quick) servers = {1, 2};

  Table table({"pattern", "mode", "server nodes", "write (GiB/s)", "read (GiB/s)",
               "aggregated/engine", "note"});

  std::vector<std::tuple<char, fdb::Mode, std::size_t>> grid;  // (pattern, mode, servers) by row
  for (const char pattern : {'A', 'B'}) {
    for (const fdb::Mode mode : {fdb::Mode::full, fdb::Mode::no_containers, fdb::Mode::no_index}) {
      for (const std::size_t s : servers) grid.emplace_back(pattern, mode, s);
    }
  }
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(grid.size(), reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const auto [pattern, mode, s] = grid[cell];
        bench::FieldBenchParams params;
        params.mode = mode;
        params.shared_forecast_index = false;  // low contention
        params.ops_per_process = quick ? 10 : static_cast<std::uint32_t>(cli.get_int("ops"));
        params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
        daos::ClusterConfig cfg = bench::testbed_config(s, 2 * s);
        // The paper reports the failure for pattern A runs specifically.
        cfg.faults.container_create_issue = cli.get_bool("emulate-issues") && pattern == 'A';
        const std::uint64_t cell_seed = seed + s * 23 + static_cast<std::uint64_t>(mode);
        return bench::run_field_once(cfg, params, pattern, bench::repetition_seed(cell_seed, rep));
      });

  std::vector<double> per_engine(cells.size(), 0.0);  // aggregated/engine; 0 if the cell failed
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const auto [pattern, mode, s] = grid[cell];
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.write.empty() && summary.read.empty()) {
      table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), "-", "-", "-",
                     "FAILED: " + summary.failure});
      continue;
    }
    const double w = summary.write.empty() ? 0.0 : summary.write.mean();
    const double r = summary.read.empty() ? 0.0 : summary.read.mean();
    per_engine[cell] = (w + r) / static_cast<double>(2 * s);
    table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), strf("%.1f", w),
                   strf("%.1f", r), strf("%.2f", per_engine[cell]),
                   summary.any_failed ? "some repetitions failed" : ""});
  }

  std::cout << "paper: pattern B no-containers ~2.75 aggregated/engine (~70 GiB/s @ 12 servers);\n"
               "       full & no-index ~1.6; full mode pattern A fails > 8 servers\n";
  bench::emit(table, "Fig. 5: Field I/O, low contention (index KV per process)", cli, obs);
  const int rc = obs.finish();
  if (!cli.get_bool("check-shapes")) return rc;

  // Full-mode pattern A fails at every server count above 8 and at none up
  // to 8 (the emulated container issue), and pattern B's no-containers
  // aggregated bandwidth per engine is 1.6-2.4x full mode's at every count.
  const bool below = std::any_of(servers.begin(), servers.end(), [](std::size_t s) { return s <= 8; });
  const bool above = std::any_of(servers.begin(), servers.end(), [](std::size_t s) { return s > 8; });
  if (!below || !above) {
    bench::check_shape(false, "the failure edge needs --servers with counts up to 8 and above 8");
    return 1;
  }
  const auto at = [&](char pattern, fdb::Mode mode, std::size_t s) {
    const auto it = std::find(grid.begin(), grid.end(), std::make_tuple(pattern, mode, s));
    return static_cast<std::size_t>(it - grid.begin());
  };
  bool held = true;
  for (const std::size_t s : servers) {
    const bench::RepetitionSummary& full_a = cells[at('A', fdb::Mode::full, s)];
    const bool all_failed = full_a.write.empty() && full_a.read.empty();
    held = bench::check_shape(s > 8 ? all_failed : !full_a.any_failed,
                              strf("pattern A full mode %s at %zu server nodes", s > 8 ? "fails" : "runs",
                                   s)) &&
           held;
    const double full_b = per_engine[at('B', fdb::Mode::full, s)];
    const double ratio = full_b > 0.0 ? per_engine[at('B', fdb::Mode::no_containers, s)] / full_b : 0.0;
    held = bench::check_shape(ratio >= 1.6 && ratio <= 2.4,
                              strf("pattern B no-containers is %.2fx full mode at %zu server nodes "
                                   "(1.6-2.4x)",
                                   ratio, s)) &&
           held;
  }
  return held ? rc : 1;
}
