// Reproduces Fig. 4: Field I/O benchmark, global timing bandwidth, HIGH
// contention (a single forecast index Key-Value shared by all processes),
// access patterns A and B, all three modes, 1-8 server nodes.
//
// Paper observations to match (Section 6.3.1):
//   * bandwidths are the same order of magnitude as IOR but generally lower;
//   * all modes keep scaling with server nodes even under high contention;
//   * "no index" scales best: ~2.5 GiB/s write, ~3.75 GiB/s read per engine
//     in pattern A (like IOR);
//   * indexed modes scale at ~3 GiB/s aggregated per engine until ~4 server
//     nodes, then bend to ~0.5 GiB/s aggregated per engine;
//   * pattern B's write+read aggregated bandwidth is comparable to pattern
//     A's (no degradation from mixing readers with writers);
//   * container use makes no substantial difference at high contention.
#include <algorithm>

#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("reps", "2", "repetitions per configuration");
  cli.add_flag("servers", "1,2,4,8", "server node counts");
  cli.add_flag("ops", "30", "field I/O operations per process (paper: 2000)");
  cli.add_flag("ppn", "32", "processes per client node");
  cli.add_flag("check-shapes", "false", "exit 1 unless the indexed modes bend past 4 server nodes");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig4_fieldio_high_contention");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto ops = static_cast<std::uint32_t>(cli.get_int("ops"));
  std::vector<std::size_t> servers = bench::size_list(cli, "servers");
  if (quick) servers = {1, 2};

  Table table({"pattern", "mode", "server nodes", "write (GiB/s)", "read (GiB/s)",
               "aggregated/engine"});

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
        params.shared_forecast_index = true;  // high contention
        params.ops_per_process = quick ? 10 : ops;
        params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
        // 2 client nodes per server: the best-performing ratio (Fig. 3).
        const std::uint64_t cell_seed = seed + s * 17 + static_cast<std::uint64_t>(mode);
        return bench::run_field_once(bench::testbed_config(s, 2 * s), params, pattern,
                                     bench::repetition_seed(cell_seed, rep));
      });

  std::vector<double> per_engine(cells.size(), 0.0);  // aggregated/engine; 0 if the cell failed
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const auto [pattern, mode, s] = grid[cell];
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.write.empty() && summary.read.empty()) {
      table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), "failed",
                     summary.failure});
      continue;
    }
    const double w = summary.write.empty() ? 0.0 : summary.write.mean();
    const double r = summary.read.empty() ? 0.0 : summary.read.mean();
    per_engine[cell] = (w + r) / static_cast<double>(2 * s);
    table.add_row({std::string(1, pattern), fdb::mode_name(mode), std::to_string(s), strf("%.1f", w),
                   strf("%.1f", r), strf("%.2f", per_engine[cell])});
  }

  std::cout << "paper: no-index ~2.5w/3.75r per engine; indexed modes bend past 4 server nodes;\n"
               "       pattern B aggregated ~= pattern A aggregated\n";
  bench::emit(table, "Fig. 4: Field I/O, high contention on the shared index KV", cli, obs);
  const int rc = obs.finish();
  if (!cli.get_bool("check-shapes")) return rc;

  // The shared index KV serialises the indexed modes: pattern A's aggregated
  // bandwidth per engine drops by at least a fifth from 4 server nodes to
  // the largest count, while no-index, which never touches it, holds within
  // a tenth.
  const std::size_t top = servers.empty() ? 0 : *std::max_element(servers.begin(), servers.end());
  if (top <= 4 || std::find(servers.begin(), servers.end(), 4) == servers.end()) {
    bench::check_shape(false, "the bend needs --servers with 4 and a count above 4");
    return 1;
  }
  const auto at = [&](fdb::Mode mode, std::size_t s) {
    const auto it = std::find(grid.begin(), grid.end(), std::make_tuple('A', mode, s));
    return per_engine[static_cast<std::size_t>(it - grid.begin())];
  };
  bool held = true;
  for (const fdb::Mode mode : {fdb::Mode::full, fdb::Mode::no_containers, fdb::Mode::no_index}) {
    const bool indexed = mode != fdb::Mode::no_index;
    const double before = at(mode, 4);
    const double after = at(mode, top);
    const bool ok =
        before > 0.0 && after > 0.0 && (indexed ? after <= 0.8 * before : after >= 0.9 * before);
    held = bench::check_shape(ok, strf("pattern A %s %s past 4 server nodes: %.2f -> %.2f "
                                       "aggregated/engine at %zu",
                                       fdb::mode_name(mode), indexed ? "bends (<= 0.8x)" : "holds (>= 0.9x)",
                                       before, after, top)) &&
           held;
  }
  return held ? rc : 1;
}
