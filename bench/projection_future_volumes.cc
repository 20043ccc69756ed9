// Projection: the paper's future data volumes on larger DAOS clusters.
//
// Paper Section 1.3: each 1-hour time-critical window currently moves
// ~40 TiB of forecast output; resolution increases are expected to push
// that to ~180 TiB and eventually ~700 TiB per window.  Section 7
// concludes DAOS "has the potential to support the next generation of
// weather models" — this bench makes that claim quantitative by measuring
// the operational workload (field I/O, pattern B, no-containers — the
// best-performing configuration) on progressively larger simulated
// clusters and computing how long each window's volume would take.
//
// This extends the paper's evaluation (which stops at 12 server nodes) in
// the direction its future work names: "investigating DAOS performance
// with larger numbers of server nodes".
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("reps", "1", "repetitions per configuration");
  cli.add_flag("servers", "8,16,24,32", "server node counts (paper stops at 12)");
  cli.add_flag("ops", "8", "field ops per process per run");
  cli.add_flag("ppn", "32", "processes per client node");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "projection_future_volumes");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> servers = bench::size_list(cli, "servers");
  if (quick) servers = {8};

  // A window must absorb the volume as writes and serve it again as reads
  // (model output + product generation), within the hour.
  const double volumes_tib[] = {40.0, 180.0, 700.0};

  Table table({"server nodes", "write (GiB/s)", "read (GiB/s)", "40 TiB window", "180 TiB window",
               "700 TiB window"});

  // One cell per server node count.
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(servers.size(), reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const std::size_t s = servers[cell];
        bench::FieldBenchParams params;
        params.mode = fdb::Mode::no_containers;
        params.ops_per_process = static_cast<std::uint32_t>(cli.get_int("ops"));
        params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
        return bench::run_field_once(bench::testbed_config(s, 2 * s), params, 'B',
                                     bench::repetition_seed(seed + s, rep));
      });

  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::size_t s = servers[cell];
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.write.empty()) {
      table.add_row({std::to_string(s), "failed", summary.failure});
      continue;
    }
    const double w = summary.write.mean();
    const double r = summary.read.mean();

    std::vector<std::string> row{std::to_string(s), strf("%.1f", w), strf("%.1f", r)};
    for (const double volume : volumes_tib) {
      // The window is paced by the slower of the two directions.
      const double gib = volume * 1024.0;
      const double minutes = gib / std::min(w, r) / 60.0;
      row.push_back(strf("%.0f min%s", minutes, minutes <= 60.0 ? " (fits)" : ""));
    }
    table.add_row(std::move(row));
  }

  std::cout << "paper 1.3: windows move 40 TiB today, ~180 TiB soon, ~700 TiB later; the\n"
               "           1-hour operational window bounds sustained bandwidth demand\n";
  bench::emit(table, "Projection: time-critical window volumes on larger DAOS clusters", cli, obs);
  return obs.finish();
}
