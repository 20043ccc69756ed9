// Reproduces Table 1: Access pattern A, IOR segments mode, 1 server node.
//
// Paper methodology (6.2): segments=100 of 1 MiB (100 MiB objects), OC_S1,
// processes per client node in {24, 48, 72, 96}, 9 repetitions per process
// count, and the table reports the MAXIMUM synchronous bandwidth across the
// 36 runs for each engine/interface configuration:
//
//   1 engine (ib0), 1 client iface : 3.0w / 4.2r (1 node)   2.6w / 6.2r (2 nodes)
//   1 engine (ib0), 2 client ifaces: 3.0w / 7.4r            2.9w / 7.7r
//   2 engines,      2 client ifaces: 5.5w / 7.5r            5.5w / 9.5r
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("ppn", "24,48,72,96", "processes-per-node candidates");
  cli.add_flag("segments", "100", "IOR segment count (-s)");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "table1_ior_single_server");

  const bool quick = cli.get_bool("quick");
  std::vector<std::size_t> ppn_candidates = bench::size_list(cli, "ppn");
  if (quick) ppn_candidates = {24, 48};
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  struct Config {
    std::size_t engines;
    std::size_t client_ifaces;
    double paper_1c_w, paper_1c_r, paper_2c_w, paper_2c_r;
  };
  const Config configs[] = {
      {1, 1, 3.0, 4.2, 2.6, 6.2},
      {1, 2, 3.0, 7.4, 2.9, 7.7},
      {2, 2, 5.5, 7.5, 5.5, 9.5},
  };

  Table table({"engines per server node", "ifaces per client node", "1 client node (GiB/s)",
               "paper", "2 client nodes (GiB/s)", "paper"});

  // One cell per (configuration, client nodes); its repetitions cover the
  // whole (ppn, repetition) grid, since Table 1 reports the maximum across
  // all repetitions and process counts.
  const std::vector<bench::RepetitionSummary> cells = bench::run_grid(
      std::size(configs) * 2, ppn_candidates.size() * reps, jobs, [&](std::size_t cell, std::size_t r) {
        const Config& config = configs[cell / 2];
        const std::size_t ppn = ppn_candidates[r / reps];
        const std::size_t rep = r % reps;
        daos::ClusterConfig cfg = bench::testbed_config(1, cell % 2 + 1);
        cfg.engines_per_server = config.engines;
        cfg.client_sockets_in_use = config.client_ifaces;
        ior::IorParams params;
        params.segments = static_cast<std::uint32_t>(cli.get_int("segments"));
        params.processes_per_node = ppn;
        return bench::run_ior_once(cfg, params, seed + rep * 7919 + ppn);
      });

  for (std::size_t c = 0; c < std::size(configs); ++c) {
    std::string bw[2];
    for (std::size_t clients = 0; clients < 2; ++clients) {
      const bench::RepetitionSummary& summary = cells[2 * c + clients];
      obs.merge_metrics(summary.metrics);
      bw[clients] = summary.write.empty()
                        ? "0.0w / 0.0r"
                        : strf("%.1fw / %.1fr", summary.write.max(), summary.read.max());
    }
    const Config& config = configs[c];
    table.add_row({std::to_string(config.engines), std::to_string(config.client_ifaces), bw[0],
                   strf("%.1fw / %.1fr", config.paper_1c_w, config.paper_1c_r), bw[1],
                   strf("%.1fw / %.1fr", config.paper_2c_w, config.paper_2c_r)});
  }
  bench::emit(table, "Table 1: Access pattern A, IOR segments, 1 server node (max sync bandwidth)", cli, obs);
  return obs.finish();
}
