// Reproduces Fig. 7: IOR segments benchmark, 4 DAOS server nodes, 1-16
// client nodes, comparing the OFI TCP and PSM2 fabric providers.
//
// PSM2 could not run dual-engine / dual-rail deployments (paper 6.1.1), so
// both providers run single-engine servers and single-socket clients here,
// exactly as in the paper's comparison (Section 6.4).
//
// Paper observations to match:
//   * PSM2 delivers 10-25% higher bandwidth than TCP;
//   * PSM2 reaches high bandwidth at lower client-node counts;
//   * both providers follow the same general scaling shape.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("clients", "1,2,4,8,16", "client node counts");
  cli.add_flag("ppn", "4,8,12,24", "processes-per-node candidates (paper set)");
  cli.add_flag("segments", "100", "IOR segment count (-s)");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig7_tcp_vs_psm2");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> clients = bench::size_list(cli, "clients");
  std::vector<std::size_t> ppn_candidates = bench::size_list(cli, "ppn");
  if (quick) {
    clients = {2, 8};
    ppn_candidates = {8, 24};
  }

  Table table({"client nodes", "tcp write", "tcp read", "psm2 write", "psm2 read", "psm2/tcp write",
               "psm2/tcp read"});

  // One cell per (client nodes, provider, ppn candidate); each (client
  // nodes, provider) pair reports its best candidate.
  const char* providers[] = {"tcp", "psm2"};
  const std::size_t n_ppn = ppn_candidates.size();
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(clients.size() * 2 * n_ppn, reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const std::size_t c = clients[cell / (2 * n_ppn)];
        const std::size_t p = cell / n_ppn % 2;
        const std::size_t ppn = ppn_candidates[cell % n_ppn];
        daos::ClusterConfig cfg = bench::testbed_config(4, c, providers[p]);
        // Both providers run the restricted deployment PSM2 permits (single
        // engine per server, one client socket), as the paper's comparison
        // does (Section 6.4).
        cfg.engines_per_server = 1;
        cfg.client_sockets_in_use = 1;
        ior::IorParams params;
        params.segments = static_cast<std::uint32_t>(cli.get_int("segments"));
        params.processes_per_node = ppn;
        const std::uint64_t candidate_seed = (seed + c * 29 + p) ^ (0x51ed2700ull * ppn);
        return bench::run_ior_once(cfg, params, bench::repetition_seed(candidate_seed, rep));
      });

  for (std::size_t row = 0; row < clients.size(); ++row) {
    double bw[2][2] = {{0, 0}, {0, 0}};  // [provider][write/read]
    for (std::size_t p = 0; p < 2; ++p) {
      const auto candidates = std::span(cells).subspan((2 * row + p) * n_ppn, n_ppn);
      const std::optional<std::size_t> best = bench::best_cell(candidates);
      if (!best) continue;
      const bench::RepetitionSummary& summary = candidates[*best];
      obs.merge_metrics(summary.metrics);
      if (!summary.write.empty()) {
        bw[p][0] = summary.write.mean();
        bw[p][1] = summary.read.mean();
      }
    }
    table.add_row({std::to_string(clients[row]), strf("%.1f", bw[0][0]), strf("%.1f", bw[0][1]),
                   strf("%.1f", bw[1][0]), strf("%.1f", bw[1][1]),
                   bw[0][0] > 0 ? strf("%.2f", bw[1][0] / bw[0][0]) : "-",
                   bw[0][1] > 0 ? strf("%.2f", bw[1][1] / bw[0][1]) : "-"});
  }

  std::cout << "paper: PSM2 10-25% above TCP with the same scaling shape\n";
  bench::emit(table, "Fig. 7: IOR, 4 single-engine servers, TCP vs PSM2", cli, obs);
  return obs.finish();
}
