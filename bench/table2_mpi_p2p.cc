// Reproduces Table 2: MPI test, process-to-process transfer bandwidth.
//
// Paper values:
//   PSM2, 1 pair,  optimal  8 MiB: 12.1 GiB/s
//   TCP,  1 pair,  optimal  2 MiB:  3.1 GiB/s
//   TCP,  2 pairs, optimal  1 MiB:  4.1 GiB/s
//   TCP,  4 pairs, optimal  2 MiB:  6.9 GiB/s
//   TCP,  8 pairs, optimal 16 MiB:  9.5 GiB/s
//   TCP, 16 pairs, optimal  2 MiB:  9.0 GiB/s
#include "bench_util.h"
#include "common/units.h"
#include "mpibench/mpibench.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::BenchObs obs(cli, "table2_mpi_p2p");

  struct Row {
    const char* provider;
    std::size_t pairs;
    double paper_bw;
    double paper_size_mib;
  };
  const Row rows[] = {
      {"psm2", 1, 12.1, 8}, {"tcp", 1, 3.1, 2},  {"tcp", 2, 4.1, 1},
      {"tcp", 4, 6.9, 2},   {"tcp", 8, 9.5, 16}, {"tcp", 16, 9.0, 2},
  };

  Table table({"fabric provider", "process pairs", "optimal transfer size (MiB)", "bandwidth (GiB/s)",
               "paper (GiB/s)"});
  for (const Row& row : rows) {
    const auto result =
        mpibench::sweep_transfer_sizes(net::provider_by_name(row.provider), row.pairs);
    table.add_row({row.provider, std::to_string(row.pairs),
                   strf("%.2f", static_cast<double>(result.best_size) / kMiB),
                   strf("%.1f", to_gib_per_sec(result.best_bandwidth)), strf("%.1f", row.paper_bw)});
  }
  bench::emit(table, "Table 2: MPI process-to-process transfer bandwidth", cli, obs);
  return obs.finish();
}
