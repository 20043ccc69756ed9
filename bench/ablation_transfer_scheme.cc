// Ablation: why the paper runs IOR in segments mode.
//
// Paper 5.1 configures IOR so that "each client process performs a single
// I/O operation, transferring its full data size ... in contrast to an
// equivalent, non-optimised application where processes issue a transfer
// operation ... for each data part.  Unless the storage is not optimised to
// handle large transfers or objects, this benchmark mode should give an
// idea of what is the maximum, ideal throughput the storage can deliver."
//
// This ablation measures both application designs on the same cluster: the
// single-shot scheme (the paper's choice) versus one transfer per 1 MiB
// data part.  The gap quantifies the per-operation overhead a non-optimised
// application pays.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("servers", "1", "server node counts");
  cli.add_flag("segments", "50", "data parts per process");
  cli.add_flag("ppn", "1,4,12,48", "processes-per-node sweep (low = latency-bound)");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "ablation_transfer_scheme");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> servers = bench::size_list(cli, "servers");
  if (quick) servers = {1};

  std::vector<std::size_t> ppns = bench::size_list(cli, "ppn");
  if (quick) ppns = {1, 12};

  Table table({"server nodes", "ppn", "scheme", "write (GiB/s)", "read (GiB/s)", "vs single-shot"});

  // One cell per (server nodes, ppn, scheme), in row order; both schemes of
  // a (server nodes, ppn) pair share its seeds.
  const std::size_t n_ppn = ppns.size();
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(servers.size() * n_ppn * 2, reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const std::size_t s = servers[cell / (2 * n_ppn)];
        const std::size_t ppn = ppns[cell / 2 % n_ppn];
        ior::IorParams params;
        params.segments = quick ? 10 : static_cast<std::uint32_t>(cli.get_int("segments"));
        params.processes_per_node = ppn;
        params.scheme = cell % 2 == 0 ? ior::TransferScheme::single_shot
                                      : ior::TransferScheme::per_segment;
        return bench::run_ior_once(bench::testbed_config(s, 2 * s), params,
                                   bench::repetition_seed(seed + s * 57 + ppn, rep));
      });

  double reference_write = 0.0;  // single-shot row of the current (server nodes, ppn)
  double reference_read = 0.0;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::string s = std::to_string(servers[cell / (2 * n_ppn)]);
    const std::string ppn = std::to_string(ppns[cell / 2 % n_ppn]);
    const bool is_reference = cell % 2 == 0;
    if (is_reference) reference_write = reference_read = 0.0;
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.write.empty()) {
      table.add_row({s, ppn, "failed", summary.failure});
      continue;
    }
    const double w = summary.write.mean();
    const double r = summary.read.mean();
    if (is_reference) {
      reference_write = w;
      reference_read = r;
    }
    table.add_row({s, ppn, is_reference ? "single-shot (paper)" : "per-segment (non-optimised)",
                   strf("%.1f", w), strf("%.1f", r),
                   is_reference ? "1.00"
                                : strf("%.2fw / %.2fr", w / reference_write, r / reference_read)});
  }

  std::cout << "paper 5.1: single-shot approximates the storage's ideal throughput; per-part\n"
               "           transfers pay per-operation overheads, visible while latency-bound\n"
               "           (low ppn) and amortised once the storage saturates (high ppn)\n";
  bench::emit(table, "Ablation: single-shot vs per-segment transfers (IOR, pattern A)", cli, obs);
  return obs.finish();
}
