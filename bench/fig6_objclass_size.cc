// Reproduces Fig. 6: object class (OC_S1 / OC_S2 / OC_SX) x object size
// (1 / 5 / 10 / 20 MiB), Field I/O full mode, HIGH contention, access
// pattern A, 2 server nodes + 4 client nodes, 100 ops per process.
//
// Paper observations to match (Section 6.3.2):
//   * growing Arrays from 1 to 5-10 MiB roughly DOUBLES bandwidth;
//   * beyond 10 MiB the bandwidth plateaus or drops slightly;
//   * striping across all targets (SX) is best for the write phase;
//     striping across two targets (S2) is best for the read phase;
//   * the configuration used everywhere else (1 MiB S1 arrays) is one of
//     the lowest-performing ones.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("reps", "2", "repetitions per configuration");
  cli.add_flag("ops", "30", "field I/O operations per process (paper: 100)");
  cli.add_flag("ppn", "48", "processes per client node");
  cli.add_flag("pattern", "A", "access pattern (A per the figure; B discussed in the text)");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig6_objclass_size");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const char pattern = cli.get("pattern") == "B" ? 'B' : 'A';

  std::vector<Bytes> sizes{1_MiB, 5_MiB, 10_MiB, 20_MiB};
  std::vector<daos::ObjectClass> classes{daos::ObjectClass::S1, daos::ObjectClass::S2,
                                         daos::ObjectClass::SX};
  if (quick) {
    sizes = {1_MiB, 10_MiB};
    classes = {daos::ObjectClass::S1, daos::ObjectClass::SX};
  }

  Table table({"object class", "object size (MiB)", "write (GiB/s)", "read (GiB/s)"});

  // One cell per (object class, object size), in row order.
  const std::size_t n_sizes = sizes.size();
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(classes.size() * n_sizes, reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const daos::ObjectClass oclass = classes[cell / n_sizes];
        const Bytes size = sizes[cell % n_sizes];
        bench::FieldBenchParams params;
        params.mode = fdb::Mode::full;
        params.shared_forecast_index = true;  // high contention, as in Fig. 4's full mode
        params.ops_per_process = quick ? 8 : static_cast<std::uint32_t>(cli.get_int("ops"));
        params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
        params.field_size = size;
        params.array_class = oclass;
        // The figure varies the class of *all* Field I/O objects.
        params.kv_class = oclass;
        const std::uint64_t cell_seed = seed + size / 1_MiB + static_cast<std::uint64_t>(oclass) * 97;
        return bench::run_field_once(bench::testbed_config(2, 4), params, pattern,
                                     bench::repetition_seed(cell_seed, rep));
      });

  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::string oclass = daos::object_class_name(classes[cell / n_sizes]);
    const std::string size_mib = std::to_string(sizes[cell % n_sizes] / 1_MiB);
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.write.empty() && summary.read.empty()) {
      table.add_row({oclass, size_mib, "failed", summary.failure});
      continue;
    }
    table.add_row({oclass, size_mib, strf("%.1f", summary.write.empty() ? 0.0 : summary.write.mean()),
                   strf("%.1f", summary.read.empty() ? 0.0 : summary.read.mean())});
  }

  std::cout << "paper: 1 -> 5/10 MiB roughly doubles bandwidth; plateau/slight drop at 20 MiB;\n"
               "       SX best for write, S2 best for read; 1 MiB S1 among the slowest\n";
  bench::emit(table, "Fig. 6: object class and size sweep (full mode, 2 servers + 4 clients)", cli, obs);
  return obs.finish();
}
