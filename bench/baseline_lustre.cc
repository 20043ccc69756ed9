// Baseline: the Lustre storage system DAOS is evaluated against.
//
// Regenerates the paper's Section 1.2 context figures for the operational
// Lustre system (~300 OSTs x 10 spinning disks):
//
//   * file-per-process IOR bandwidth "of up to 165 GiB/s";
//   * "sustained application bandwidth in the order of 50 GiB/s during a
//     typical model and product generation execution" (mixed read/write);
//
// plus two comparisons the paper motivates but does not tabulate:
//
//   * shared-file writes collapsing on POSIX locking (the "excessive
//     consistency assurance" of Section 1.1);
//   * the DAOS field-I/O configuration that matches the Lustre sustained
//     figure (Section 7's "small DAOS system ... could perform as well as
//     the HPC storage currently used").
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "obs/io_log.h"
#include "lustre/lustre.h"
#include "sim/sync.h"

using namespace nws;

namespace {

struct LustreRun {
  double write_bw = 0.0;  // GiB/s, global timing
  double read_bw = 0.0;
};

/// File-per-process streaming: every process writes (then reads) its own
/// file in one large transfer, IOR-style.
LustreRun run_lustre_ior(const lustre::LustreConfig& cfg, std::size_t procs_per_node,
                         Bytes file_size, bool read_phase_too) {
  sim::Scheduler sched;
  lustre::LustreSystem system(sched, cfg);
  bench::IoLog write_log;
  bench::IoLog read_log;
  const std::size_t procs = cfg.client_nodes * procs_per_node;

  {
    sim::Barrier start(sched, procs);
    auto writer = [](lustre::LustreSystem& sys, sim::Barrier& barrier, bench::IoLog& log,
                     std::uint32_t node, std::uint32_t proc, Bytes bytes) -> sim::Task<void> {
      lustre::LustreClient client(sys, sys.client_endpoint(node, proc),
                                  (static_cast<std::uint64_t>(node) << 20) | proc);
      co_await barrier.arrive_and_wait();
      const sim::TimePoint t0 = sys.scheduler().now();
      auto file = (co_await client.create(strf("/ior/%u.%u", node, proc))).value();
      (co_await client.write(file, 0, bytes)).expect_ok("write");
      co_await client.close(file);
      log.record(node, proc, 0, t0, sys.scheduler().now(), bytes);
    };
    for (std::uint32_t n = 0; n < cfg.client_nodes; ++n) {
      for (std::uint32_t p = 0; p < procs_per_node; ++p) {
        sched.spawn(writer(system, start, write_log, n, p, file_size));
      }
    }
    sched.run();
  }
  if (read_phase_too) {
    sim::Barrier start(sched, procs);
    auto reader = [](lustre::LustreSystem& sys, sim::Barrier& barrier, bench::IoLog& log,
                     std::uint32_t node, std::uint32_t proc, Bytes bytes) -> sim::Task<void> {
      lustre::LustreClient client(sys, sys.client_endpoint(node, proc),
                                  0x800000u | (static_cast<std::uint64_t>(node) << 20) | proc);
      co_await barrier.arrive_and_wait();
      const sim::TimePoint t0 = sys.scheduler().now();
      auto file = (co_await client.open(strf("/ior/%u.%u", node, proc))).value();
      const Bytes n = (co_await client.read(file, 0, bytes)).value();
      co_await client.close(file);
      log.record(node, proc, 0, t0, sys.scheduler().now(), n);
    };
    for (std::uint32_t n = 0; n < cfg.client_nodes; ++n) {
      for (std::uint32_t p = 0; p < procs_per_node; ++p) {
        sched.spawn(reader(system, start, read_log, n, p, file_size));
      }
    }
    sched.run();
  }

  LustreRun out;
  out.write_bw = to_gib_per_sec(write_log.global_timing_bandwidth());
  if (!read_log.empty()) out.read_bw = to_gib_per_sec(read_log.global_timing_bandwidth());
  return out;
}

/// Sustained operational mix: half the processes stream model output into
/// their files while the other half re-reads product input from the same
/// files, continuously.
LustreRun run_lustre_mixed(const lustre::LustreConfig& cfg, std::size_t procs_per_node,
                           std::uint32_t ops, Bytes op_size) {
  sim::Scheduler sched;
  lustre::LustreSystem system(sched, cfg);
  bench::IoLog write_log;
  bench::IoLog read_log;
  const std::size_t pairs = cfg.client_nodes * procs_per_node / 2;
  auto setup_done = std::make_shared<sim::CountDownLatch>(sched, pairs);

  auto writer = [](lustre::LustreSystem& sys, sim::CountDownLatch& latch, bench::IoLog& log,
                   std::uint32_t pair, std::uint32_t ops_n, Bytes bytes) -> sim::Task<void> {
    lustre::LustreClient client(sys, sys.client_endpoint(pair % sys.config().client_nodes, pair),
                                pair);
    auto file = (co_await client.create(strf("/mix/%u", pair))).value();
    (co_await client.write(file, 0, bytes)).expect_ok("setup");
    latch.count_down();
    for (std::uint32_t i = 0; i < ops_n; ++i) {
      const sim::TimePoint t0 = sys.scheduler().now();
      (co_await client.write(file, 0, bytes)).expect_ok("rewrite");
      log.record(0, pair, i, t0, sys.scheduler().now(), bytes);
    }
  };
  auto reader = [](lustre::LustreSystem& sys, sim::CountDownLatch& latch, bench::IoLog& log,
                   std::uint32_t pair, std::uint32_t ops_n, Bytes bytes) -> sim::Task<void> {
    lustre::LustreClient client(sys, sys.client_endpoint(pair % sys.config().client_nodes, pair + 1),
                                0x900000u + pair);
    co_await latch.wait();
    auto file = (co_await client.open(strf("/mix/%u", pair))).value();
    for (std::uint32_t i = 0; i < ops_n; ++i) {
      const sim::TimePoint t0 = sys.scheduler().now();
      const Bytes n = (co_await client.read(file, 0, bytes)).value();
      log.record(1, pair, i, t0, sys.scheduler().now(), n);
    }
  };
  for (std::uint32_t pair = 0; pair < pairs; ++pair) {
    sched.spawn(writer(system, *setup_done, write_log, pair, ops, op_size));
    sched.spawn(reader(system, *setup_done, read_log, pair, ops, op_size));
  }
  sched.run();

  LustreRun out;
  out.write_bw = to_gib_per_sec(write_log.global_timing_bandwidth());
  out.read_bw = to_gib_per_sec(read_log.global_timing_bandwidth());
  return out;
}

/// All processes append into ONE shared file: POSIX locking serialises.
double run_lustre_shared_file(const lustre::LustreConfig& cfg, std::size_t procs_per_node,
                              Bytes op_size) {
  sim::Scheduler sched;
  lustre::LustreSystem system(sched, cfg);
  bench::IoLog log;
  const std::size_t procs = cfg.client_nodes * procs_per_node;
  auto created = std::make_shared<sim::CountDownLatch>(sched, 1);

  auto writer = [](lustre::LustreSystem& sys, sim::CountDownLatch& latch, bench::IoLog& io_log,
                   std::uint32_t rank, Bytes bytes) -> sim::Task<void> {
    lustre::LustreClient client(sys, sys.client_endpoint(rank % sys.config().client_nodes, rank),
                                rank);
    lustre::FileHandle file;
    if (rank == 0) {
      file = (co_await client.create("/shared", 32, 1_MiB)).value();
      latch.count_down();
    } else {
      co_await latch.wait();
      file = (co_await client.open("/shared")).value();
    }
    const sim::TimePoint t0 = sys.scheduler().now();
    (co_await client.write(file, static_cast<Bytes>(rank) * bytes, bytes)).expect_ok("write");
    io_log.record(0, rank, 0, t0, sys.scheduler().now(), bytes);
  };
  for (std::uint32_t r = 0; r < procs; ++r) sched.spawn(writer(system, *created, log, r, op_size));
  sched.run();
  return to_gib_per_sec(log.global_timing_bandwidth());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("osts", "300", "Lustre OST count");
  cli.add_flag("clients", "15", "Lustre client nodes");
  cli.add_flag("ppn", "40", "processes per client node");
  if (!cli.parse(argc, argv)) return 0;
  bench::BenchObs obs(cli, "baseline_lustre");

  const bool quick = cli.get_bool("quick");
  lustre::LustreConfig cfg;
  cfg.osts = static_cast<std::size_t>(cli.get_int("osts"));
  cfg.client_nodes = static_cast<std::size_t>(cli.get_int("clients"));
  if (quick) {
    cfg.osts = 30;
    cfg.client_nodes = 4;
  }
  const auto ppn = static_cast<std::size_t>(cli.get_int("ppn"));

  Table table({"workload", "write (GiB/s)", "read (GiB/s)", "paper context"});

  const LustreRun ior = run_lustre_ior(cfg, ppn, quick ? 64_MiB : 256_MiB, true);
  table.add_row({"IOR file-per-process (streaming)", strf("%.0f", ior.write_bw),
                 strf("%.0f", ior.read_bw), "up to 165 GiB/s"});

  const LustreRun mixed = run_lustre_mixed(cfg, ppn, quick ? 4 : 8, 16_MiB);
  table.add_row({"model output + product generation (mixed)", strf("%.0f", mixed.write_bw),
                 strf("%.0f", mixed.read_bw),
                 strf("~50 GiB/s sustained (sum: %.0f)", mixed.write_bw + mixed.read_bw)});

  const double shared = run_lustre_shared_file(cfg, ppn, 16_MiB);
  table.add_row({"single shared file (POSIX locking)", strf("%.1f", shared), "-",
                 "consistency limits scalability (1.1)"});

  // The DAOS configuration that covers the Lustre sustained figure.
  bench::FieldBenchParams params;
  params.mode = fdb::Mode::no_containers;
  params.ops_per_process = quick ? 8 : 20;
  params.processes_per_node = 32;
  const std::size_t daos_servers = quick ? 2 : 8;
  const bench::RunOutcome daos =
      bench::run_field_once(bench::testbed_config(daos_servers, 2 * daos_servers), params, 'B', 7);
  if (!daos.failed) {
    obs.merge_metrics(daos.metrics);
    table.add_row({strf("DAOS field I/O, %zu server nodes (pattern B)", daos_servers),
                   strf("%.0f", daos.write_bw), strf("%.0f", daos.read_bw),
                   strf("aggregated %.0f GiB/s on %zu nodes", daos.write_bw + daos.read_bw,
                        daos_servers)});
  }

  std::cout << "paper 1.2: Lustre ~300 OSTs: 165 GiB/s IOR, ~50 GiB/s sustained mixed;\n"
               "paper 7  : a small DAOS/SCM system matches the operational Lustre bandwidth\n";
  bench::emit(table, "Baseline: operational Lustre system vs DAOS", cli, obs);
  return obs.finish();
}
