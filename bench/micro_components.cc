// Component micro-benchmarks (google-benchmark): engineering hygiene for
// the simulator's hot paths rather than a paper reproduction.
//
// Speaks the same artifact protocol as the reproduction benches: --trace and
// --report (obs_lint-clean nws-report-v1) alongside google-benchmark's own
// flags.  Wall-clock timings land in the report table; the trace carries a
// small simulated KV/array scenario, since spans exist only in simulated
// time.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/md5.h"
#include "common/rng.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "net/flow.h"
#include "net/provider.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace {

using namespace nws;

void BM_Md5_1KiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(md5(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Md5_1KiB);

void BM_Md5_FieldKey(benchmark::State& state) {
  // Typical most-significant key part, as hashed for container ids.
  const std::string key = "'class': 'od', 'stream': 'oper', 'expver': '0001', 'date': '20201224'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(md5(key));
  }
}
BENCHMARK(BM_Md5_FieldKey);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNext);

void BM_SchedulerEventLoop(benchmark::State& state) {
  // Cost of scheduling + dispatching one event.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler sched;
    constexpr int kEvents = 1000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sched.schedule_callback(i, [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SchedulerEventLoop);

void BM_CoroutineSpawnResume(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    constexpr int kProcs = 200;
    for (int i = 0; i < kProcs; ++i) {
      sched.spawn([](sim::Scheduler& s) -> sim::Task<void> {
        co_await s.delay(1);
        co_await s.delay(1);
      }(sched));
    }
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_CoroutineSpawnResume);

void BM_MaxMinSolver(benchmark::State& state) {
  // Full recompute cost with `flows` concurrent flows over a shared link
  // plus per-flow links (worst-case heterogeneous caps).
  const auto n_flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    net::FlowScheduler flows(sched);
    flows.set_lazy_recompute(std::numeric_limits<std::size_t>::max(), 1);
    net::Link shared;
    shared.name = "shared";
    shared.raw_capacity = 1e9;
    const net::LinkId link = flows.add_link(std::move(shared));
    for (std::size_t i = 0; i < n_flows; ++i) {
      sched.spawn([](net::FlowScheduler& fs, net::LinkId l, double cap) -> sim::Task<void> {
        std::vector<net::LinkId> path{l};
        co_await fs.transfer(std::move(path), 1000.0, cap);
      }(flows, link, 1e6 + static_cast<double>(i)));
    }
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MaxMinSolver)->Arg(16)->Arg(64)->Arg(256);

void BM_MaxMinSolverLinkBound(benchmark::State& state) {
  // Link-bound fill shaped like a Fig. 5 field-I/O point: uncapped flows
  // from 32 client NICs through 8 server NICs to 64 targets of uneven
  // service rate, so each solve saturates links over several rounds and no
  // flow cap ever binds.  Staggered sizes make every departure re-solve.
  const auto n_flows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kClients = 32;
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kTargets = 64;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::FlowScheduler flows(sched);
    flows.set_lazy_recompute(std::numeric_limits<std::size_t>::max(), 1);
    auto add = [&flows](const std::string& name, double capacity) {
      net::Link link;
      link.name = name;
      link.raw_capacity = capacity;
      return flows.add_link(std::move(link));
    };
    std::vector<net::LinkId> client_tx;
    std::vector<net::LinkId> server_rx;
    std::vector<net::LinkId> target_svc;
    for (std::size_t c = 0; c < kClients; ++c) client_tx.push_back(add("tx" + std::to_string(c), 12.5e9));
    for (std::size_t s = 0; s < kServers; ++s) server_rx.push_back(add("rx" + std::to_string(s), 25e9));
    for (std::size_t t = 0; t < kTargets; ++t) {
      target_svc.push_back(add("svc" + std::to_string(t), 2e9 * (1.0 + 0.1 * static_cast<double>(t % 5))));
    }
    for (std::size_t i = 0; i < n_flows; ++i) {
      const std::size_t target = (i * 13) % kTargets;
      std::vector<net::LinkId> path{client_tx[i % kClients], server_rx[target % kServers], target_svc[target]};
      sched.spawn([](net::FlowScheduler& fs, std::vector<net::LinkId> p, double bytes) -> sim::Task<void> {
        co_await fs.transfer(std::move(p), static_cast<Bytes>(bytes));
      }(flows, std::move(path), 1e6 + 1e4 * static_cast<double>(i)));
    }
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MaxMinSolverLinkBound)->Arg(64)->Arg(256);

void BM_PlacementLookup(benchmark::State& state) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto oid =
        daos::ObjectId::generate(1, i++, daos::ObjectType::array, daos::ObjectClass::S1);
    benchmark::DoNotOptimize(cluster.stripe_targets(oid));
  }
}
BENCHMARK(BM_PlacementLookup);

void BM_ShardForKey(benchmark::State& state) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  const auto oid = daos::ObjectId::generate(1, 2, daos::ObjectType::key_value, daos::ObjectClass::SX);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.shard_for_key(oid, "'step': '" + std::to_string(i++ % 100) + "'"));
  }
}
BENCHMARK(BM_ShardForKey);

void BM_KvPutGetSimulated(benchmark::State& state) {
  // End-to-end simulated cost of one KV put+get round trip (wall time of
  // the host, not simulated time): measures simulator overhead per op.
  for (auto _ : state) {
    sim::Scheduler sched;
    daos::ClusterConfig cfg;
    cfg.server_nodes = 1;
    cfg.client_nodes = 1;
    daos::Cluster cluster(sched, cfg);
    sched.spawn([](daos::Cluster& cl) -> sim::Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 0);
      daos::ContHandle cont = co_await client.main_cont_open();
      daos::KvHandle kv = co_await client.kv_open(
          cont, daos::ObjectId::generate(0, 1, daos::ObjectType::key_value, daos::ObjectClass::SX));
      for (int i = 0; i < 50; ++i) {
        (co_await client.kv_put(kv, "k" + std::to_string(i), "v")).expect_ok("put");
        (void)co_await client.kv_get(kv, "k" + std::to_string(i));
      }
    }(cluster));
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_KvPutGetSimulated);

/// Captures every finished run into the report table on its way to the
/// normal console output.
class TableReporter : public benchmark::ConsoleReporter {
 public:
  explicit TableReporter(Table& table) : table_(table) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      table_.add_row({run.benchmark_name(), std::to_string(run.iterations),
                      strf("%.1f", run.GetAdjustedRealTime()),
                      strf("%.1f", run.GetAdjustedCPUTime())});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  Table& table_;
};

/// A short simulated KV round-trip scenario so --trace has spans to record
/// (the google-benchmark loops above run in host time, which the trace
/// recorder cannot see) and --report carries simulator metrics.
void record_simulated_scenario(bench::BenchObs& obs) {
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  sched.spawn([](daos::Cluster& cl) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    daos::ContHandle cont = co_await client.main_cont_open();
    daos::KvHandle kv = co_await client.kv_open(
        cont, daos::ObjectId::generate(0, 1, daos::ObjectType::key_value, daos::ObjectClass::SX));
    for (int i = 0; i < 10; ++i) {
      (co_await client.kv_put(kv, "k" + std::to_string(i), "v")).expect_ok("put");
      (void)co_await client.kv_get(kv, "k" + std::to_string(i));
    }
  }(cluster));
  sched.run();
  obs::MetricsSnapshot metrics;
  metrics.counter("sim.events", static_cast<double>(sched.events_executed()));
  metrics.gauge("sim.time_seconds", sim::to_seconds(sched.now()));
  obs.merge_metrics(metrics);
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark's flag parser rejects flags it does not know, so the
  // artifact flags are split out of argv before Initialize sees it.
  std::vector<char*> bench_args{argv[0]};
  std::vector<char*> artifact_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool ours = arg.rfind("--trace", 0) == 0 || arg.rfind("--report", 0) == 0 ||
                      arg.rfind("--csv", 0) == 0;
    (ours ? artifact_args : bench_args).push_back(argv[i]);
  }
  Cli cli;
  cli.add_flag("trace", "", "write a Chrome trace_event JSON (simulated scenario spans)");
  cli.add_flag("report", "", "write a machine-readable run-report JSON (nws-report-v1)");
  cli.add_flag("csv", "", "also write the timing table to this CSV file");
  int artifact_argc = static_cast<int>(artifact_args.size());
  if (!cli.parse(artifact_argc, artifact_args.data())) return 0;
  bench::BenchObs obs(cli, "micro_components");

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) return 1;

  Table table({"benchmark", "iterations", "real ns/iter", "cpu ns/iter"});
  TableReporter reporter(table);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  record_simulated_scenario(obs);
  obs.add_table("Component micro-benchmarks (host wall clock)", table);
  const std::string csv = cli.get("csv");
  if (!csv.empty()) table.write_csv_file(csv);
  return obs.finish();
}
