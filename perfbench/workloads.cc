#include "workloads.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "dfs/file_fdb.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace perfbench {

using namespace nws;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point& mark) {
  const Clock::time_point now = Clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

double gib_s(const bench::IoLog& log) {
  return log.empty() ? 0.0 : to_gib_per_sec(log.global_timing_bandwidth());
}

/// Simulated results every workload reports beside the layer counters.
void add_run_outcome(obs::MetricsSnapshot& m, const sim::Scheduler& sched,
                     const bench::IoLog& wlog, const bench::IoLog& rlog) {
  m.gauge("perfbench.write_gib_s", gib_s(wlog));
  m.gauge("perfbench.read_gib_s", gib_s(rlog));
  m.gauge("perfbench.makespan_seconds", sim::to_seconds(sched.now()));
}

// ---------------------------------------------------------------------------
// Field workloads: bench::FieldPatternRun on one cluster.

struct FieldWorkload {
  daos::ClusterConfig cfg;
  bench::FieldBenchParams params;
  char pattern = 'A';
};

FieldWorkload fieldio_scale_a(std::uint64_t seed) {
  // Fig. 5 point: full mode, low contention, pattern A at 8 servers.
  FieldWorkload w{bench::testbed_config(8, 16), {}, 'A'};
  w.cfg.faults.container_create_issue = true;  // as fig5 runs pattern A
  w.cfg.seed = seed;
  w.params.mode = fdb::Mode::full;
  w.params.ops_per_process = 30;
  w.params.processes_per_node = 32;
  w.params.field_size = 1_MiB;
  return w;
}

FieldWorkload index_contention_b(std::uint64_t seed) {
  // Fig. 4 shape: one shared forecast index KV, re-writes beside reads.
  FieldWorkload w{bench::testbed_config(4, 8), {}, 'B'};
  w.cfg.seed = seed;
  w.params.mode = fdb::Mode::full;
  w.params.shared_forecast_index = true;
  w.params.ops_per_process = 100;
  w.params.processes_per_node = 16;
  w.params.field_size = 1_MiB;
  return w;
}

FieldWorkload verified_chaos_a(std::uint64_t seed) {
  FieldWorkload w{bench::testbed_config(2, 4), {}, 'A'};
  w.cfg.seed = seed;
  w.cfg.payload_mode = daos::PayloadMode::full;
  w.cfg.fault_spec = fault::FaultSpec::default_chaos(mix64(seed ^ 0xfa017ull));
  w.params.mode = fdb::Mode::full;
  w.params.ops_per_process = 20;
  w.params.processes_per_node = 16;
  w.params.field_size = 1_MiB;
  // The harness compares every read byte-for-byte (memcmp) against the
  // regenerated payload and fails the run on a mismatch.
  w.params.verify_payload = true;
  return w;
}

std::uint64_t field_ops_attempted(const FieldWorkload& w) {
  const std::uint64_t nodes = w.cfg.client_nodes;
  const std::uint64_t ppn = w.params.processes_per_node;
  const std::uint64_t ops = w.params.ops_per_process;
  if (w.pattern == 'A') return 2 * nodes * ppn * ops;  // every process writes, then reads
  // Pattern B: half the nodes re-write, the other half read.
  return 2 * (nodes / 2) * ppn * ops;
}

RepResult run_field(const FieldWorkload& w) {
  RepResult r;
  Clock::time_point mark = Clock::now();
  auto sched = std::make_unique<sim::Scheduler>();
  auto clock = std::make_unique<obs::ScopedClock>(*sched);
  auto cluster = std::make_unique<daos::Cluster>(*sched, w.cfg);
  r.times.cluster_build = since(mark);
  auto run = std::make_unique<bench::FieldPatternRun>(*cluster, w.params, w.pattern);
  run->spawn();
  r.times.spawn = since(mark);
  try {
    sched->run();
  } catch (const std::exception& e) {
    r.correct = false;
    r.problems.push_back(std::string("run aborted: ") + e.what());
  }
  r.times.run = since(mark);
  const bench::FieldBenchResult res = run->collect();
  r.times.collect = since(mark);
  r.sim = bench::snapshot_run_metrics(*sched, cluster->flows().stats(), res.write_log,
                                      res.read_log, res.client_stats, &res.field_stats,
                                      cluster.get());
  add_run_outcome(r.sim, *sched, res.write_log, res.read_log);
  r.times.fold = since(mark);
  run.reset();
  cluster.reset();
  clock.reset();
  sched.reset();
  r.times.teardown = since(mark);

  r.attempted = field_ops_attempted(w);
  const std::uint64_t done = res.write_log.operations() + res.read_log.operations();
  r.failed = r.attempted - std::min(done, r.attempted);
  // Every field operation must end in success, after retries where the
  // fault plan forces them; a mismatch on read-back fails the harness too.
  if (res.failed) {
    r.correct = false;
    r.problems.push_back("operation failed after retries: " + res.failure);
  }
  const Bytes moved = res.write_log.total_bytes() + res.read_log.total_bytes();
  if (moved != done * w.params.field_size) {
    r.correct = false;
    r.problems.push_back("short transfer: logged bytes differ from operations x field size");
  }
  return r;
}

// ---------------------------------------------------------------------------
// posix_publish_meta: dfs::ForecastFiles over dfs::PosixFs.

constexpr std::size_t kMetaServers = 2;
constexpr std::size_t kMetaClientNodes = 4;
constexpr std::size_t kMetaPpn = 8;
constexpr std::uint32_t kMetaOps = 128;
constexpr Bytes kMetaFieldSize = 16000;
// Partial overwrite, unaligned on purpose so the POSIX adapter pays a
// page-aligned read-modify-write.
constexpr Bytes kPatchOffset = 100;
constexpr Bytes kPatchLen = 1000;

std::string meta_canonical(std::uint32_t rank, std::uint32_t op) {
  return "fc" + std::to_string(rank) + "/f" + std::to_string(op);
}

/// The bytes a reader must see: the published payload with the patch on top.
std::vector<std::uint8_t> meta_expected(const std::string& canonical) {
  auto payload = bench::make_field_payload(canonical, kMetaFieldSize);
  const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
  std::memcpy(payload.data() + kPatchOffset, patch.data(), patch.size());
  return payload;
}

struct MetaShared {
  dfs::DfsStats dfs_stats;
  dfs::PosixStats posix_stats;
  daos::ClientStats client_stats;
  std::uint64_t failed_ops = 0;
  std::uint64_t mount_failures = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> problems;

  void note(const std::string& why) {
    if (problems.size() < 8) problems.push_back(why);
  }
};

sim::Task<Status> publish_and_patch(dfs::PosixFs& pfs, dfs::ForecastFiles& files,
                                    const std::string& forecast, std::uint32_t op,
                                    const std::string& canonical) {
  const std::string field = "f" + std::to_string(op);
  const auto payload = bench::make_field_payload(canonical, kMetaFieldSize);
  Status st = co_await files.write_field(forecast, field, payload.data(), kMetaFieldSize);
  if (!st.is_ok()) co_return st;
  const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
  auto fd = co_await pfs.open(dfs::ForecastFiles::field_path(forecast, field));
  if (!fd.is_ok()) co_return fd.status();
  st = co_await pfs.pwrite(fd.value(), kPatchOffset, patch.data(), kPatchLen);
  const Status closed = co_await pfs.close(fd.value());
  if (!st.is_ok()) co_return st;
  if (!closed.is_ok()) co_return closed;
  if (op % 4 == 3) {
    auto names = co_await files.list_fields(forecast);
    if (!names.is_ok()) co_return names.status();
  }
  // Durable publish: the container commit is the fsync of this model.
  auto committed = co_await pfs.dfs().commit();
  co_return committed.status();
}

/// One process: mount (every process at once), publish each field of its own
/// forecast with patch and periodic listing, barrier, then read each field
/// back, compare it with the expected bytes, and unlink it.
sim::Task<void> meta_process(daos::Cluster& cluster, sim::Mutex& shared_meta, MetaShared& shared,
                             bench::IoLog& wlog, bench::IoLog& rlog, sim::Barrier& phase,
                             std::uint32_t node, std::uint32_t proc, std::uint32_t rank) {
  daos::Client client(cluster, cluster.client_endpoint(node, proc), 0x60000u + rank);
  const obs::Actor actor{node, rank};
  client.set_trace_actor(actor);
  dfs::Dfs fs(client, {}, rank + 1);
  dfs::PosixFs pfs(fs, {}, &shared_meta);
  dfs::ForecastFiles files(pfs);
  const std::string forecast = "fc" + std::to_string(rank);
  std::uint32_t written = 0;

  const Status mounted = co_await fs.mount("perfbench");
  if (!mounted.is_ok()) {
    // The process forfeits its whole campaign.
    ++shared.mount_failures;
    shared.note("mount failed: " + mounted.to_string());
  } else {
    for (; written < kMetaOps; ++written) {
      const std::uint32_t op = written;
      client.set_trace_iteration(op);
      obs::Span io_span("io", "io", actor, op, static_cast<double>(kMetaFieldSize));
      const sim::TimePoint t0 = cluster.scheduler().now();
      const Status st = co_await publish_and_patch(pfs, files, forecast, op,
                                                   meta_canonical(rank, op));
      if (!st.is_ok()) {
        shared.note("publish failed: " + st.to_string());
        break;
      }
      wlog.record(node, proc, op, t0, cluster.scheduler().now(), kMetaFieldSize);
    }
  }
  shared.failed_ops += kMetaOps - written;

  co_await phase.arrive_and_wait();

  std::uint32_t read = 0;
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(kMetaFieldSize));
  for (; read < written; ++read) {
    const std::uint32_t op = read;
    const std::string canonical = meta_canonical(rank, op);
    const std::string field = "f" + std::to_string(op);
    client.set_trace_iteration(op);
    obs::Span io_span("io", "io", actor, op, static_cast<double>(kMetaFieldSize));
    const sim::TimePoint t0 = cluster.scheduler().now();
    auto n = co_await files.read_field(forecast, field, buf.data(), kMetaFieldSize);
    if (!n.is_ok() || n.value() != kMetaFieldSize) {
      shared.note("read failed: " +
                  (n.is_ok() ? std::string("short read") : n.status().to_string()));
      break;
    }
    if (std::memcmp(buf.data(), meta_expected(canonical).data(), buf.size()) != 0) {
      ++shared.mismatches;
      shared.note("payload mismatch: " + canonical);
    }
    const Status removed = co_await files.remove_field(forecast, field);
    if (!removed.is_ok()) {
      shared.note("unlink failed: " + removed.to_string());
      break;
    }
    rlog.record(node, proc, op, t0, cluster.scheduler().now(), n.value());
  }
  shared.failed_ops += kMetaOps - read;

  shared.dfs_stats += fs.stats();
  shared.posix_stats += pfs.stats();
  shared.client_stats += client.stats();
}

RepResult run_posix_publish_meta(std::uint64_t seed) {
  daos::ClusterConfig cfg = bench::testbed_config(kMetaServers, kMetaClientNodes);
  cfg.payload_mode = daos::PayloadMode::full;  // reads are compared byte for byte
  cfg.seed = seed;

  RepResult r;
  Clock::time_point mark = Clock::now();
  auto sched = std::make_unique<sim::Scheduler>();
  auto clock = std::make_unique<obs::ScopedClock>(*sched);
  auto cluster = std::make_unique<daos::Cluster>(*sched, cfg);
  r.times.cluster_build = since(mark);
  auto shared = std::make_unique<MetaShared>();
  auto wlog = std::make_unique<bench::IoLog>();
  auto rlog = std::make_unique<bench::IoLog>();
  const std::size_t procs = kMetaClientNodes * kMetaPpn;
  auto phase = std::make_unique<sim::Barrier>(*sched, procs);
  auto shared_meta = std::make_unique<sim::Mutex>(*sched);  // one POSIX namespace lock
  for (std::uint32_t n = 0; n < kMetaClientNodes; ++n) {
    for (std::uint32_t p = 0; p < kMetaPpn; ++p) {
      sched->spawn(meta_process(*cluster, *shared_meta, *shared, *wlog, *rlog, *phase, n, p,
                                n * static_cast<std::uint32_t>(kMetaPpn) + p));
    }
  }
  r.times.spawn = since(mark);
  try {
    sched->run();
  } catch (const std::exception& e) {
    r.correct = false;
    r.problems.push_back(std::string("run aborted: ") + e.what());
  }
  r.times.run = since(mark);
  r.attempted = 2ull * procs * kMetaOps;
  r.failed = shared->failed_ops;
  r.problems.insert(r.problems.end(), shared->problems.begin(), shared->problems.end());
  if (shared->mismatches > 0) r.correct = false;
  r.times.collect = since(mark);
  r.sim = bench::snapshot_run_metrics(*sched, cluster->flows().stats(), *wlog, *rlog,
                                      shared->client_stats, nullptr, cluster.get());
  shared->dfs_stats.fold_into(r.sim);
  shared->posix_stats.fold_into(r.sim);
  r.sim.counter("dfs.mount_failures", static_cast<double>(shared->mount_failures));
  add_run_outcome(r.sim, *sched, *wlog, *rlog);
  r.times.fold = since(mark);
  shared_meta.reset();
  phase.reset();
  rlog.reset();
  wlog.reset();
  shared.reset();
  cluster.reset();
  clock.reset();
  sched.reset();
  r.times.teardown = since(mark);
  return r;
}

}  // namespace

RepResult run_rep(const std::string& workload, std::uint64_t seed) {
  if (workload == "fieldio_scale_a") return run_field(fieldio_scale_a(seed));
  if (workload == "index_contention_b") return run_field(index_contention_b(seed));
  if (workload == "verified_chaos_a") return run_field(verified_chaos_a(seed));
  if (workload == "posix_publish_meta") return run_posix_publish_meta(seed);
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace perfbench
