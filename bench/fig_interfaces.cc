// Multi-interface access-layer comparison (paper Section 2.2; "Exploring
// DAOS Interfaces", arXiv 2311.18714): the same field write/read campaign
// through four backends,
//
//   native  — fdb FieldIo over KV + Array: the index Key-Value put IS the
//             publish, no namespace to maintain;
//   dfs     — the nws::dfs file-per-field mapping (create temporary, write,
//             rename to publish) over the same DAOS objects;
//   posix   — the dfs campaign through the POSIX-emulation adapter: every
//             metadata operation serialises on one shared lock and
//             unaligned writes pay page-aligned read-modify-write;
//   lustre  — the src/lustre parallel-file-system baseline with the same
//             file-per-field layout.
//
// Two scenarios per backend: `stream` (large fields, bandwidth-bound) and
// `meta` (small fields plus a partial unaligned overwrite, periodic
// directory listings and unlink cleanup — metadata-op-rate-bound).  Every
// payload read back is MD5-verified against the regenerated expected bytes,
// patch included.  The bench asserts the paper's interface ordering on the
// metadata-heavy scenario: native >= dfs >= posix fields/s.
#include <cstring>

#include "bench_util.h"
#include "common/md5.h"
#include "dfs/file_fdb.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"
#include "lustre/lustre.h"
#include "obs/io_log.h"
#include "sim/sync.h"

using namespace nws;

namespace {

// The metadata-heavy scenario's partial overwrite: unaligned on purpose, so
// the POSIX adapter pays read-modify-write where dfs writes through.
constexpr Bytes kPatchOffset = 100;
constexpr Bytes kPatchLen = 1000;

struct Campaign {
  std::size_t servers = 2;
  std::size_t client_nodes = 2;
  std::size_t ppn = 4;
  std::uint32_t ops = 6;
  Bytes field_size = 1_MiB;
  bool meta = false;  // patch writes + readdirs + unlinks
};

std::string field_name(std::uint32_t op) { return std::to_string(op).insert(0, 1, 'f'); }

std::string field_canonical(std::uint32_t rank, std::uint32_t op) {
  return "fc" + std::to_string(rank) + "/" + field_name(op);
}

/// The bytes a verifying reader must see: the deterministic payload, with
/// the meta scenario's patch applied on top.
std::vector<std::uint8_t> expected_bytes(const std::string& canonical, Bytes size, bool meta) {
  auto payload = bench::make_field_payload(canonical, size);
  if (meta) {
    const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
    std::memcpy(payload.data() + kPatchOffset, patch.data(), patch.size());
  }
  return payload;
}

bool md5_matches(const std::uint8_t* got, Bytes n, const std::string& canonical, bool meta) {
  const auto expected = expected_bytes(canonical, n, meta);
  const auto view = [](const std::uint8_t* p, Bytes len) {
    return std::string_view(reinterpret_cast<const char*>(p), static_cast<std::size_t>(len));
  };
  return md5(view(got, n)).hex() == md5(view(expected.data(), n)).hex();
}

struct FsShared {
  dfs::DfsStats dfs_stats;
  dfs::PosixStats posix_stats;
  daos::ClientStats client_stats;
  bool failed = false;
  std::string failure;
  void fail(const std::string& why) {
    if (!failed) {
      failed = true;
      failure = why;
    }
  }
};

/// One process of the dfs / posix campaign: write (and in the meta scenario
/// patch, list) every field of its own forecast, barrier, read each back
/// MD5-verified (and unlink in the meta scenario).
sim::Task<void> fs_process(daos::Cluster& cluster, Campaign camp, bool posix_mode,
                           sim::Mutex& shared_meta, FsShared& shared, bench::IoLog& wlog,
                           bench::IoLog& rlog, sim::Barrier& phase, std::uint32_t node,
                           std::uint32_t proc, std::uint32_t rank) {
  daos::Client client(cluster, cluster.client_endpoint(node, proc), 0x60000u + rank);
  const obs::Actor actor{node, rank};
  client.set_trace_actor(actor);
  dfs::Dfs fs(client, {}, rank + 1);
  dfs::PosixFs pfs(fs, {}, &shared_meta);
  dfs::ForecastFiles files = posix_mode ? dfs::ForecastFiles(pfs) : dfs::ForecastFiles(fs);
  struct Flush {
    FsShared& s;
    dfs::Dfs& d;
    dfs::PosixFs& p;
    daos::Client& c;
    ~Flush() {
      s.dfs_stats += d.stats();
      s.posix_stats += p.stats();
      s.client_stats += c.stats();
    }
  } flush{shared, fs, pfs, client};

  const Status mounted = co_await fs.mount("interfaces");
  if (!mounted.is_ok()) shared.fail("dfs mount failed: " + mounted.to_string());
  const std::string forecast = "fc" + std::to_string(rank);

  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    const auto payload = bench::make_field_payload(canonical, camp.field_size);
    client.set_trace_iteration(op);
    obs::Span io_span("io", "io", actor, op, static_cast<double>(camp.field_size));
    const sim::TimePoint t0 = cluster.scheduler().now();
    Status st = co_await files.write_field(forecast, field_name(op), payload.data(),
                                           camp.field_size);
    if (st.is_ok() && camp.meta) {
      // Partial unaligned overwrite of the published file.
      const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
      const std::string path = dfs::ForecastFiles::field_path(forecast, field_name(op));
      if (posix_mode) {
        auto fd = co_await pfs.open(path);
        if (fd.is_ok()) {
          st = co_await pfs.pwrite(fd.value(), kPatchOffset, patch.data(), kPatchLen);
          const Status closed = co_await pfs.close(fd.value());
          if (st.is_ok()) st = closed;
        } else {
          st = fd.status();
        }
      } else {
        auto file = co_await fs.open(path);
        if (file.is_ok()) {
          st = co_await fs.write(file.value(), kPatchOffset, patch.data(), kPatchLen);
          co_await fs.close(file.value());
        } else {
          st = file.status();
        }
      }
      if (st.is_ok() && op % 4 == 3) {
        auto names = co_await files.list_fields(forecast);
        if (!names.is_ok()) st = names.status();
      }
    }
    // Durable publish: the native path commits per op, so the file paths pay
    // the same container commit (the fsync of this world) inside the timed
    // window.
    if (st.is_ok()) {
      const auto committed = co_await fs.commit();
      if (!committed.is_ok()) st = committed.status();
    }
    if (!st.is_ok()) {
      shared.fail("write failed: " + st.to_string());
      break;
    }
    wlog.record(node, proc, op, t0, cluster.scheduler().now(), camp.field_size);
  }

  co_await phase.arrive_and_wait();

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(camp.field_size));
  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    client.set_trace_iteration(op);
    obs::Span io_span("io", "io", actor, op, static_cast<double>(camp.field_size));
    const sim::TimePoint t0 = cluster.scheduler().now();
    auto n = co_await files.read_field(forecast, field_name(op), buf.data(), camp.field_size);
    if (!n.is_ok() || n.value() != camp.field_size) {
      shared.fail("read failed: " +
                  (n.is_ok() ? std::string("short read") : n.status().to_string()));
      break;
    }
    if (!md5_matches(buf.data(), n.value(), canonical, camp.meta)) {
      shared.fail("payload MD5 mismatch: " + canonical);
      break;
    }
    if (camp.meta) {
      const Status removed = co_await files.remove_field(forecast, field_name(op));
      if (!removed.is_ok()) {
        shared.fail("unlink failed: " + removed.to_string());
        break;
      }
    }
    rlog.record(node, proc, op, t0, cluster.scheduler().now(), n.value());
  }
}

bench::RunOutcome run_fs_once(const Campaign& camp, bool posix_mode, std::uint64_t seed) {
  daos::ClusterConfig cfg = bench::testbed_config(camp.servers, camp.client_nodes);
  cfg.payload_mode = daos::PayloadMode::full;  // MD5 verification needs bytes
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  FsShared shared;
  bench::IoLog wlog;
  bench::IoLog rlog;
  const std::size_t procs = camp.client_nodes * camp.ppn;
  sim::Barrier phase(sched, procs);
  sim::Mutex shared_meta(sched);  // the POSIX adapter's cross-process lock
  for (std::uint32_t n = 0; n < camp.client_nodes; ++n) {
    for (std::uint32_t p = 0; p < camp.ppn; ++p) {
      sched.spawn(fs_process(cluster, camp, posix_mode, shared_meta, shared, wlog, rlog, phase, n,
                             p, n * static_cast<std::uint32_t>(camp.ppn) + p));
    }
  }
  sched.run();

  bench::RunOutcome out;
  out.failed = shared.failed;
  out.failure = shared.failure;
  if (!shared.failed) {
    out.write_bw = wlog.empty() ? 0.0 : to_gib_per_sec(wlog.global_timing_bandwidth());
    out.read_bw = rlog.empty() ? 0.0 : to_gib_per_sec(rlog.global_timing_bandwidth());
    out.metrics = bench::snapshot_run_metrics(sched, cluster.flows().stats(), wlog, rlog,
                                              shared.client_stats, nullptr, &cluster);
    shared.dfs_stats.fold_into(out.metrics);
    if (posix_mode) shared.posix_stats.fold_into(out.metrics);
  }
  return out;
}

struct LustreShared {
  bool failed = false;
  std::string failure;
  void fail(const std::string& why) {
    if (!failed) {
      failed = true;
      failure = why;
    }
  }
};

sim::Task<void> lustre_process(lustre::LustreSystem& system, Campaign camp, LustreShared& shared,
                               bench::IoLog& wlog, bench::IoLog& rlog, sim::Barrier& phase,
                               std::uint32_t node, std::uint32_t proc, std::uint32_t rank) {
  lustre::LustreClient client(system, system.client_endpoint(node, proc), 0x70000u + rank);
  const std::string forecast = "fc" + std::to_string(rank);
  const std::string dir = "/fdb/" + md5(forecast).hex();

  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    const auto payload = bench::make_field_payload(canonical, camp.field_size);
    const std::string final_path = dfs::ForecastFiles::field_path(forecast, field_name(op));
    const std::string tmp_path = final_path + ".tmp";
    const sim::TimePoint t0 = system.scheduler().now();
    Status st = Status::ok();
    auto file = co_await client.create(tmp_path);
    if (!file.is_ok()) st = file.status();
    if (st.is_ok()) st = co_await client.write(file.value(), 0, payload.data(), camp.field_size);
    if (file.is_ok()) co_await client.close(file.value());
    if (st.is_ok()) st = co_await client.rename(tmp_path, final_path);
    if (st.is_ok() && camp.meta) {
      const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
      auto patched = co_await client.open(final_path);
      if (patched.is_ok()) {
        st = co_await client.write(patched.value(), kPatchOffset, patch.data(), kPatchLen);
        co_await client.close(patched.value());
      } else {
        st = patched.status();
      }
      if (st.is_ok() && op % 4 == 3) {
        auto names = co_await client.list(dir);
        if (!names.is_ok()) st = names.status();
      }
    }
    if (!st.is_ok()) {
      shared.fail("lustre write failed: " + st.to_string());
      break;
    }
    wlog.record(node, proc, op, t0, system.scheduler().now(), camp.field_size);
  }

  co_await phase.arrive_and_wait();

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(camp.field_size));
  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    const std::string final_path = dfs::ForecastFiles::field_path(forecast, field_name(op));
    const sim::TimePoint t0 = system.scheduler().now();
    auto file = co_await client.open(final_path);
    if (!file.is_ok()) {
      shared.fail("lustre open failed: " + file.status().to_string());
      break;
    }
    auto n = co_await client.read(file.value(), 0, buf.data(), camp.field_size);
    co_await client.close(file.value());
    if (!n.is_ok() || n.value() != camp.field_size) {
      shared.fail("lustre read failed: " +
                  (n.is_ok() ? std::string("short read") : n.status().to_string()));
      break;
    }
    if (!md5_matches(buf.data(), n.value(), canonical, camp.meta)) {
      shared.fail("lustre payload MD5 mismatch: " + canonical);
      break;
    }
    if (camp.meta) {
      const Status removed = co_await client.unlink(final_path);
      if (!removed.is_ok()) {
        shared.fail("lustre unlink failed: " + removed.to_string());
        break;
      }
    }
    rlog.record(node, proc, op, t0, system.scheduler().now(), n.value());
  }
}

bench::RunOutcome run_lustre_once(const Campaign& camp, std::uint64_t seed) {
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  lustre::LustreConfig lcfg;
  lcfg.client_nodes = camp.client_nodes;
  lcfg.seed = seed;
  lustre::LustreSystem system(sched, lcfg);
  LustreShared shared;
  bench::IoLog wlog;
  bench::IoLog rlog;
  const std::size_t procs = camp.client_nodes * camp.ppn;
  sim::Barrier phase(sched, procs);
  for (std::uint32_t n = 0; n < camp.client_nodes; ++n) {
    for (std::uint32_t p = 0; p < camp.ppn; ++p) {
      sched.spawn(lustre_process(system, camp, shared, wlog, rlog, phase, n, p,
                                 n * static_cast<std::uint32_t>(camp.ppn) + p));
    }
  }
  sched.run();

  bench::RunOutcome out;
  out.failed = shared.failed;
  out.failure = shared.failure;
  if (!shared.failed) {
    out.write_bw = wlog.empty() ? 0.0 : to_gib_per_sec(wlog.global_timing_bandwidth());
    out.read_bw = rlog.empty() ? 0.0 : to_gib_per_sec(rlog.global_timing_bandwidth());
    out.metrics = bench::snapshot_run_metrics(sched, system.flows().stats(), wlog, rlog,
                                              daos::ClientStats{});
  }
  return out;
}

bench::RunOutcome run_native_once(const Campaign& camp, std::uint64_t seed) {
  daos::ClusterConfig cfg = bench::testbed_config(camp.servers, camp.client_nodes);
  cfg.payload_mode = daos::PayloadMode::full;
  bench::FieldBenchParams params;
  params.ops_per_process = camp.ops;
  params.processes_per_node = camp.ppn;
  params.field_size = camp.field_size;
  params.verify_payload = true;  // byte-exact: strictly stronger than MD5
  return bench::run_field_once(cfg, params, 'A', seed);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("ops", "6", "fields per process");
  cli.add_flag("ppn", "4", "processes per client node");
  cli.add_flag("servers", "2", "server nodes");
  cli.add_flag("stream-mib", "1", "field size of the streaming scenario, MiB");
  cli.add_flag("meta-bytes", "16000", "field size of the metadata-heavy scenario");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig_interfaces");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Campaign base;
  base.servers = static_cast<std::size_t>(cli.get_int("servers"));
  base.ppn = static_cast<std::size_t>(quick ? 2 : cli.get_int("ppn"));
  base.ops = static_cast<std::uint32_t>(quick ? 3 : cli.get_int("ops"));
  const Bytes stream_size = static_cast<Bytes>(cli.get_int("stream-mib")) * 1_MiB;
  const Bytes meta_size = static_cast<Bytes>(cli.get_int("meta-bytes"));
  if (meta_size < kPatchOffset + kPatchLen) {
    std::cerr << "meta-bytes must be >= " << (kPatchOffset + kPatchLen) << "\n";
    return 1;
  }

  const char* backends[] = {"native", "dfs", "posix", "lustre"};
  Table table({"scenario", "backend", "write (GiB/s)", "read (GiB/s)", "fields/s"});
  bool ordering_ok = true;
  // The native >= dfs >= posix ordering is an asymptotic statement: each
  // native forecast pays its index/store container creation once, so a
  // campaign of only a few ops per process is setup-dominated and the
  // native/dfs margin flips with the seed.  The gate binds on the default
  // campaign (where it holds at every seed tried); a --quick or single-rep
  // smoke run still prints and reports everything but does not assert.
  const bool assert_ordering = !quick && reps >= 3 && base.ops >= 6;

  // One cell per (scenario, backend): stream then meta, in backend order.
  Campaign camps[2] = {base, base};
  camps[0].field_size = stream_size;
  camps[1].meta = true;
  camps[1].field_size = meta_size;
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(2 * 4, reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const Campaign& camp = camps[cell / 4];
        const std::size_t b = cell % 4;
        const std::uint64_t rs =
            bench::repetition_seed(seed + 7919ull * (camp.meta ? 2 : 1) + 104729ull * b, rep);
        switch (b) {
          case 0: return run_native_once(camp, rs);
          case 1: return run_fs_once(camp, /*posix_mode=*/false, rs);
          case 2: return run_fs_once(camp, /*posix_mode=*/true, rs);
          default: return run_lustre_once(camp, rs);
        }
      });

  for (const bool meta : {false, true}) {
    const char* scenario = meta ? "meta" : "stream";
    double fields_per_sec[4] = {0, 0, 0, 0};
    for (std::size_t b = 0; b < 4; ++b) {
      const bench::RepetitionSummary& summary = cells[(meta ? 4 : 0) + b];
      obs.merge_metrics(summary.metrics);
      if (summary.any_failed) {
        table.add_row({scenario, backends[b], "failed", summary.failure});
        ordering_ok = false;
        continue;
      }
      const double write_bw = summary.write.empty() ? 0.0 : summary.write.mean();
      const double read_bw = summary.read.empty() ? 0.0 : summary.read.mean();
      fields_per_sec[b] = write_bw * 1073741824.0 / static_cast<double>(camps[meta].field_size);
      table.add_row({scenario, backends[b], strf("%.3f", write_bw), strf("%.3f", read_bw),
                     strf("%.1f", fields_per_sec[b])});
    }
    if (assert_ordering && meta &&
        !(fields_per_sec[0] >= fields_per_sec[1] && fields_per_sec[1] >= fields_per_sec[2])) {
      ordering_ok = false;
      std::cerr << "interface ordering violated on the meta scenario: expected native >= dfs >= "
                   "posix fields/s, got "
                << strf("%.1f >= %.1f >= %.1f", fields_per_sec[0], fields_per_sec[1],
                        fields_per_sec[2])
                << "\n";
    }
  }

  std::cout << "expected: on `meta` the publish rate orders native >= dfs >= posix\n"
               "          (namespace upkeep, then POSIX serialisation and read-modify-write\n"
               "          on top); the lustre baseline pays no per-op commit, so its raw\n"
               "          rate is not comparable with the DAOS-backed columns\n";
  bench::emit(table, "Interface comparison: native / dfs / posix-emu / lustre", cli, obs);
  const int rc = obs.finish();
  return ordering_ok ? rc : 1;
}
