// Snapshot read/write trade-off: read latency and write amplification vs
// epoch retention depth (docs/EPOCHS.md).
//
// Field I/O pattern B with snapshot_reads: writers publish every re-write of
// their designated field with FieldIo::commit(); readers pin the newest
// committed epoch, verify a complete version byte-stably, and release.  The
// sweep varies ModelConfig::epoch_retention_depth:
//
//   * retention 0 disables snapshots entirely — writes recycle the head
//     version in place (zero write amplification) and readers fall back to
//     live reads: the baseline row;
//   * retention N keeps N committed epochs behind the head: every
//     epoch-advancing re-write of a retained object copies the superseded
//     version first (epoch.cow_bytes), so write amplification grows with
//     retention while pinned readers gain torn-free time travel.
//
// Reported per row: write/read bandwidth, write amplification
// (1 + cow_bytes/payload bytes), pinned-read and fallback counts, pin
// retries (retention overtook a pinned epoch mid-read), and the live
// version-chain footprint left at the end of a run.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("retention", "0,1,2,4,8", "epoch retention depths to sweep");
  cli.add_flag("ops", "20", "re-writes (and pinned reads) per process");
  cli.add_flag("ppn", "8", "processes per client node");
  cli.add_flag("servers", "2", "server nodes");
  cli.add_flag("field-mib", "1", "field size in MiB");
  // no_index by default: re-writes there overwrite one well-known Array, so
  // retained epochs genuinely copy superseded versions.  The indexed modes
  // allocate a fresh Array per re-write (the store's no-delete design) and
  // only version the tiny index entries — write amplification stays ~1.
  cli.add_flag("mode", "no_index", "field I/O mode: full, no_containers, no_index");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig_snapshot_rw");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
  std::vector<std::size_t> retentions = bench::size_list(cli, "retention");
  if (quick) retentions = {0, 2};

  bench::FieldBenchParams params;
  params.mode = fdb::mode_by_name(cli.get("mode"));
  params.ops_per_process = static_cast<std::uint32_t>(quick ? 5 : cli.get_int("ops"));
  params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
  params.field_size = static_cast<Bytes>(cli.get_int("field-mib")) * 1_MiB;
  params.snapshot_reads = true;

  Table table({"retention", "write (GiB/s)", "read (GiB/s)", "write amp", "read p95 (ms)",
               "pinned reads", "fallbacks", "pin retries", "live MiB"});

  // One cell per retention depth.
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(retentions.size(), reps, jobs, [&](std::size_t cell, std::size_t rep) {
        daos::ClusterConfig cfg = bench::testbed_config(servers, 2);
        // Byte-level snapshot verification needs real payloads.
        cfg.payload_mode = daos::PayloadMode::full;
        cfg.model.epoch_retention_depth = retentions[cell];
        return bench::run_field_once(cfg, params, 'B',
                                     bench::repetition_seed(seed + 131 * retentions[cell], rep));
      });

  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::size_t retention = retentions[cell];
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    if (summary.any_failed) {
      table.add_row({std::to_string(retention), "failed", summary.failure});
      continue;
    }
    const auto metric_value = [&](const char* name) {
      return summary.metrics.has(name) ? summary.metrics.value(name) : 0.0;
    };
    const double payload = metric_value("fdb.bytes_written");
    const double cow = metric_value("epoch.cow_bytes");
    const double write_amp = payload > 0.0 ? 1.0 + cow / payload : 1.0;
    double read_p95_ms = 0.0;
    const auto& metric_map = summary.metrics.metrics();
    const auto latency = metric_map.find("io.read.latency_seconds");
    if (latency != metric_map.end() && !latency->second.samples.empty()) {
      read_p95_ms = latency->second.samples.percentile(95.0) * 1e3;
    }
    table.add_row({std::to_string(retention),
                   strf("%.2f", summary.write.empty() ? 0.0 : summary.write.mean()),
                   strf("%.2f", summary.read.empty() ? 0.0 : summary.read.mean()),
                   strf("%.3f", write_amp), strf("%.3f", read_p95_ms),
                   strf("%.0f", metric_value("fdb.snapshot_verified_reads")),
                   strf("%.0f", metric_value("fdb.snapshot_fallbacks")),
                   strf("%.0f", metric_value("fdb.snapshot_pin_retries")),
                   strf("%.1f", metric_value("epoch.live_version_bytes") / (1024.0 * 1024.0))});
  }

  std::cout << "expected: write amplification 1.0 at retention 0 (snapshots disabled, all\n"
               "          reads fall back), rising with retention while reads stay pinned\n";
  bench::emit(table, "Snapshot reads: latency and write amplification vs retention", cli, obs);
  return obs.finish();
}
