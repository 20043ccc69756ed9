// Rebuild interference: production write-stream slowdown vs rebuild traffic
// (docs/FAULTS.md).
//
// Field I/O pattern A over an RP_2 array class.  The baseline row runs
// fault-free; every other row permanently fails one target a fixed time into
// the run, so the pool map excludes it and background rebuild re-protects the
// shards written so far while the write stream is still going.  The sweep
// varies ModelConfig::rebuild_rate_cap: a generous cap resilvers quickly but
// steals fabric and target bandwidth from production writes, a stingy cap
// stays out of the way at the price of a longer degraded window.
//
// Reported per row: write/read bandwidth, write slowdown vs the fault-free
// baseline, degraded reads, and rebuild volume.  The durability columns
// must show zero lost objects — RP_2 survives one failure by construction.
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  // The fabric path bounds an unthrottled rebuild flow to a few hundred
  // MiB/s on the default testbed; the sweep sits below that so the cap is
  // the binding constraint on all but the uncapped row.
  cli.add_flag("rebuild-mibs", "16,32,64,0", "rebuild rate caps in MiB/s to sweep (0 = uncapped)");
  cli.add_flag("fail-pct", "50", "permanent-failure instant, % of the baseline write phase");
  cli.add_flag("ops", "20", "fields written (then read back) per process");
  cli.add_flag("ppn", "8", "processes per client node");
  cli.add_flag("servers", "1", "server nodes");
  // Fewer targets than the paper testbed (12/engine): with 8 targets the dead
  // one holds ~25% of RP_2 stripes, so resilvering is a visible fraction of
  // the production stream instead of sub-percent noise.
  cli.add_flag("tpe", "4", "targets per engine");
  cli.add_flag("field-mib", "1", "field size in MiB");
  cli.add_flag("mode", "no_index", "field I/O mode: full, no_containers, no_index");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig_rebuild_interference");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
  const double fail_pct = static_cast<double>(cli.get_int("fail-pct"));
  std::vector<double> caps_mib;  // 0 = uncapped
  for (const auto v : cli.get_int_list("rebuild-mibs")) caps_mib.push_back(static_cast<double>(v));
  if (quick) caps_mib = {512};

  bench::FieldBenchParams params;
  params.mode = fdb::mode_by_name(cli.get("mode"));
  params.ops_per_process = static_cast<std::uint32_t>(quick ? 5 : cli.get_int("ops"));
  params.processes_per_node = static_cast<std::size_t>(cli.get_int("ppn"));
  params.field_size = static_cast<Bytes>(cli.get_int("field-mib")) * 1_MiB;
  params.array_class = daos::ObjectClass::RP_2;

  Table table({"rebuild cap", "write (GiB/s)", "slowdown", "write p95 (ms)", "rebuild window (ms)",
               "degraded reads", "rebuilt MiB", "lost"});

  // Runs one grid of rows, one cell per rate cap in MiB/s.  The failure must
  // land mid-write-stream, when stripes actually sit on the victim.
  const auto run_rows = [&](const std::vector<double>& caps, bool with_failure,
                            double fail_seconds) {
    return bench::run_grid(caps.size(), reps, jobs, [&](std::size_t cell, std::size_t rep) {
      const std::uint64_t rs = bench::repetition_seed(seed, rep);
      daos::ClusterConfig cfg = bench::testbed_config(servers, 2);
      cfg.targets_per_engine = static_cast<std::size_t>(cli.get_int("tpe"));
      cfg.model.rebuild_rate_cap = caps[cell] * 1024.0 * 1024.0;
      if (with_failure) {
        cfg.fault_spec.seed = mix64(rs ^ 0x9eb41dull);
        cfg.fault_spec.permanent_failures = 1;
        cfg.fault_spec.permanent_failure_time = sim::seconds(fail_seconds);
        cfg.fault_spec.horizon = sim::seconds(std::max(8.0, 4.0 * fail_seconds));
      }
      return bench::run_field_once(cfg, params, 'A', rs);
    });
  };

  const auto metric_value = [](const bench::RepetitionSummary& s, const char* name) {
    return s.metrics.has(name) ? s.metrics.value(name) : 0.0;
  };
  const auto add_row = [&](const std::string& label, const bench::RepetitionSummary& summary,
                           double baseline_write) {
    if (summary.any_failed) {
      table.add_row({label, "failed", summary.failure});
      return;
    }
    const double write_bw = summary.write.empty() ? 0.0 : summary.write.mean();
    const double slowdown = write_bw > 0.0 && baseline_write > 0.0 ? baseline_write / write_bw : 0.0;
    double write_p95_ms = 0.0;
    const auto& metric_map = summary.metrics.metrics();
    const auto latency = metric_map.find("io.write.latency_seconds");
    if (latency != metric_map.end() && !latency->second.samples.empty()) {
      write_p95_ms = latency->second.samples.percentile(95.0) * 1e3;
    }
    table.add_row({label, strf("%.2f", write_bw), strf("%.3fx", slowdown),
                   strf("%.3f", write_p95_ms),
                   strf("%.1f", metric_value(summary, "rebuild.window_seconds") * 1e3),
                   strf("%.0f", metric_value(summary, "rebuild.degraded_reads")),
                   strf("%.1f", metric_value(summary, "rebuild.bytes_rebuilt") / (1024.0 * 1024.0)),
                   strf("%.0f", metric_value(summary, "rebuild.objects_lost"))});
  };

  // Two grids, because the failure instant of every failure row derives from
  // the baseline row's measured bandwidth (deterministic, so every row — and
  // every --jobs — sees the same instant).
  const bench::RepetitionSummary baseline = run_rows({512.0}, false, 0.0).front();
  obs.merge_metrics(baseline.metrics);
  const double baseline_write =
      baseline.any_failed || baseline.write.empty() ? 0.0 : baseline.write.mean();
  add_row("none (baseline)", baseline, baseline_write);

  const double total_write_gib = static_cast<double>(params.ops_per_process) *
                                 static_cast<double>(params.processes_per_node) * 2.0 *
                                 static_cast<double>(params.field_size) / (1024.0 * 1024.0 * 1024.0);
  const double write_phase_seconds = baseline_write > 0.0 ? total_write_gib / baseline_write : 0.05;
  const std::vector<bench::RepetitionSummary> rows =
      run_rows(caps_mib, true, write_phase_seconds * fail_pct / 100.0);
  for (std::size_t row = 0; row < rows.size(); ++row) {
    obs.merge_metrics(rows[row].metrics);
    add_row(caps_mib[row] == 0 ? "uncapped" : strf("%.0f MiB/s", caps_mib[row]), rows[row],
            baseline_write);
  }

  std::cout << "expected: slowdown > 1.0x on every failure row (one of "
            << servers * 2 * static_cast<std::size_t>(cli.get_int("tpe"))
            << " targets gone plus\n"
               "          rebuild traffic); the rebuild window shrinks as the rate cap grows,\n"
               "          at the price of sharper interference with concurrent writes; lost = 0\n"
               "          everywhere (RP_2 survives the single failure)\n";
  bench::emit(table, "Rebuild interference: write slowdown vs rebuild rate cap", cli, obs);
  return obs.finish();
}
