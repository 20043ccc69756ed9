// Write/read contention in the serving tier: the ioserver model-output
// pipeline runs concurrently with a product-generation consumer fleet on one
// cluster, so dissemination reads and forecast writes share the simulated
// fabric, targets and SCM.  Reported per configuration: the write path's
// global timing bandwidth and its slowdown against the consumers=0 baseline,
// the serving read bandwidth, and the cache/admission effectiveness that
// explains them ("Reducing the Impact of I/O Contention in NWP Workflows at
// Scale Using DAOS", PAPERS.md).
//
// Expectations to match:
//   * write-path slowdown grows with reader load, but far less than the
//     uncached/unbounded configuration — the shared cache collapses the hot
//     field re-reads (hit ratio rises with consumers) and admission keeps
//     the per-node read burst bounded;
//   * a zero-capacity cache row shows single-flight coalescing alone already
//     absorbing most of the duplicate-read load.
#include "bench_util.h"
#include "pgen/serving.h"

int main(int argc, char** argv) {
  using namespace nws;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("consumers", "0,4,16,64", "consumer fleet sizes (0: write-only baseline)");
  cli.add_flag("cache-fields", "0,32", "cache capacity sweep (fields per client node; 0: "
               "residency off, coalescing only)");
  cli.add_flag("budget", "4", "admission budgets (in-flight reads per client node; 0: unlimited)");
  cli.add_flag("servers", "2", "server node count");
  cli.add_flag("clients", "4", "client node count");
  cli.add_flag("model-procs", "64", "model processes feeding the I/O servers");
  cli.add_flag("io-servers", "8", "I/O server processes");
  cli.add_flag("steps", "4", "forecast output steps");
  cli.add_flag("fields", "16", "fields per step");
  cli.add_flag("field-kib", "1024", "field size (KiB)");
  cli.add_flag("poll-us", "2000", "catalogue poll interval (µs)");
  cli.add_flag("policy", "lru", "cache eviction policy: lru | size-lru");
  cli.add_flag("notify", "true", "consumers subscribe to store notifications");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t jobs = bench::resolve_jobs(cli);
  bench::BenchObs obs(cli, "fig_contention_serving");

  const bool quick = cli.get_bool("quick");
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::size_t> consumer_counts = bench::size_list(cli, "consumers");
  std::vector<std::size_t> cache_sizes = bench::size_list(cli, "cache-fields");
  std::vector<std::size_t> budgets = bench::size_list(cli, "budget");
  if (quick) {
    consumer_counts = {0, 8};
    cache_sizes = {32};
    budgets = {4};
  }

  daos::ClusterConfig cluster = bench::testbed_config(
      static_cast<std::size_t>(cli.get_int("servers")),
      static_cast<std::size_t>(cli.get_int("clients")));

  ioserver::PipelineConfig write;
  write.model_processes = static_cast<std::size_t>(cli.get_int("model-procs"));
  write.io_servers = static_cast<std::size_t>(cli.get_int("io-servers"));
  write.steps = quick ? 2 : static_cast<std::uint32_t>(cli.get_int("steps"));
  write.fields_per_step = quick ? 8 : static_cast<std::uint32_t>(cli.get_int("fields"));
  write.field_size = static_cast<Bytes>(cli.get_int("field-kib")) * 1024u;

  pgen::ServingConfig serve_base;
  serve_base.poll_interval = sim::microseconds(static_cast<double>(cli.get_int("poll-us")));
  serve_base.use_notifications = cli.get_bool("notify");
  serve_base.cache.policy = pgen::eviction_policy_by_name(cli.get("policy"));

  Table table({"consumers", "cache", "budget", "write (GiB/s)", "slowdown", "read (GiB/s)",
               "hit ratio", "coalesced", "adm. queued"});

  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> grid;  // (cache, budget, consumers)
  for (const std::size_t cache_fields : cache_sizes) {
    for (const std::size_t budget : budgets) {
      for (const std::size_t consumers : consumer_counts) {
        grid.emplace_back(cache_fields, budget, consumers);
      }
    }
  }
  const std::vector<bench::RepetitionSummary> cells =
      bench::run_grid(grid.size(), reps, jobs, [&](std::size_t cell, std::size_t rep) {
        const auto [cache_fields, budget, consumers] = grid[cell];
        pgen::ServingConfig serve = serve_base;
        serve.consumers = consumers;
        serve.cache.capacity_fields = cache_fields;
        serve.cache.capacity_bytes = static_cast<Bytes>(cache_fields) * write.field_size;
        serve.admission.max_in_flight = budget;
        const std::uint64_t sweep_seed =
            seed + 1009u * consumers + 10007u * cache_fields + 100003u * budget;
        return pgen::run_contention_once(cluster, write, serve,
                                         bench::repetition_seed(sweep_seed, rep));
      });

  double baseline_write = 0.0;  // consumers=0 row of the current (cache, budget) sweep
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const auto [cache_fields, budget, consumers] = grid[cell];
    if (cell % consumer_counts.size() == 0) baseline_write = 0.0;
    const bench::RepetitionSummary& summary = cells[cell];
    obs.merge_metrics(summary.metrics);
    const std::string cache_label =
        cache_fields == 0 ? "off" : std::to_string(cache_fields) + " fields";
    const std::string budget_label = budget == 0 ? "unlimited" : std::to_string(budget);
    if (summary.any_failed || summary.write.empty()) {
      table.add_row({std::to_string(consumers), cache_label, budget_label, "failed",
                     summary.failure});
      continue;
    }
    const double w = summary.write.mean();
    if (consumers == 0) baseline_write = w;
    const double slowdown = (consumers == 0 || w <= 0.0) ? 1.0 : baseline_write / w;
    const double r = summary.read.empty() ? 0.0 : summary.read.mean();
    const auto metric = [&summary](const char* name) {
      return summary.metrics.has(name) ? summary.metrics.value(name) : 0.0;
    };
    const double lookups = metric("cache.hits") + metric("cache.misses") + metric("cache.coalesced");
    const double hit_ratio =
        lookups > 0.0 ? (metric("cache.hits") + metric("cache.coalesced")) / lookups : 0.0;
    table.add_row({std::to_string(consumers), cache_label, budget_label, strf("%.2f", w),
                   strf("%.2fx", slowdown), strf("%.2f", r), strf("%.0f%%", 100.0 * hit_ratio),
                   strf("%.0f", metric("cache.coalesced")),
                   strf("%.0f", metric("admission.queued"))});
  }

  std::cout << "expectation: slowdown grows with consumers; the shared cache and admission\n"
               "             budget keep it well below the uncached/unbounded configuration\n";
  bench::emit(table, "Serving tier: write-path slowdown under concurrent product reads", cli, obs);
  return obs.finish();
}
