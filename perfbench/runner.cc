// perfbench_runner: runs one workload's repetitions back to back, on one
// thread, one simulation at a time, and prints one JSON object with every
// repetition's host timings, resource use and simulated statistics.
//
//   perfbench_runner --workload NAME --seed N --seconds S [--trace]
//
// Repetitions run for S seconds (at least one).  Every
// repetition rebuilds the same inputs from the seed, so their simulated
// statistics must be identical; the runner checks that.  With --trace the
// repetitions alternate between untraced and traced (an obs::TraceSession
// recording in memory), and the traced ones add the simulated span time
// summed per category.  perfbench/run.py turns the output into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_kib = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_maxrss)};
}

/// Simulated span time per category, seconds (spans of concurrent processes
/// add up, so this is busy time, not elapsed time).
std::map<std::string, double> span_seconds(const nws::obs::TraceRecorder& rec) {
  std::map<std::string, double> out{
      {"flow", 0.0}, {"kv", 0.0}, {"array", 0.0}, {"dfs", 0.0}, {"retry_backoff", 0.0}};
  for (const auto& s : rec.spans()) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const char* n = s.name;
    if (std::strcmp(n, "flow") == 0) {
      out["flow"] += d;
    } else if (std::strncmp(n, "kv_", 3) == 0) {
      out["kv"] += d;
    } else if (std::strncmp(n, "array_", 6) == 0) {
      out["array"] += d;
    } else if (std::strncmp(n, "dfs.", 4) == 0) {
      out["dfs"] += d;
    } else if (std::strcmp(n, "retry_backoff") == 0) {
      out["retry_backoff"] += d;
    }
  }
  return out;
}

struct Series {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& k, double v) { values[k].push_back(v); }
};

void write_series(nws::obs::JsonWriter& w, const Series& s) {
  w.begin_object();
  for (const auto& [k, vs] : s.values) {
    w.key(k);
    w.begin_array();
    for (const double v : vs) w.value(v);
    w.end_array();
  }
  w.end_object();
}

int usage_error(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload NAME --seed N --seconds S [--trace]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using Clock = std::chrono::steady_clock;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = true;
    } else {
      return usage_error("unknown argument: " + a);
    }
  }
  if (workload.empty()) return usage_error("--workload is required");

  Series untraced;
  Series traced;
  Series spans;
  nws::obs::MetricsSnapshot first_sim;
  bool correct = true;
  bool identical = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::size_t reps = 0;
  const Clock::time_point start = Clock::now();
  // Untraced and traced repetitions alternate, untraced first, so both see
  // the same host conditions; a trace run needs at least one of each.
  // A repetition starts only if it is expected to end within the budget
  // (judged by the longest one so far), so a run ends close to S seconds.
  const std::size_t min_reps = trace ? 2 : 1;
  double longest_rep = 0.0;
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while (reps < min_reps || elapsed() + longest_rep < seconds) {
    const double rep_start = elapsed();
    const bool traced_rep = trace && reps % 2 == 1;
    nws::obs::TraceRecorder recorder;
    RepResult r;
    const Usage before = usage_now();
    try {
      if (traced_rep) {
        const nws::obs::TraceSession session(recorder);
        r = run_rep(workload, seed);
      } else {
        r = run_rep(workload, seed);
      }
    } catch (const std::invalid_argument& e) {
      return usage_error(e.what());
    }
    const Usage after = usage_now();
    Series& s = traced_rep ? traced : untraced;
    s.add("cluster_build_s", r.times.cluster_build);
    s.add("spawn_s", r.times.spawn);
    s.add("setup_s", r.times.setup());
    s.add("run_s", r.times.run);
    s.add("collect_s", r.times.collect);
    s.add("fold_s", r.times.fold);
    s.add("teardown_s", r.times.teardown);
    s.add("wall_s", r.times.wall());
    s.add("user_s", after.user_s - before.user_s);
    s.add("sys_s", after.sys_s - before.sys_s);
    s.add("minor_faults", after.minor_faults - before.minor_faults);
    if (traced_rep) {
      for (const auto& [k, v] : span_seconds(recorder)) spans.add(k, v);
    }

    if (reps == 0) {
      first_sim = r.sim;
      attempted = r.attempted;
      failed = r.failed;
      problems = r.problems;
    } else if (!(r.sim == first_sim) || r.attempted != attempted || r.failed != failed) {
      identical = false;
    }
    correct = correct && r.correct;
    ++reps;
    longest_rep = std::max(longest_rep, elapsed() - rep_start);
  }
  if (!identical) problems.push_back("repetitions of one seed produced different simulated results");

  nws::obs::JsonWriter w(std::cout);
  w.begin_object();
  w.member("workload", workload);
  w.member("seed", seed);
  w.member("reps", static_cast<std::uint64_t>(reps));
  w.member("correct", correct && identical);
  w.member("attempted", attempted);
  w.member("failed", failed);
  w.key("problems");
  w.begin_array();
  for (const auto& p : problems) w.value(p);
  w.end_array();
  w.member("peak_rss_mib", usage_now().max_rss_kib / 1024.0);
  w.key("untraced");
  write_series(w, untraced);
  if (trace) {
    w.key("traced");
    write_series(w, traced);
    w.key("span_sim_s");
    write_series(w, spans);
  }
  w.key("sim");
  first_sim.write_json(w);
  w.end_object();
  std::cout << "\n";
  return 0;
}
