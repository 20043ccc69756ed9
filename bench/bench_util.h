// Shared helpers for the table/figure bench binaries.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/table.h"
#include "harness/run_pool.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace nws::bench {

/// Standard flags every reproduction bench accepts.
inline void add_common_flags(Cli& cli) {
  cli.add_flag("reps", "3", "repetitions per configuration");
  cli.add_flag("seed", "1", "base seed");
  cli.add_flag("csv", "", "also write results to this CSV file");
  cli.add_flag("quick", "false", "reduced sweep for smoke runs");
  cli.add_flag("jobs", "0", "worker threads for repetition sweeps (0: all cores)");
  cli.add_alias('j', "jobs");
  cli.add_flag("trace", "", "write a Chrome trace_event JSON of the runs (forces --jobs 1)");
  cli.add_flag("report", "", "write a machine-readable run-report JSON (nws-report-v1)");
}

/// Resolves --jobs/-j (0 -> hardware_concurrency) and installs it as the
/// process default, so every repeat()/best_over_ppn() sweep in the binary
/// runs on the pool.  Results are bit-identical at any job count.
///
/// --trace forces 1: spans reach the recorder through a thread-local
/// pointer, so traced repetitions must run inline on the main thread (where
/// the ScopedClock epoch shift chains them onto one timeline).
inline std::size_t resolve_jobs(const Cli& cli) {
  std::size_t jobs = normalize_jobs(static_cast<std::size_t>(cli.get_int("jobs")));
  if (!cli.get("trace").empty()) jobs = 1;
  set_default_jobs(jobs);
  return jobs;
}

/// Per-binary driver for the --trace/--report artifacts.  Construct right
/// after Cli::parse (before any runs), feed it metrics snapshots and result
/// tables along the way, and call finish() as the binary's last act:
///
///   bench::BenchObs obs(cli, "fig6_objclass_size");
///   ...
///   obs.merge_metrics(summary.metrics);
///   ...
///   bench::emit(table, title, cli, obs);   // print + CSV + report table
///   return obs.finish();
class BenchObs {
 public:
  BenchObs(const Cli& cli, const std::string& bench_name)
      : trace_path_(cli.get("trace")), report_path_(cli.get("report")), report_(bench_name) {
    report_.set_config(cli.entries());
    if (!trace_path_.empty()) {
      // Spans stream to disk as the closed prefix grows: long campaigns keep
      // a bounded in-memory window instead of the whole timeline (the
      // recorder holds at most its buffer cap of undrained spans).
      trace_out_.open(trace_path_);
      if (trace_out_) {
        recorder_.stream_to(trace_out_);
      } else {
        std::cerr << "cannot write trace file: " << trace_path_ << "\n";
        trace_failed_ = true;
      }
      session_.emplace(recorder_);
    }
  }

  void add_table(const std::string& title, const Table& table) { report_.add_table(title, table); }
  void merge_metrics(const obs::MetricsSnapshot& snapshot) { report_.merge_metrics(snapshot); }

  /// Writes the artifacts requested on the command line (no-ops otherwise)
  /// and returns the binary's exit code.
  int finish() {
    if (!trace_path_.empty()) {
      if (trace_failed_) return 1;
      const std::size_t spans = recorder_.span_count();
      recorder_.finish_stream();
      trace_out_.close();
      if (!trace_out_) {
        std::cerr << "error writing trace file: " << trace_path_ << "\n";
        return 1;
      }
      std::cout << "(trace streamed to " << trace_path_ << ", " << spans << " spans)\n";
    }
    if (!report_path_.empty()) {
      report_.write_json_file(report_path_);
      std::cout << "(report written to " << report_path_ << ")\n";
    }
    return 0;
  }

 private:
  std::string trace_path_;
  std::string report_path_;
  std::ofstream trace_out_;  // open for the whole run while --trace is set
  bool trace_failed_ = false;
  obs::TraceRecorder recorder_;
  std::optional<obs::TraceSession> session_;  // engaged while --trace is set
  obs::RunReport report_;
};

inline void emit(const Table& table, const std::string& title, const Cli& cli) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  const std::string csv = cli.get("csv");
  if (!csv.empty()) {
    table.write_csv_file(csv);
    std::cout << "(CSV written to " << csv << ")\n";
  }
  std::cout.flush();
}

/// emit() plus recording the table on the bench's run report.
inline void emit(const Table& table, const std::string& title, const Cli& cli, BenchObs& obs) {
  emit(table, title, cli);
  obs.add_table(title, table);
}

}  // namespace nws::bench
