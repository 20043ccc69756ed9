// Named metrics snapshots with deterministic folding.
//
// The simulator layers each keep their own cheap ad-hoc stat structs
// (net::FlowStats, daos::ClientStats, fdb::FieldIoStats, bench::IoLog) —
// those stay, as views the hot paths write to for free.  After a repetition
// finishes, the harness converts them into one MetricsSnapshot: a flat,
// name-ordered map of counters, gauges and histograms that every layer's
// numbers share, so reports and tests consume a single interface instead of
// four struct shapes.
//
// Determinism: snapshots fold per repetition in job-index order (parallel_map
// already returns results ordered by index).  Counters add, gauges take the
// max, histograms append their samples in fold order — so the folded
// snapshot is bit-identical at any --jobs count.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/stats.h"
#include "obs/json.h"

namespace nws::obs {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

const char* metric_kind_name(MetricKind kind);

struct Metric {
  MetricKind kind = MetricKind::counter;
  double value = 0.0;  // counter: running sum; gauge: running max
  Summary samples;     // histogram only

  bool operator==(const Metric& other) const {
    return kind == other.kind && value == other.value &&
           samples.samples() == other.samples.samples();
  }
};

class MetricsSnapshot {
 public:
  /// Adds `v` to the counter `name` (creating it at 0).
  void counter(const std::string& name, double v);
  /// Raises the gauge `name` to at least `v` (creating it at v).
  void gauge(const std::string& name, double v);
  /// Appends one sample to the histogram `name`.
  void histogram(const std::string& name, double sample);
  /// Appends all of `s`'s samples, in their stored order.
  void histogram(const std::string& name, const Summary& s);

  /// Folds `other` into this snapshot: counters add, gauges max, histogram
  /// samples append in call order.  Mixing kinds under one name throws.
  void fold(const MetricsSnapshot& other);

  /// Seals every histogram's sort cache (see Summary::seal) — call after the
  /// last fold, before sharing the snapshot across threads.
  void seal();

  [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }
  [[nodiscard]] bool empty() const { return metrics_.empty(); }

  /// Scalar value of a counter/gauge; throws if absent or a histogram.
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  bool operator==(const MetricsSnapshot& other) const { return metrics_ == other.metrics_; }

  /// JSON object: name -> {kind, value | count/min/max/mean/p50/p95/p99}.
  void write_json(JsonWriter& w) const;

 private:
  Metric& slot(const std::string& name, MetricKind kind);

  std::map<std::string, Metric> metrics_;  // ordered: deterministic iteration
};

}  // namespace nws::obs
