// Summary statistics over benchmark repetitions.
//
// The paper reports per-configuration maxima (Table 1: "the maximum
// synchronous bandwidth obtained among the 36 repetitions") and means
// (Fig. 3: "the mean synchronous bandwidth obtained across all repetitions").
//
// Thread safety: every const accessor is safe to call concurrently.  The
// sorted-order cache is only ever written by the non-const seal() (or add(),
// which invalidates it); a const reader that finds the cache stale sorts a
// local copy instead of mutating shared state.  Folding code that builds a
// Summary once and then shares it across parallel_map threads should seal() it
// after the last add() so readers hit the cached path.
#pragma once

#include <cstddef>
#include <vector>

namespace nws {

class Summary {
 public:
  Summary() = default;
  explicit Summary(std::vector<double> samples);

  void add(double v);

  /// Builds the sorted-order cache eagerly.  Call after the last add() and
  /// before sharing this Summary across threads: const accessors then read
  /// the cache instead of each sorting a private copy.
  void seal();

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  std::vector<double> sorted_;
  bool sorted_valid_ = false;

  /// Returns the cache when valid, else a freshly sorted copy in `scratch`
  /// (no mutation under const — concurrent readers stay race-free).
  const std::vector<double>& sorted_view(std::vector<double>& scratch) const;
};

}  // namespace nws
