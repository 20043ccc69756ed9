// Deterministic fan-out for seeded experiment jobs.
//
// The experiment methodology (paper Sections 6.2-6.3) is a campaign of
// independent repetitions: every repetition builds a fresh scheduler and
// cluster from an explicit seed, shares no mutable state with any other
// repetition, and is a pure function of that seed.  Such jobs are
// embarrassingly parallel, so parallel_map() only hands out job *indices*:
// every participating thread claims the next unclaimed index from one shared
// atomic counter until none is left.  Which thread runs a job never changes
// its inputs or where its result lands — results come back ordered by job
// index and callers fold serially in that order — so a sweep is bit-identical
// at any thread count.  Bench sweeps reach it through run_grid()
// (harness/experiment.h); the chaos sweep calls it directly.
//
// jobs <= 1 (or n <= 1) never creates a thread: the calling thread runs every
// job in index order (the strictly-serial replay mode, NWS_CHAOS_SEED and
// --trace).
//
// Exceptions: a throwing job does not abort the sweep; all jobs run, then the
// exception of the lowest-indexed failing job is rethrown on the caller's
// thread (again identical at any thread count).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace nws::bench {

/// `jobs` == 0 -> hardware_concurrency() (minimum 1).
std::size_t normalize_jobs(std::size_t jobs);

/// std::thread::hardware_concurrency(), minimum 1 — the real core count that
/// caps parallel_map's thread count.
std::size_t hardware_jobs();

/// Applies `fn` to every index in [0, n) and returns the results ordered by
/// index — the deterministic fan-out primitive.  With jobs <= 1 everything
/// runs inline on the calling thread.  Otherwise `jobs - 1` threads plus the
/// caller claim indices from one counter; the thread count is capped at n and
/// at hardware_jobs(): CPU-bound simulation jobs only lose to oversubscription
/// (results are index-ordered either way, so the cap cannot change them).
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> results(n);
  std::vector<std::exception_ptr> errors(n);
  const auto run_job = [&](std::size_t i) {
    try {
      results[i] = fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  jobs = std::min({normalize_jobs(jobs), hardware_jobs(), n});
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_job(i);
  } else {
    // Each job is a whole simulation, so one fetch_add per job is all the
    // dispatch there is; the joins publish results and errors.
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) run_job(i);
    };
    std::vector<std::jthread> workers;
    workers.reserve(jobs - 1);
    for (std::size_t w = 1; w < jobs; ++w) workers.emplace_back(drain);
    drain();
    workers.clear();  // joins
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace nws::bench
