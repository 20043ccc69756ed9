#include "harness/run_pool.h"

#include <atomic>
#include <cstdlib>

namespace nws::bench {

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

namespace {

std::atomic<std::size_t>& default_jobs_slot() {
  // Initialised once from NWS_JOBS (0 -> hardware_concurrency); benches
  // override via set_default_jobs(resolve_jobs(cli)).
  static std::atomic<std::size_t> slot = [] {
    const char* env = std::getenv("NWS_JOBS");
    if (env != nullptr && *env != '\0') {
      return normalize_jobs(static_cast<std::size_t>(std::strtoull(env, nullptr, 10)));
    }
    return std::size_t{1};
  }();
  return slot;
}

}  // namespace

std::size_t normalize_jobs(std::size_t jobs) { return jobs == 0 ? hardware_jobs() : jobs; }

std::size_t default_jobs() { return default_jobs_slot().load(std::memory_order_relaxed); }

void set_default_jobs(std::size_t jobs) {
  default_jobs_slot().store(normalize_jobs(jobs), std::memory_order_relaxed);
}

}  // namespace nws::bench
