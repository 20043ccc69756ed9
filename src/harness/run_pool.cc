#include "harness/run_pool.h"

namespace nws::bench {

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

std::size_t normalize_jobs(std::size_t jobs) { return jobs == 0 ? hardware_jobs() : jobs; }

}  // namespace nws::bench
