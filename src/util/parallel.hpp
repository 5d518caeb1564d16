// The one worker pool: a fixed set of spawned threads claiming indices in
// ascending order. The DSE sweep, the SEU campaign, `limsynth repro`, the
// SpGEMM core models' block tasks (arch/cores.cpp), the Gustavson
// reference's column chunks (spgemm/reference.cpp) and
// SparseMatrix::approx_equal's compare chunks run on it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace limsynth {

/// Runs fn(i) for i in [0, n) on min(jobs, n) spawned threads. Work always
/// runs on spawned threads, even at jobs <= 1, so the caller's
/// thread-local state (the diagnostic context) never reaches it and a
/// serial run behaves exactly like a parallel one. Workers claim indices
/// in ascending order; fn returning false stops further claims (items
/// already claimed finish). The first exception fn throws also stops
/// claims and is rethrown once every worker has joined.
template <class Fn>
void parallel_for(std::size_t n, int jobs, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n || stop.load()) return;
      try {
        if (!fn(i)) stop.store(true);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        stop.store(true);
      }
    }
  };
  {
    std::vector<std::jthread> pool(
        std::min(static_cast<std::size_t>(std::max(jobs, 1)), n));
    for (std::jthread& t : pool) t = std::jthread(work);
  }  // joins every worker, also when starting one throws
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace limsynth
