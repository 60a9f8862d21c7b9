// Fork-join over a fixed number of worker threads, shared by the model
// checker's passes and the experiment runner's trial pool, and the
// usable-core count that every "threads = 0" default resolves to.
#ifndef SSNO_CORE_PARALLEL_HPP
#define SSNO_CORE_PARALLEL_HPP

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ssno {

/// The CPUs the calling thread may run on (its sched_getaffinity set, as
/// narrowed by taskset, cgroups' cpusets or a pinned parent), at least
/// 1.  Falls back to std::thread::hardware_concurrency() only where
/// that call is unavailable or fails.
[[nodiscard]] inline int usableCores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs body(0..threads-1), one thread each; threads <= 1 runs body(0)
/// inline.  The first exception — thrown by a body, or by starting a
/// thread — is rethrown once every started thread has been joined.  A
/// thread that fails to start therefore never leaves a joinable
/// std::thread behind (whose destructor would call std::terminate); the
/// threads already running finish their bodies first.  `Thread` is
/// std::thread outside tests.
template <class Thread = std::thread>
void runWorkers(int threads, const std::function<void(int)>& body) {
  if (threads <= 1) {
    body(0);
    return;
  }
  std::mutex mu;
  std::exception_ptr error;
  const auto keepFirst = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
  };
  std::vector<Thread> pool;
  try {
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          body(t);
        } catch (...) {
          keepFirst(std::current_exception());
        }
      });
    }
  } catch (const std::exception& e) {
    keepFirst(std::make_exception_ptr(std::runtime_error(
        "cannot start worker thread " + std::to_string(pool.size() + 1) +
        " of " + std::to_string(threads) + ": " + e.what())));
  } catch (...) {
    keepFirst(std::current_exception());
  }
  for (Thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ssno

#endif  // SSNO_CORE_PARALLEL_HPP
