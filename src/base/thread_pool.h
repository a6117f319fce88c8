#ifndef CALM_BASE_THREAD_POOL_H_
#define CALM_BASE_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <memory>

namespace calm {

// A fixed-size thread pool driving the exhaustive enumeration loops of the
// monotonicity / preservation checkers. The pool owns `num_threads - 1`
// worker threads; the thread calling ParallelFor always participates, so a
// pool constructed with 1 thread runs everything inline on the caller.
//
// Determinism contract: ParallelFor makes no ordering promise across
// indices. Callers that need the single-threaded answer (the checkers do —
// "first violation in enumeration order") must record per-index results and
// merge by index afterwards; see monotonicity/checker.cc.
class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (0 workers when num_threads <= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The configured concurrency (workers + the participating caller).
  size_t num_threads() const;

  // Runs fn(i) for every i in [begin, end), distributing contiguous chunks
  // over at most `max_helpers` workers plus the calling thread. Blocks until
  // every index has run (or been abandoned after an exception). The first
  // exception thrown by fn is rethrown on the calling thread; once one is
  // captured, remaining chunks are abandoned.
  //
  // Re-entrant use is safe: a ParallelFor issued from inside a running fn
  // executes serially on the current thread instead of deadlocking on the
  // pool's own workers.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   size_t max_helpers = static_cast<size_t>(-1));

  // The process-wide pool, created on first use with DefaultThreads()
  // threads and recreated if DefaultThreads() has changed since. Intended to
  // be (re)sized at startup via SetDefaultThreads / CALM_THREADS before the
  // hot loops start; recreation is not safe while another thread is inside
  // ParallelFor.
  static ThreadPool& Global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The largest thread count accepted from a flag, the environment or
// SetDefaultThreads: far above any core count the checkers scale to, far
// below a count whose worker vector could not be allocated.
inline constexpr size_t kMaxThreads = 1024;

// Parses a count: one or more decimal digits and nothing else (no sign, no
// blanks) naming a value in [min, max]. On any other text returns false and
// leaves *out alone. Thread counts parse with [1, kMaxThreads]: the
// benches' --threads flag and CALM_THREADS both go through here.
bool ParseCount(const char* text, size_t min, size_t max, size_t* out);

// The process-wide thread count: the last SetDefaultThreads(n > 0) value if
// any, else the CALM_THREADS environment variable when it parses as a thread
// count, else std::thread::hardware_concurrency() (at least 1).
size_t DefaultThreads();

// Overrides DefaultThreads(), clamped to kMaxThreads; n == 0 resets to the
// environment/hardware value. Benches wire their --threads flag here.
void SetDefaultThreads(size_t n);

// Convenience for the checkers: runs fn(i) for i in [0, count) with roughly
// `threads` concurrency (0 means DefaultThreads()). threads <= 1 or
// count <= 1 runs serially inline without touching the pool; otherwise the
// global pool is used, capped at threads - 1 helpers. Exceptions propagate
// as in ThreadPool::ParallelFor.
void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& fn);

}  // namespace calm

#endif  // CALM_BASE_THREAD_POOL_H_
