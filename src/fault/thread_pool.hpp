// Fixed-size worker pool for fault-partitioned simulation.
//
// The pool hands out task indices by claim-next: every worker, the calling
// thread included, takes the lowest unclaimed index from one shared atomic
// counter, runs it, and comes back for the next until none is left. A
// worker that draws a long task simply claims fewer of the rest, so one
// slow chunk cannot stack further work behind itself on the same worker.
// Which worker runs which task therefore varies from run to run. A pool of
// size 1 spawns no threads at all and runs the tasks inline, in index order,
// which is handy both for determinism tests and for small fault lists where
// thread startup would dominate.
//
// Determinism contract: tasks must write only to disjoint data (the fault
// simulators give each task a disjoint slice of `detected_flags`), so the
// order in which they run never matters: the merged result needs no locks
// and is bitwise-identical for any pool size and any interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace sbst::fault {

/// Largest worker count a command line or SBST_THREADS may ask for.
inline constexpr unsigned kMaxThreads = 256;

/// Parses a worker count: the whole of `text` must be a decimal in
/// [1, kMaxThreads]. Returns false (and leaves `out` untouched) otherwise.
bool parse_thread_count(std::string_view text, unsigned& out);

/// Resolves a requested worker count: a positive value is used as-is; 0 means
/// "auto" — the SBST_THREADS environment variable if parse_thread_count
/// accepts it, else std::thread::hardware_concurrency() (min 1).
unsigned resolve_thread_count(unsigned requested);

class ThreadPool {
 public:
  /// Total workers including the calling thread; clamped to >= 1.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// An exception captured from one pool task: `task` is the index fn was
  /// called with, `error` the exception it threw.
  struct TaskFailure {
    std::size_t task = 0;
    std::exception_ptr error;
  };

  /// Runs fn(task) exactly once for every task in [0, count), claimed
  /// next-first by whichever worker is free, and blocks until all are done.
  /// A throwing task cannot poison the pool: the exception is captured,
  /// every other task still runs, and the lowest-index captured exception
  /// is rethrown after the batch completes — the same one for any pool size
  /// and schedule, so error reporting stays deterministic.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Like run but never throws on task failure: returns every captured
  /// exception sorted by task index (empty when all tasks succeeded). The
  /// campaign layer uses this to degrade single faults to infra_error
  /// instead of aborting the whole batch.
  std::vector<TaskFailure> run_capture(
      std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and runs tasks until the batch has none left.
  void drain();

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t task_count_ = 0;
  std::atomic<std::size_t> next_task_{0};
  const std::function<void(std::size_t)>* task_fn_ = nullptr;
  unsigned pending_workers_ = 0;
  bool stopping_ = false;
  std::mutex failure_mutex_;
  std::vector<TaskFailure> failures_;
  std::vector<std::thread> workers_;
};

}  // namespace sbst::fault
