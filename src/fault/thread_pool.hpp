// Fixed-size worker pool for fault-partitioned simulation.
//
// The pool hands out task indices with static striding: worker w executes
// tasks w, w + size(), w + 2*size(), ...  The calling thread participates as
// worker 0, so a pool of size 1 spawns no threads at all and runs the tasks
// inline — handy both for determinism tests and for small fault lists where
// thread startup would dominate.
//
// Determinism contract: tasks must write only to disjoint data (the fault
// simulators give each task a disjoint slice of `detected_flags`), so the
// merged result needs no locks and is bitwise-identical for any pool size.
#pragma once

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

  /// Runs fn(task) for every task in [0, count) and blocks until all are
  /// done. Tasks are assigned statically by stride (worker w gets tasks
  /// w, w + size(), ...). A throwing task cannot poison the pool: the
  /// exception is captured, every other task still runs, and the lowest-
  /// index captured exception is rethrown after the batch completes — the
  /// same one for any pool size, so error reporting stays deterministic.
  void run_static(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

  /// Like run_static but never throws on task failure: returns every
  /// captured exception sorted by task index (empty when all tasks
  /// succeeded). The campaign layer uses this to degrade single faults to
  /// infra_error instead of aborting the whole batch.
  std::vector<TaskFailure> run_static_capture(
      std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(unsigned worker_index);
  void run_stride(unsigned worker_index);

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t task_count_ = 0;
  const std::function<void(std::size_t)>* task_fn_ = nullptr;
  unsigned pending_workers_ = 0;
  bool stopping_ = false;
  std::mutex failure_mutex_;
  std::vector<TaskFailure> failures_;
  std::vector<std::thread> workers_;
};

}  // namespace sbst::fault
