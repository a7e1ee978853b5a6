#include "fault/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <utility>

namespace sbst::fault {

bool parse_thread_count(std::string_view text, unsigned& out) {
  unsigned v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < 1 || v > kMaxThreads) {
    return false;
  }
  out = v;
  return true;
}

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  unsigned v = 0;
  if (const char* env = std::getenv("SBST_THREADS");
      env && parse_thread_count(env, v)) {
    return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned extra = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(extra);
  for (unsigned w = 0; w < extra; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  std::vector<TaskFailure> failures = run_capture(count, fn);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<ThreadPool::TaskFailure> ThreadPool::run_capture(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return {};
  failures_.clear();
  next_task_.store(0, std::memory_order_relaxed);
  if (workers_.empty()) {
    task_count_ = count;
    task_fn_ = &fn;
    drain();
    task_fn_ = nullptr;
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_count_ = count;
      task_fn_ = &fn;
      pending_workers_ = static_cast<unsigned>(workers_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    drain();  // the caller claims tasks too
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
    task_fn_ = nullptr;
  }
  std::sort(failures_.begin(), failures_.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.task < b.task;
            });
  return std::move(failures_);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_workers_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::drain() {
  // The batch's count and function were published under mutex_ before the
  // generation bump (or on this very thread), so only the claim itself
  // needs to be atomic.
  for (;;) {
    const std::size_t task =
        next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= task_count_) return;
    try {
      (*task_fn_)(task);
    } catch (...) {
      // Contain the failure to this task: record it and keep claiming, so
      // the batch always completes and the pool stays usable.
      std::lock_guard<std::mutex> lock(failure_mutex_);
      failures_.push_back({task, std::current_exception()});
    }
  }
}

}  // namespace sbst::fault
