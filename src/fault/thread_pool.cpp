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
    workers_.emplace_back([this, w] { worker_loop(w + 1); });
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

void ThreadPool::run_static(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  std::vector<TaskFailure> failures = run_static_capture(count, fn);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<ThreadPool::TaskFailure> ThreadPool::run_static_capture(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return {};
  failures_.clear();
  if (workers_.empty()) {
    task_count_ = count;
    task_fn_ = &fn;
    run_stride(0);
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
    run_stride(0);  // the caller is worker 0
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

void ThreadPool::worker_loop(unsigned worker_index) {
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
    run_stride(worker_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_workers_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_stride(unsigned worker_index) {
  const unsigned stride = size();
  for (std::size_t task = worker_index; task < task_count_; task += stride) {
    try {
      (*task_fn_)(task);
    } catch (...) {
      // Contain the failure to this task: record it and keep draining the
      // stride, so the batch always completes and the pool stays usable.
      std::lock_guard<std::mutex> lock(failure_mutex_);
      failures_.push_back({task, std::current_exception()});
    }
  }
}

}  // namespace sbst::fault
