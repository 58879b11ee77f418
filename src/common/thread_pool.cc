#include "src/common/thread_pool.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"

namespace ampere {
namespace {

// Index of the calling worker thread in its pool, or -1 for non-workers;
// Submit keeps a worker's own submissions on its own deque.
thread_local int t_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) {
      num_threads = 1;
    }
  }
  queues_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  // Drain-then-join: workers keep pulling until every queue is empty AND
  // shutdown_ is set, so tasks queued before destruction all run.
  Wait();
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  AMPERE_CHECK(task != nullptr);
  AMPERE_CHECK(!shutdown_.load(std::memory_order_acquire))
      << "Submit after shutdown";
  pending_.fetch_add(1, std::memory_order_acq_rel);

  // A worker submitting work keeps it local (LIFO, cache-warm); external
  // submitters spread round-robin so a freshly submitted grid starts evenly
  // distributed and stealing is the exception, not the rule.
  size_t target;
  int self = t_worker_index;
  if (self >= 0 && static_cast<size_t>(self) < queues_.size()) {
    target = static_cast<size_t>(self);
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::TryGetTask(size_t self, std::function<void()>& task) {
  // Own queue first, back end (LIFO for locality).
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal from the front of the others (FIFO end — oldest task, most likely
  // to represent a big untouched chunk of the grid).
  for (size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& victim = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  t_worker_index = static_cast<int>(self);
  for (;;) {
    std::function<void()> task;
    if (TryGetTask(self, task)) {
      task();
      task = nullptr;  // Release captures before signalling completion.
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(wait_mutex_);
        all_done_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wait_mutex_);
    if (shutdown_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
    work_available_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  all_done_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace ampere
