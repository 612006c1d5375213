// Fixed-size worker pool for embarrassingly parallel test execution.
//
// Individual AVD tests are independent (the system under test is
// re-initialized per test, §3), so a parallel campaign
// (campaign::CampaignRunner) runs each worker's scenarios on a pool thread.
// The adaptive controller itself stays sequential because each generation
// step depends on prior results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace avd::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules a callable; the returned future observes its result.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace avd::util
