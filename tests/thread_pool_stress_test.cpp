// Shutdown-path regression tests for ThreadPool and Simulator (ISSUE 1
// satellite). These are written to give TSan something to bite on: the CI
// matrix runs them under -fsanitize=thread, so a data race in the pool's
// stop/drain handshake or any hidden shared state between Simulator
// instances fails the build. Under plain builds they still assert the
// drain-on-destruction contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "sim/simulator.h"

namespace avd::util {
namespace {

TEST(ThreadPoolShutdown, DestructorDrainsQueuedTasks) {
  // Far more tasks than workers: most are still queued when the destructor
  // runs, and every one must still execute exactly once.
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 2000; ++i) {
      (void)pool.submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(executed.load(), 2000);
}

TEST(ThreadPoolShutdown, RapidConstructDestroyCycles) {
  // The racy window is between notify_all() and the workers observing
  // stopping_; hammer it.
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::atomic<int> executed{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 16; ++i) {
        (void)pool.submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    ASSERT_EQ(executed.load(), 16) << "cycle " << cycle;
  }
}

TEST(ThreadPoolShutdown, ConcurrentSubmittersThenDestroy) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &executed] {
        for (int i = 0; i < 500; ++i) {
          (void)pool.submit([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    // Pool destructor runs with most of the 2000 tasks still queued.
  }
  EXPECT_EQ(executed.load(), 4 * 500);
}

TEST(ThreadPoolShutdown, FutureResultsSurviveShutdownRace) {
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(2);
    futures.reserve(100);
    for (int i = 0; i < 100; ++i) {
      futures.push_back(pool.submit([i] { return i * i; }));
    }
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

}  // namespace
}  // namespace avd::util

namespace avd::sim {
namespace {

TEST(SimulatorShutdown, IndependentSimulatorsShareNoState) {
  // The simulator is single-threaded by design; this pins down that two
  // instances driven from different threads touch no hidden globals
  // (TSan would flag any).
  std::vector<std::thread> drivers;
  std::vector<std::size_t> executed(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    drivers.emplace_back([t, &executed] {
      Simulator simulator;
      std::size_t fired = 0;
      for (int i = 0; i < 500; ++i) {
        (void)simulator.scheduleAt(msec(i), [&fired] { ++fired; });
      }
      // Cancel a band of timers, then drain; cancelled ones must not fire.
      for (TimerId id = 100; id < 200; ++id) simulator.cancel(id);
      simulator.runUntil(sec(10));
      executed[t] = fired;
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(executed[t], 400u) << "driver " << t;
  }
}

TEST(SimulatorShutdown, DestructionWithPendingEventsIsClean) {
  // Events still queued at destruction must simply be dropped — their
  // callbacks own captured state that is released, not invoked.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  {
    Simulator simulator;
    (void)simulator.scheduleAt(sec(1), [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(observer.expired()) << "event still holds the capture";
    // No run: destructor discards the pending event.
  }
  EXPECT_TRUE(observer.expired()) << "pending event leaked its capture";
}

}  // namespace
}  // namespace avd::sim
