#include "campaign/fleet/worker.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "campaign/runner.h"
#include "common/framing.h"
#include "common/proc.h"

namespace avd::campaign::fleet {

namespace {

// Heartbeats and busy-time measurement are operational liveness signals,
// never exploration state: they decide when the coordinator gives up on
// this process, not which scenarios run or what they produce.
// avd-lint: allow(nondeterminism)
using BeatClock = std::chrono::steady_clock;

/// Shared between the executing thread and the heartbeat thread.
struct BusyState {
  std::mutex mutex;
  std::condition_variable stopped;  // notified once `stop` is set
  bool stop = false;                // guarded by mutex
  std::uint64_t busyTest = 0;  // guarded by mutex; 0 = idle
  BeatClock::time_point busySince;  // guarded by mutex
};

}  // namespace

int runWorker(int fd, const WorkerExecutorFactory& makeExecutor,
              const WorkerHooks& hooks) {
  // Hello / welcome handshake, blocking: nothing useful can happen before
  // the coordinator tells this worker who it is.
  if (!util::writeFrame(fd, encodeHello(Hello{}))) {
    util::closeFd(fd);
    return kWorkerExitLostPeer;
  }
  const auto welcomeFrame = util::readFrame(fd);
  if (!welcomeFrame || kindOf(*welcomeFrame) != MessageKind::kWelcome) {
    util::closeFd(fd);
    return kWorkerExitLostPeer;
  }
  const auto welcome = decodeWelcome(*welcomeFrame);
  if (!welcome) {
    util::closeFd(fd);
    return kWorkerExitBadConfig;
  }

  std::unique_ptr<core::ScenarioExecutor> executor;
  try {
    executor = makeExecutor(welcome->system, welcome->seed);
  } catch (...) {
    executor = nullptr;
  }
  if (!executor) {
    util::closeFd(fd);
    return kWorkerExitBadConfig;
  }

  JournalWriter shard;
  if (!welcome->outDir.empty() &&
      !shard.openFresh(
          shardPath(welcome->outDir, welcome->slot, welcome->incarnation))) {
    util::closeFd(fd);
    return kWorkerExitBadConfig;
  }

  // writeFrame is two sends (header, payload); the heartbeat thread and
  // the outcome path must not interleave halves of different frames.
  std::mutex writeMutex;
  BusyState busy;

  std::thread beater([&] {
    const auto interval =
        std::chrono::milliseconds(std::max<std::uint64_t>(
            1, welcome->heartbeatMs));
    for (;;) {
      Heartbeat beat;
      {
        const std::lock_guard<std::mutex> guard(busy.mutex);
        if (busy.stop) break;
        beat.busyTest = busy.busyTest;
        if (busy.busyTest != 0) {
          beat.busyMs = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  BeatClock::now() - busy.busySince)
                  .count());
        }
      }
      {
        const std::lock_guard<std::mutex> guard(writeMutex);
        if (!util::writeFrame(fd, encodeHeartbeat(beat))) break;
      }
      // Sleeps out the interval unless the worker stops first, so an exit
      // never waits for the next beat.
      std::unique_lock<std::mutex> lock(busy.mutex);
      if (busy.stopped.wait_for(lock, interval, [&] { return busy.stop; })) {
        break;
      }
    }
  });
  const auto finish = [&](int code) {
    {
      const std::lock_guard<std::mutex> guard(busy.mutex);
      busy.stop = true;
    }
    busy.stopped.notify_all();
    beater.join();
    shard.close();
    util::closeFd(fd);
    return code;
  };

  for (;;) {
    const auto frame = util::readFrame(fd);
    if (!frame) return finish(kWorkerExitLostPeer);
    const MessageKind kind = kindOf(*frame);
    if (kind == MessageKind::kShutdown) return finish(kWorkerExitClean);
    if (kind == MessageKind::kUnknown) return finish(kWorkerExitLostPeer);
    if (kind != MessageKind::kAssign) continue;  // tolerate benign extras
    const auto assign = decodeAssign(*frame);
    if (!assign) return finish(kWorkerExitLostPeer);

    {
      const std::lock_guard<std::mutex> guard(busy.mutex);
      busy.busyTest = assign->test;
      busy.busySince = BeatClock::now();
    }
    const DoneEvent done = executeChecked(*executor, assign->test,
                                          assign->point);
    {
      const std::lock_guard<std::mutex> guard(busy.mutex);
      busy.busyTest = 0;
    }

    // Shard-before-frame ordering is the recovery contract: any outcome
    // the coordinator ever folded is also on disk in a shard, so a
    // coordinator kill plus --resume can re-fold it instead of
    // re-executing.
    if (hooks.crashBeforeShardWrite &&
        hooks.crashBeforeShardWrite(assign->test)) {
      return finish(kWorkerExitSimulated);
    }
    if (shard.isOpen() && !shard.append(encodeDone(done))) {
      return finish(kWorkerExitBadConfig);
    }
    if (hooks.crashAfterShardWrite &&
        hooks.crashAfterShardWrite(assign->test)) {
      return finish(kWorkerExitSimulated);
    }
    {
      const std::lock_guard<std::mutex> guard(writeMutex);
      if (!util::writeFrame(fd, encodeDone(done))) {
        return finish(kWorkerExitLostPeer);
      }
    }
  }
}

}  // namespace avd::campaign::fleet
