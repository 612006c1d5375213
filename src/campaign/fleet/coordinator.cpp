#include "campaign/fleet/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avd/plugin.h"
#include "campaign/dedup.h"
#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "common/framing.h"

namespace avd::campaign::fleet {

namespace {

// Liveness deadlines, wedge budgets, and respawn backoff are operational
// concerns: they decide when the coordinator gives up on a worker process,
// never which scenarios are generated or what outcome a point produces.
// avd-lint: allow(nondeterminism)
using WatchClock = std::chrono::steady_clock;

constexpr WatchClock::time_point kNever{};

struct Slot {
  enum class Phase { kVacant, kConnecting, kActive, kBackoff, kRetired };
  Phase phase = Phase::kVacant;
  bool spawnedKind = false;  // launcher-owned; false = remote TCP slot
  pid_t pid = -1;
  int fd = -1;
  util::FrameReader reader;
  std::uint64_t incarnation = 0;        // valid while kActive
  WatchClock::time_point lastHeard{};   // any frame
  WatchClock::time_point respawnAt{};   // kBackoff: when to relaunch
  WatchClock::time_point wedgeAt{};     // kActive: current scenario deadline
  std::uint64_t backoffMs = 0;          // capped-exponential ladder position
  std::uint64_t assigned = 0;           // test it is executing; 0 = idle
};

}  // namespace

FleetCoordinator::FleetCoordinator(FleetOptions options,
                                   ExecutorFactory factory,
                                   PluginFactory plugins)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      plugins_(std::move(plugins)) {
  if (!factory_) throw std::runtime_error("fleet: null executor factory");
  if (options_.spawn + options_.remoteSlots == 0) {
    throw std::runtime_error("fleet: zero worker slots");
  }
  if (options_.batch == 0) options_.batch = 1;
  if (options_.heartbeatMs == 0) options_.heartbeatMs = 200;
  if (options_.campaign.checkpointEvery == 0) {
    options_.campaign.checkpointEvery = 16;
  }
  if (options_.remoteSlots > 0) {
    listener_ = util::listenTcp(options_.bindPort, options_.bindAddr);
    if (!listener_) {
      throw std::runtime_error("fleet: cannot bind TCP listener on " +
                               options_.bindAddr);
    }
  }
}

FleetCoordinator::~FleetCoordinator() {
  if (listener_ && listener_->fd >= 0) util::closeFd(listener_->fd);
}

std::uint16_t FleetCoordinator::listenPort() const {
  return listener_ ? listener_->port : 0;
}

CampaignResult FleetCoordinator::run() {
  auto probe = factory_();
  if (!probe) throw std::runtime_error("fleet: executor factory returned null");
  const core::Hyperspace& space = probe->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*probe, std::move(plugins),
                              options_.campaign.controller,
                              options_.campaign.seed);

  JournalWriter journal;
  JournalWriter* journalPtr = nullptr;
  if (!options_.campaign.outDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.campaign.outDir, ec);
    Manifest manifest;
    manifest.system = options_.campaign.system;
    manifest.seed = options_.campaign.seed;
    manifest.totalTests = options_.campaign.totalTests;
    manifest.workers = options_.spawn + options_.remoteSlots;
    manifest.checkpointEvery = options_.campaign.checkpointEvery;
    manifest.scenarioTimeoutMs = options_.campaign.scenarioTimeoutMs;
    manifest.mode = "fleet";
    manifest.batch = options_.batch;
    manifest.spawn = options_.spawn;
    manifest.heartbeatMs = options_.heartbeatMs;
    if (!writeManifest(options_.campaign.outDir, manifest) ||
        !journal.openFresh(journalPath(options_.campaign.outDir))) {
      throw std::runtime_error("fleet: cannot write to '" +
                               options_.campaign.outDir + "'");
    }
    journalPtr = &journal;
    // A fresh campaign truncates the journal, so shards from whatever
    // campaign previously lived here are stale history that a later
    // --resume would wrongly merge. Remove them now.
    removeShards(options_.campaign.outDir);
  }
  return drive(controller, space, journalPtr, ReplayState{}, {}, {},
               Checkpoint{});
}

CampaignResult FleetCoordinator::resume() {
  const std::string dir = options_.campaign.outDir;
  if (dir.empty()) throw std::runtime_error("fleet: resume requires outDir");
  const auto manifest = loadManifest(dir);
  if (!manifest) {
    throw std::runtime_error("fleet: missing/corrupt manifest in '" + dir +
                             "'");
  }
  if (manifest->mode != "fleet") {
    throw std::runtime_error(
        "fleet: '" + dir + "' holds a single-process campaign; resume it "
        "with `avd_cli campaign --resume`");
  }
  // The manifest is authoritative for everything that shapes the journal's
  // deterministic interleave: seed, budget, and the generation window
  // L = batch * workers. The spawn/remote split merely re-creates the
  // original fleet shape.
  options_.campaign.seed = manifest->seed;
  options_.campaign.totalTests =
      static_cast<std::size_t>(manifest->totalTests);
  options_.campaign.checkpointEvery = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->checkpointEvery));
  options_.campaign.scenarioTimeoutMs = manifest->scenarioTimeoutMs;
  options_.campaign.system = manifest->system;
  options_.batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(manifest->batch));
  options_.heartbeatMs = manifest->heartbeatMs ? manifest->heartbeatMs : 200;
  options_.spawn = static_cast<std::size_t>(
      std::min<std::uint64_t>(manifest->spawn, manifest->workers));
  options_.remoteSlots =
      static_cast<std::size_t>(manifest->workers) - options_.spawn;
  if (options_.remoteSlots > 0 && !listener_) {
    listener_ = util::listenTcp(options_.bindPort, options_.bindAddr);
  }

  const auto loaded = loadJournal(journalPath(dir));
  if (!loaded) {
    throw std::runtime_error("fleet: corrupt journal in '" + dir + "'");
  }

  auto probe = factory_();
  if (!probe) throw std::runtime_error("fleet: executor factory returned null");
  const core::Hyperspace& space = probe->space();
  std::vector<core::PluginPtr> plugins =
      plugins_ ? plugins_(space) : core::defaultPlugins(space);
  core::Controller controller(*probe, std::move(plugins),
                              options_.campaign.controller,
                              options_.campaign.seed);

  ReplayState replayed = replayJournal(controller, loaded->events);

  // Shards recover every outcome a worker completed that the coordinator's
  // journal never folded (coordinator killed, or its tail torn): re-fold
  // instead of re-execute. The whole merge goes to drive() — outcomes for
  // tests beyond the journal cut are matched up when the deterministic
  // generator re-reaches their test number.
  MergedShards merged = mergeShards(dir);

  JournalWriter journal;
  if (!journal.openResume(journalPath(dir), loaded->validBytes)) {
    throw std::runtime_error("fleet: cannot reopen journal in '" + dir + "'");
  }
  const Checkpoint carried = loadCheckpoint(dir).value_or(Checkpoint{});
  return drive(controller, space, &journal, std::move(replayed),
               std::move(merged.outcomes), std::move(merged.nextIncarnation),
               carried);
}

CampaignResult FleetCoordinator::drive(
    core::Controller& controller, const core::Hyperspace& space,
    JournalWriter* journal, ReplayState replayed,
    std::map<std::uint64_t, DoneEvent> preFolded,
    std::map<std::uint64_t, std::uint64_t> nextIncarnation,
    Checkpoint carried) {
  // A remote slot with no listener can never fill. resume() re-binds for
  // the manifest's remote slots; if that bind failed, fail as loudly as
  // the constructor does.
  if (options_.remoteSlots > 0 && !listener_) {
    throw std::runtime_error("fleet: cannot bind TCP listener on " +
                             options_.bindAddr);
  }
  CampaignResult result;
  result.failed = replayed.replayedFailed;
  result.timedOut = replayed.replayedTimedOut;
  result.respawns = static_cast<std::size_t>(carried.respawns);
  result.reassigned = static_cast<std::size_t>(carried.reassigned);
  result.workerCrashes = static_cast<std::size_t>(carried.workerCrashes);

  const std::size_t totalSlots = options_.spawn + options_.remoteSlots;
  const std::uint64_t window =
      static_cast<std::uint64_t>(options_.batch) * totalSlots;
  const std::uint64_t total = options_.campaign.totalTests;
  const std::uint64_t scenarioTimeoutMs = options_.campaign.scenarioTimeoutMs;
  const auto heartbeatDeadline = std::chrono::milliseconds(
      options_.heartbeatMs * std::max<std::uint64_t>(1,
                                                     options_.heartbeatMissFactor));
  const auto connectDeadline = std::chrono::milliseconds(std::max(
      options_.spawnGraceMs,
      options_.heartbeatMs * options_.heartbeatMissFactor));

  std::uint64_t nextTest = replayed.nextTest;
  std::uint64_t foldedThrough = controller.executedTests();
  std::map<std::uint64_t, core::GeneratedScenario> pendingScenarios =
      std::move(replayed.pending);
  // Shard-recovered outcomes satisfy their test the moment it exists:
  // replayed pending tests right now, journal-lost tests when topUp
  // re-reaches their number (generation is deterministic, outcomes are
  // pure functions of points — the shard line is the same bytes a live
  // worker would have framed).
  std::map<std::uint64_t, DoneEvent> shardRecovered = std::move(preFolded);
  shardRecovered.erase(shardRecovered.begin(),
                       shardRecovered.upper_bound(foldedThrough));
  std::map<std::uint64_t, DoneEvent> completedBuffer;
  std::set<std::uint64_t> unassigned;
  for (const auto& [test, scenario] : pendingScenarios) {
    const auto it = shardRecovered.find(test);
    if (it != shardRecovered.end()) {
      completedBuffer.emplace(test, std::move(it->second));
      shardRecovered.erase(it);
    } else {
      unassigned.insert(test);
    }
  }
  std::map<std::uint64_t, std::size_t> wedgeKills;
  std::size_t respawnsUsed = 0;
  bool draining = false;

  std::vector<Slot> slots(totalSlots);
  for (std::size_t s = 0; s < options_.spawn; ++s) {
    slots[s].spawnedKind = true;
  }
  // Whatever exits drive() — return or throw — no worker process and no
  // descriptor outlives it.
  struct Teardown {
    std::vector<Slot>* slots;
    ~Teardown() {
      for (Slot& slot : *slots) {
        if (slot.fd >= 0) util::closeFd(slot.fd);
        if (slot.pid > 0) {
          util::killProcess(slot.pid);
          (void)util::reapProcess(slot.pid);
        }
      }
    }
  } teardown{&slots};

  const auto appendLine = [&](const std::string& line) {
    if (journal == nullptr) return;
    if (!journal->append(line)) {
      throw std::runtime_error("fleet: journal append failed (disk full?)");
    }
  };

  const auto maybeCheckpoint = [&](bool force) {
    if (options_.campaign.outDir.empty()) return;
    if (!force && foldedThrough % options_.campaign.checkpointEvery != 0) {
      return;
    }
    // Journal bytes reach disk before the checkpoint that summarizes them.
    if (journal != nullptr) journal->sync();
    Checkpoint checkpoint;
    checkpoint.generated = nextTest - 1;
    checkpoint.completed = foldedThrough;
    checkpoint.maxImpact = controller.maxImpact();
    checkpoint.respawns = result.respawns;
    checkpoint.reassigned = result.reassigned;
    checkpoint.workerCrashes = result.workerCrashes;
    writeCheckpoint(options_.campaign.outDir, checkpoint);
  };

  // The determinism engine. Gen: top up greedily while fewer than `window`
  // scenarios are generated-but-unfolded. Fold: strictly in test order.
  // Together these make the journal's gen/done interleave a pure function
  // of (seed, window, total) — independent of worker timing, crashes, and
  // reassignment — so any kill point leaves a canonical prefix that resume
  // extends byte-identically.
  const auto topUp = [&] {
    while (nextTest <= total && (nextTest - 1) - foldedThrough < window) {
      core::GeneratedScenario scenario = controller.acquireScenario();
      GenEvent event;
      event.test = nextTest;
      event.point = scenario.point;
      event.generatedBy = scenario.generatedBy;
      event.parentImpact = scenario.parentImpact;
      event.pluginIndex = static_cast<std::int64_t>(scenario.pluginIndex);
      appendLine(encodeGen(event));
      pendingScenarios.emplace(nextTest, std::move(scenario));
      const auto recovered = shardRecovered.find(nextTest);
      if (recovered != shardRecovered.end()) {
        completedBuffer.emplace(nextTest, std::move(recovered->second));
        shardRecovered.erase(recovered);
      } else {
        unassigned.insert(nextTest);
      }
      ++nextTest;
    }
  };

  const auto foldReady = [&] {
    for (;;) {
      const auto it = completedBuffer.find(foldedThrough + 1);
      if (it == completedBuffer.end()) break;
      DoneEvent done = std::move(it->second);
      completedBuffer.erase(it);
      const auto scenIt = pendingScenarios.find(done.test);
      if (scenIt == pendingScenarios.end()) {
        throw std::runtime_error(
            "fleet: outcome for a scenario that was never generated");
      }
      controller.reportOutcome(std::move(scenIt->second), done.outcome);
      pendingScenarios.erase(scenIt);
      done.bestImpact = controller.maxImpact();
      appendLine(encodeDone(done));
      ++foldedThrough;
      result.failed += done.failed ? 1 : 0;
      result.timedOut += done.timedOut ? 1 : 0;
      maybeCheckpoint(false);
      topUp();
    }
  };

  const auto closeSlotConn = [&](Slot& slot) {
    if (slot.fd >= 0) {
      util::closeFd(slot.fd);
      slot.fd = -1;
    }
    slot.reader = util::FrameReader{};
    if (slot.pid > 0) {
      util::killProcess(slot.pid);
      (void)util::reapProcess(slot.pid);
      slot.pid = -1;
    }
  };

  const auto nextBackoff = [&](Slot& slot) {
    slot.backoffMs = slot.backoffMs == 0
                         ? std::max<std::uint64_t>(1,
                                                   options_.respawnBackoffBaseMs)
                         : std::min(slot.backoffMs * 2,
                                    std::max<std::uint64_t>(
                                        1, options_.respawnBackoffCapMs));
  };

  const auto handleDeath = [&](std::size_t index, bool wedged,
                               WatchClock::time_point now) {
    Slot& slot = slots[index];
    ++result.workerCrashes;
    closeSlotConn(slot);
    const std::uint64_t test = slot.assigned;
    if (test != 0 && test > foldedThrough && !completedBuffer.contains(test)) {
      if (wedged && ++wedgeKills[test] >= options_.wedgeKillLimit) {
        // This point wedged multiple fresh workers; stop feeding it
        // workers and fold a timed-out zero outcome.
        DoneEvent done;
        done.test = test;
        done.timedOut = true;
        done.error = "scenario exceeded fleet wedge budget";
        completedBuffer.emplace(test, std::move(done));
      } else {
        unassigned.insert(test);
        ++result.reassigned;
      }
    }
    slot.assigned = 0;
    slot.wedgeAt = kNever;
    if (slot.spawnedKind) {
      if (respawnsUsed < options_.maxWorkerRespawns && options_.launcher) {
        ++respawnsUsed;
        nextBackoff(slot);
        slot.phase = Slot::Phase::kBackoff;
        slot.respawnAt = now + std::chrono::milliseconds(slot.backoffMs);
      } else {
        slot.phase = Slot::Phase::kRetired;
      }
    } else {
      // A remote slot just becomes vacant again; the next TCP worker to
      // connect takes it (no budget — remote workers are externally run).
      slot.phase = Slot::Phase::kVacant;
    }
  };

  const auto launchSlot = [&](std::size_t index, WatchClock::time_point now,
                              bool isRespawn) {
    Slot& slot = slots[index];
    if (!options_.launcher) {
      slot.phase = Slot::Phase::kRetired;
      return;
    }
    const auto child = options_.launcher(index);
    if (!child) {
      if (respawnsUsed < options_.maxWorkerRespawns) {
        ++respawnsUsed;
        nextBackoff(slot);
        slot.phase = Slot::Phase::kBackoff;
        slot.respawnAt = now + std::chrono::milliseconds(slot.backoffMs);
      } else {
        slot.phase = Slot::Phase::kRetired;
      }
      return;
    }
    slot.pid = child->pid;
    slot.fd = child->fd;
    slot.reader = util::FrameReader{};
    slot.phase = Slot::Phase::kConnecting;
    slot.lastHeard = now;
    if (isRespawn) ++result.respawns;
  };

  const auto activate = [&](std::size_t index, WatchClock::time_point now) {
    Slot& slot = slots[index];
    slot.incarnation = nextIncarnation[index]++;
    Welcome welcome;
    welcome.slot = index;
    welcome.incarnation = slot.incarnation;
    welcome.system = options_.campaign.system;
    welcome.seed = options_.campaign.seed;
    welcome.outDir = options_.campaign.outDir;
    welcome.heartbeatMs = options_.heartbeatMs;
    if (!util::writeFrame(slot.fd, encodeWelcome(welcome))) {
      handleDeath(index, false, now);
      return;
    }
    slot.phase = Slot::Phase::kActive;
    slot.lastHeard = now;
  };

  /// Returns false when the frame is a protocol violation (caller tears
  /// the slot down). May itself tear the slot down (slot.fd becomes -1).
  const auto handleFrame = [&](std::size_t index, const std::string& payload,
                               WatchClock::time_point now) -> bool {
    Slot& slot = slots[index];
    slot.lastHeard = now;
    switch (kindOf(payload)) {
      case MessageKind::kHello:
        if (slot.phase == Slot::Phase::kConnecting) activate(index, now);
        return slot.phase == Slot::Phase::kActive;
      case MessageKind::kHeartbeat:
        return decodeHeartbeat(payload).has_value();
      case MessageKind::kOutcome: {
        const auto event = decodeLine(payload);
        if (!event || event->kind != JournalEvent::Kind::kDone) return false;
        const std::uint64_t test = event->done.test;
        if (slot.assigned == test) {
          slot.assigned = 0;
          slot.wedgeAt = kNever;
        }
        slot.backoffMs = 0;  // a delivered outcome resets the backoff ladder
        if (test > foldedThrough && !completedBuffer.contains(test) &&
            pendingScenarios.contains(test)) {
          completedBuffer.emplace(test, event->done);
          unassigned.erase(test);
        }
        return true;
      }
      default:
        return false;
    }
  };

  // One scenario per worker at a time: a queue behind a busy worker would
  // only idle the others at the in-order fold.
  const auto assignWork = [&](WatchClock::time_point now) {
    if (draining) return;
    for (std::size_t s = 0; s < slots.size() && !unassigned.empty(); ++s) {
      Slot& slot = slots[s];
      if (slot.phase != Slot::Phase::kActive || slot.assigned != 0) continue;
      const std::uint64_t test = *unassigned.begin();
      Assign assign;
      assign.test = test;
      assign.point = pendingScenarios.at(test).point;
      if (!util::writeFrame(slot.fd, encodeAssign(assign))) {
        handleDeath(s, false, now);
        continue;
      }
      unassigned.erase(unassigned.begin());
      slot.assigned = test;
      if (scenarioTimeoutMs > 0) {
        slot.wedgeAt = now + std::chrono::milliseconds(scenarioTimeoutMs);
      }
    }
  };

  const auto startAt = WatchClock::now();
  const auto anyProgressPossible = [&](WatchClock::time_point now) {
    for (const Slot& slot : slots) {
      if (slot.phase == Slot::Phase::kActive ||
          slot.phase == Slot::Phase::kConnecting ||
          slot.phase == Slot::Phase::kBackoff) {
        return true;
      }
      // An empty remote slot counts as hope only during the startup grace
      // window; past that, an all-dead fleet aborts instead of waiting
      // forever for a worker that may never connect.
      if (slot.phase == Slot::Phase::kVacant && !slot.spawnedKind &&
          listener_ &&
          now < startAt + std::chrono::milliseconds(options_.spawnGraceMs)) {
        return true;
      }
    }
    return false;
  };

  for (std::size_t s = 0; s < options_.spawn; ++s) {
    launchSlot(s, startAt, false);
  }
  // Order matters on resume: a torn journal can owe gen lines at the
  // replayed fold point (the canonical interleave puts gen(k+window) right
  // after done(k)), so the window must be topped up BEFORE the first
  // shard-recovered outcome folds and appends its done line.
  topUp();
  foldReady();  // resume: fold the shard-recovered contiguous prefix

  for (;;) {
    foldReady();
    if (foldedThrough >= total) break;
    if (options_.drainFlag != nullptr &&
        options_.drainFlag->load(std::memory_order_relaxed)) {
      draining = true;
    }
    const auto now = WatchClock::now();
    assignWork(now);

    const bool outstanding = std::any_of(
        slots.begin(), slots.end(),
        [](const Slot& slot) { return slot.assigned != 0; });
    if (!outstanding) {
      if (draining) break;  // drained: all assigned work has folded
      if (!anyProgressPossible(now)) {
        result.aborted = true;
        break;
      }
    }

    // Poll every live descriptor until the nearest operational deadline.
    std::vector<pollfd> fds;
    std::vector<std::size_t> fdSlot;  // parallel; SIZE_MAX = TCP listener
    if (listener_) {
      fds.push_back(pollfd{listener_->fd, POLLIN, 0});
      fdSlot.push_back(SIZE_MAX);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].fd >= 0) {
        fds.push_back(pollfd{slots[s].fd, POLLIN, 0});
        fdSlot.push_back(s);
      }
    }
    WatchClock::time_point nearest =
        now + std::chrono::milliseconds(100);  // pid-liveness tick floor
    for (const Slot& slot : slots) {
      switch (slot.phase) {
        case Slot::Phase::kActive:
          if (slot.wedgeAt != kNever) {
            nearest = std::min(nearest, slot.wedgeAt);
          }
          nearest = std::min(nearest, slot.lastHeard + heartbeatDeadline);
          break;
        case Slot::Phase::kConnecting:
          nearest = std::min(nearest, slot.lastHeard + connectDeadline);
          break;
        case Slot::Phase::kBackoff:
          nearest = std::min(nearest, slot.respawnAt);
          break;
        default:
          break;
      }
    }
    const auto waitMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                            nearest - now)
                            .count();
    const int timeoutMs =
        static_cast<int>(std::clamp<long long>(waitMs, 1, 1000));
    const int ready = util::pollSockets(fds.data(), fds.size(), timeoutMs);
    if (ready < 0) {
      throw std::runtime_error("fleet: poll failed");
    }

    const auto afterPoll = WatchClock::now();
    for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fdSlot[i] == SIZE_MAX) {
        const auto accepted = util::acceptTcp(listener_->fd);
        if (!accepted) continue;
        std::size_t vacancy = SIZE_MAX;
        for (std::size_t s = options_.spawn; s < slots.size(); ++s) {
          if (slots[s].phase == Slot::Phase::kVacant) {
            vacancy = s;
            break;
          }
        }
        if (vacancy == SIZE_MAX) {
          util::closeFd(*accepted);  // no room: refuse politely
          continue;
        }
        Slot& slot = slots[vacancy];
        slot.fd = *accepted;
        slot.reader = util::FrameReader{};
        slot.phase = Slot::Phase::kConnecting;
        slot.lastHeard = afterPoll;
        continue;
      }
      const std::size_t s = fdSlot[i];
      Slot& slot = slots[s];
      if (slot.fd != fds[i].fd) continue;  // torn down earlier this sweep
      if (!slot.reader.pump(slot.fd)) {
        handleDeath(s, false, afterPoll);
        continue;
      }
      for (;;) {
        const auto frame = slot.reader.next();
        if (!frame) {
          if (slot.reader.corrupt() && slot.fd >= 0) {
            handleDeath(s, false, afterPoll);
          }
          break;
        }
        if (!handleFrame(s, *frame, afterPoll)) {
          if (slot.fd >= 0) handleDeath(s, false, afterPoll);
          break;
        }
        if (slot.fd < 0) break;  // died inside handleFrame
      }
    }

    // Deadline sweep: dead processes, wedged scenarios, silent workers,
    // and elapsed respawn backoffs.
    const auto tick = WatchClock::now();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if ((slot.phase == Slot::Phase::kConnecting ||
           slot.phase == Slot::Phase::kActive) &&
          slot.pid > 0 && util::processExited(slot.pid)) {
        slot.pid = -1;  // processExited already reaped it
        handleDeath(s, false, tick);
        continue;
      }
      if (slot.phase == Slot::Phase::kActive) {
        if (slot.wedgeAt != kNever && tick >= slot.wedgeAt) {
          handleDeath(s, true, tick);
          continue;
        }
        if (tick >= slot.lastHeard + heartbeatDeadline) {
          handleDeath(s, false, tick);
        }
      } else if (slot.phase == Slot::Phase::kConnecting) {
        if (tick >= slot.lastHeard + connectDeadline) {
          handleDeath(s, false, tick);
        }
      } else if (slot.phase == Slot::Phase::kBackoff) {
        if (tick >= slot.respawnAt) launchSlot(s, tick, true);
      }
    }
  }

  // Graceful teardown: shutdown frames let workers exit 0; EOF covers any
  // that miss it; reap so nothing is left as a zombie. Every worker hears
  // its shutdown before the first reap, so they exit in parallel.
  for (Slot& slot : slots) {
    if (slot.fd >= 0) {
      (void)util::writeFrame(slot.fd, encodeShutdown());
      util::closeFd(slot.fd);
      slot.fd = -1;
    }
  }
  for (Slot& slot : slots) {
    if (slot.pid > 0) {
      (void)util::reapProcess(slot.pid);
      slot.pid = -1;
    }
  }

  result.history = controller.history();
  result.executed = result.history.size();
  result.maxImpact = controller.maxImpact();
  result.classes = dedupVulnerabilities(space, result.history,
                                        options_.campaign.dedupMinImpact);
  maybeCheckpoint(true);
  return result;
}

}  // namespace avd::campaign::fleet
