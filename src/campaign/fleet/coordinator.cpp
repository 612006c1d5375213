#include "campaign/fleet/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "campaign/ledger.h"
#include "common/framing.h"

namespace avd::campaign::fleet {

namespace {

// Liveness deadlines, wedge budgets, and respawn backoff are operational
// concerns: they decide when the coordinator gives up on a worker process,
// never which scenarios are generated or what outcome a point produces.
// avd-lint: allow(nondeterminism)
using WatchClock = std::chrono::steady_clock;

constexpr WatchClock::time_point kNever{};

/// Ceiling of the capped-exponential respawn backoff.
constexpr std::uint64_t kRespawnBackoffCapMs = 1000;

struct Slot {
  enum class Phase { kVacant, kConnecting, kActive, kBackoff, kRetired };
  Phase phase = Phase::kVacant;
  bool spawnedKind = false;  // launcher-owned; false = remote TCP slot
  pid_t pid = -1;
  int fd = -1;
  util::FrameReader reader;
  WatchClock::time_point lastHeard{};   // any frame
  WatchClock::time_point respawnAt{};   // kBackoff: when to relaunch
  WatchClock::time_point wedgeAt{};     // kActive: current scenario deadline
  std::uint64_t backoffMs = 0;          // capped-exponential ladder position
  std::uint64_t assigned = 0;           // test it is executing; 0 = idle
};

}  // namespace

FleetCoordinator::FleetCoordinator(FleetOptions options,
                                   ExecutorFactory factory)
    : options_(std::move(options)), factory_(std::move(factory)) {
  if (!factory_) throw std::runtime_error("fleet: null executor factory");
  if (options_.spawn + options_.remoteSlots == 0) {
    throw std::runtime_error("fleet: zero worker slots");
  }
  if (options_.batch == 0) options_.batch = 1;
  if (options_.heartbeatMs == 0) options_.heartbeatMs = 200;
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
  Manifest manifest;
  manifest.workers = options_.spawn + options_.remoteSlots;
  manifest.mode = "fleet";
  manifest.batch = options_.batch;
  manifest.spawn = options_.spawn;
  manifest.heartbeatMs = options_.heartbeatMs;
  Ledger ledger = Ledger::fresh(factory_, options_.campaign, manifest);
  // A fresh campaign truncates the journal, so shards from whatever
  // campaign previously lived here are stale history that a later
  // --resume would wrongly merge. Remove them now.
  if (!options_.campaign.outDir.empty()) {
    removeShards(options_.campaign.outDir);
  }
  return drive(ledger, {});
}

CampaignResult FleetCoordinator::resume() {
  Ledger ledger = Ledger::resume(factory_, options_.campaign);
  const Manifest& manifest = ledger.manifest();
  const std::string& dir = ledger.options().outDir;
  if (manifest.mode != "fleet") {
    throw std::runtime_error(
        "fleet: '" + dir + "' holds a single-process campaign; resume it "
        "with `avd_cli campaign --resume`");
  }
  // The manifest's fleet shape re-creates the window L = batch * workers.
  options_.batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(manifest.batch));
  options_.heartbeatMs = manifest.heartbeatMs ? manifest.heartbeatMs : 200;
  options_.spawn = static_cast<std::size_t>(
      std::min<std::uint64_t>(manifest.spawn, manifest.workers));
  options_.remoteSlots =
      static_cast<std::size_t>(manifest.workers) - options_.spawn;
  if (options_.remoteSlots > 0 && !listener_) {
    listener_ = util::listenTcp(options_.bindPort, options_.bindAddr);
  }
  // Shards hold every outcome a worker completed that the journal lost
  // (coordinator killed, or its tail torn): re-fold, do not re-execute.
  return drive(ledger, mergeShards(dir));
}

CampaignResult FleetCoordinator::drive(Ledger& ledger, MergedShards shards) {
  // A remote slot with no listener can never fill. resume() re-binds for
  // the manifest's remote slots; if that bind failed, fail as loudly as
  // the constructor does.
  if (options_.remoteSlots > 0 && !listener_) {
    throw std::runtime_error("fleet: cannot bind TCP listener on " +
                             options_.bindAddr);
  }
  const CampaignOptions& campaign = ledger.options();
  CampaignResult& result = ledger.result();

  const std::size_t totalSlots = options_.spawn + options_.remoteSlots;
  const auto heartbeatDeadline = std::chrono::milliseconds(
      options_.heartbeatMs * std::max<std::uint64_t>(1,
                                                     options_.heartbeatMissFactor));
  const auto connectDeadline = std::chrono::milliseconds(std::max(
      options_.spawnGraceMs,
      options_.heartbeatMs * options_.heartbeatMissFactor));

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

  // A local slot that died or failed to launch waits out a capped
  // exponential backoff while the respawn budget lasts, and retires after.
  const auto backOffOrRetire = [&](Slot& slot, WatchClock::time_point now) {
    if (respawnsUsed >= options_.maxWorkerRespawns || !options_.launcher) {
      slot.phase = Slot::Phase::kRetired;
      return;
    }
    ++respawnsUsed;
    slot.backoffMs = slot.backoffMs == 0
                         ? std::max<std::uint64_t>(1,
                                                   options_.respawnBackoffBaseMs)
                         : std::min(slot.backoffMs * 2, kRespawnBackoffCapMs);
    slot.phase = Slot::Phase::kBackoff;
    slot.respawnAt = now + std::chrono::milliseconds(slot.backoffMs);
  };

  const auto handleDeath = [&](std::size_t index, bool wedged,
                               WatchClock::time_point now) {
    Slot& slot = slots[index];
    ++result.workerCrashes;
    closeSlotConn(slot);
    const std::uint64_t test = slot.assigned;
    if (test != 0 && ledger.awaits(test)) {
      if (wedged && ++wedgeKills[test] >= options_.wedgeKillLimit) {
        // This point wedged multiple fresh workers; stop feeding it
        // workers and fold a timed-out zero outcome.
        DoneEvent done;
        done.test = test;
        done.timedOut = true;
        done.error = "scenario exceeded fleet wedge budget";
        ledger.report(std::move(done));
      } else {
        ++result.reassigned;  // unassigned now, so another worker takes it
      }
    }
    slot.assigned = 0;
    slot.wedgeAt = kNever;
    if (slot.spawnedKind) {
      backOffOrRetire(slot, now);
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
      backOffOrRetire(slot, now);
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
    Welcome welcome;
    welcome.slot = index;
    welcome.incarnation = shards.nextIncarnation[index]++;
    welcome.system = campaign.system;
    welcome.seed = campaign.seed;
    welcome.outDir = campaign.outDir;
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
        // A worker reports the one test it holds (only an active slot
        // holds one) and nothing else: any other outcome is forged or out
        // of sync, and is not folded.
        const auto event = decodeLine(payload);
        if (!event || event->kind != JournalEvent::Kind::kDone ||
            slot.assigned == 0 || event->done.test != slot.assigned) {
          return false;
        }
        slot.assigned = 0;
        slot.wedgeAt = kNever;
        slot.backoffMs = 0;  // a delivered outcome resets the backoff ladder
        ledger.report(event->done);
        return true;
      }
      default:
        return false;
    }
  };

  // The lowest test that awaits its outcome and no worker holds.
  const auto unassigned = [&] {
    std::uint64_t test = ledger.nextAwaiting();
    while (test != 0 &&
           std::any_of(slots.begin(), slots.end(), [test](const Slot& slot) {
             return slot.assigned == test;
           })) {
      test = ledger.nextAwaiting(test);
    }
    return test;
  };

  // One scenario per worker at a time: a queue behind a busy worker would
  // only idle the others at the in-order fold.
  const auto assignWork = [&](WatchClock::time_point now) {
    if (draining) return;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.phase != Slot::Phase::kActive || slot.assigned != 0) continue;
      const std::uint64_t test = unassigned();
      if (test == 0) break;
      Assign assign;
      assign.test = test;
      assign.point = ledger.point(test);
      if (!util::writeFrame(slot.fd, encodeAssign(assign))) {
        handleDeath(s, false, now);
        continue;
      }
      slot.assigned = test;
      if (campaign.scenarioTimeoutMs > 0) {
        slot.wedgeAt =
            now + std::chrono::milliseconds(campaign.scenarioTimeoutMs);
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
  // The window: batch scenarios per slot, so a free worker never waits
  // behind the in-order fold for work.
  ledger.start(static_cast<std::uint64_t>(options_.batch) * totalSlots,
               std::move(shards.outcomes));

  while (!ledger.finished()) {
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
  return ledger.finish();
}

}  // namespace avd::campaign::fleet
