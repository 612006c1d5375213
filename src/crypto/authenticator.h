// MAC authenticators and the per-node MAC service.
//
// PBFT messages sent to multiple replicas carry an *authenticator*: a vector
// with one MAC per replica, each computed under the sender-replica session
// key. Receivers can only check their own entry — the asymmetry at the heart
// of the Big MAC attack, where a faulty client ships an authenticator that
// is valid for the primary but garbage for the backups.
//
// MacService is the per-node entry point for MAC generation. It counts
// generateMAC calls and consults an optional MacFaultPolicy before emitting
// each tag; the AVD MAC-corruption tool (§6 of the paper) is implemented as
// such a policy keyed on "call index mod 12" (see faultinject/mac_corruptor).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "crypto/keychain.h"
#include "crypto/mac.h"

namespace avd::crypto {

/// One MAC per replica, indexed by replica id.
struct Authenticator {
  std::vector<MacTag> tags;

  bool hasEntryFor(util::NodeId replica) const noexcept {
    return replica < tags.size();
  }
};

/// Decides, per generateMAC call, whether the emitted tag is corrupted.
/// Implementations live in the fault-injection library.
class MacFaultPolicy {
 public:
  virtual ~MacFaultPolicy() = default;

  /// `callIndex` is the zero-based index of this generateMAC invocation at
  /// the owning node; `target` is the node the MAC is addressed to.
  virtual bool shouldCorrupt(std::uint64_t callIndex, util::NodeId target) = 0;
};

/// Per-node MAC generation and verification facade.
class MacService {
 public:
  MacService(util::NodeId self, const Keychain* keychain) noexcept
      : self_(self), keychain_(keychain) {}

  /// Generates the MAC of `digest` for `target`. Counts as one generateMAC
  /// call and applies the installed fault policy, if any (a corrupted tag is
  /// the correct tag with all bits inverted — unverifiable but well-formed).
  MacTag generate(util::NodeId target, std::uint64_t digest);

  /// Verifies a tag received from `from`. Never counted, never corrupted:
  /// verification is a local operation of the (correct) receiver.
  bool verify(util::NodeId from, std::uint64_t digest, MacTag tag) const noexcept;

  /// Builds an authenticator with entries for replicas [0, replicaCount).
  /// Performs replicaCount generateMAC calls, in increasing replica order —
  /// the call-counting contract the 12-bit corruption bitmask relies on.
  Authenticator authenticate(std::uint64_t digest, std::uint32_t replicaCount);

  /// Installs (or clears, with nullptr) the MAC fault policy.
  void setFaultPolicy(std::shared_ptr<MacFaultPolicy> policy) noexcept {
    faultPolicy_ = std::move(policy);
  }

  std::uint64_t generateCallCount() const noexcept { return generateCalls_; }
  util::NodeId self() const noexcept { return self_; }

 private:
  /// Session key shared with `peer`, derived once per peer and cached; the
  /// cache makes verify() write, so a MacService serves one thread. Ids
  /// from kCachedPeers up (no deployment has that many nodes) are derived
  /// on every call rather than growing the cache to reach them.
  MacKey sessionKey(util::NodeId peer) const;
  static constexpr util::NodeId kCachedPeers = 1u << 16;

  util::NodeId self_;
  const Keychain* keychain_;
  std::shared_ptr<MacFaultPolicy> faultPolicy_;
  std::uint64_t generateCalls_ = 0;
  mutable std::vector<std::optional<MacKey>> sessionKeys_;
};

}  // namespace avd::crypto
