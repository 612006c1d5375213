#include "crypto/authenticator.h"

namespace avd::crypto {

MacTag MacService::generate(util::NodeId target, std::uint64_t digest) {
  const std::uint64_t callIndex = generateCalls_++;
  MacTag tag = computeMac(sessionKey(target), digest);
  if (faultPolicy_ && faultPolicy_->shouldCorrupt(callIndex, target)) {
    tag = ~tag;
  }
  return tag;
}

bool MacService::verify(util::NodeId from, std::uint64_t digest,
                        MacTag tag) const noexcept {
  return computeMac(sessionKey(from), digest) == tag;
}

MacKey MacService::sessionKey(util::NodeId peer) const {
  if (peer >= kCachedPeers) return keychain_->sessionKey(self_, peer);
  if (peer >= sessionKeys_.size()) sessionKeys_.resize(peer + 1);
  std::optional<MacKey>& key = sessionKeys_[peer];
  if (!key) key = keychain_->sessionKey(self_, peer);
  return *key;
}

Authenticator MacService::authenticate(std::uint64_t digest,
                                       std::uint32_t replicaCount) {
  Authenticator auth;
  auth.tags.reserve(replicaCount);
  for (util::NodeId replica = 0; replica < replicaCount; ++replica) {
    auth.tags.push_back(generate(replica, digest));
  }
  return auth;
}

}  // namespace avd::crypto
