// PBFT client.
//
// Closed-loop: each client keeps exactly one request outstanding, sends it
// to the primary it currently believes in, and accepts the result once f+1
// replicas return matching replies. If no result arrives within the
// retransmission timeout the request is re-sent — broadcast to ALL replicas,
// which is what hands backups a directly-received copy and arms their
// view-change timers (the liveness mechanism both discovered attacks lean
// on).
//
// Malicious clients run this same protocol-correct loop; their maliciousness
// is injected orthogonally: a MacFaultPolicy corrupting selected generateMAC
// calls (the paper's MAC-corruption tool), and/or eager broadcasting (the
// colluding client's trick to keep backup timers resettable by the slow
// primary).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "crypto/authenticator.h"
#include "crypto/keychain.h"
#include "pbft/config.h"
#include "pbft/message.h"
#include "sim/node.h"

namespace avd::pbft {

/// Generates the operation payload for the i-th request of a client.
using OpGenerator = std::function<util::Bytes(util::RequestId)>;

/// Behaviour knobs for a (possibly malicious) client.
struct ClientBehavior {
  /// MAC fault policy installed on the client's MacService (nullptr = none).
  /// The AVD MAC-corruption tool supplies the Gray-coded bitmask policy.
  std::shared_ptr<crypto::MacFaultPolicy> macPolicy;

  /// Workload: operation payload per request (default: counter increment).
  OpGenerator opGenerator;

  /// Marks the i-th request read-only (tentative execution, 2f+1 matching
  /// replies required). Unset = never. A read-only request that stalls for
  /// two retransmission rounds is retried through the ordered path, per the
  /// protocol's fallback rule.
  std::function<bool(util::RequestId)> readOnlyPredicate;

  /// Send every request to all replicas immediately instead of only to the
  /// primary. Colluding clients do this so that backups hold their requests
  /// as directly-received — making each execution reset the backups' single
  /// request timer.
  bool broadcastRequests = false;

  /// Idle time between accepting a reply and issuing the next request.
  sim::Time thinkTime = 0;

  /// Retransmission backoff: the k-th retransmission of a request waits
  /// retxTimeout * min(retxBackoffFactor^k, retxBackoffCap), plus a uniform
  /// jitter in [0, retxJitter]. The defaults preserve the fixed cadence the
  /// paper's attacks are keyed to (the Big MAC corruption mask cycles with
  /// retransmission rounds); enabling cap + jitter desynchronizes the
  /// retransmit burst that otherwise slams a replica rejoining after a
  /// crash with every client's backlog at once.
  double retxBackoffFactor = 1.0;
  double retxBackoffCap = 8.0;
  sim::Time retxJitter = 0;
};

class Client final : public sim::Node {
 public:
  using OpGenerator = pbft::OpGenerator;

  /// The operation generator falls back to behavior.opGenerator, then to a
  /// 1-byte counter increment.
  Client(util::NodeId id, const Config& config,
         const crypto::Keychain* keychain, ClientBehavior behavior = {},
         sim::Time retxTimeout = sim::msec(150), OpGenerator opGenerator = {});

  void start() override;
  void receive(util::NodeId from, const sim::MessagePtr& message) override;

  // --- Measurement ----------------------------------------------------------
  struct Completion {
    sim::Time when;     // virtual completion time
    sim::Time latency;  // completion - issue
  };
  const std::vector<Completion>& completions() const noexcept {
    return completions_;
  }
  std::uint64_t issued() const noexcept { return issued_; }
  std::uint64_t completed() const noexcept { return completions_.size(); }
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  /// Requests completed through the tentative read-only path.
  std::uint64_t readOnlyCompleted() const noexcept {
    return readOnlyCompleted_;
  }
  /// Read-only requests that had to fall back to the ordered path.
  std::uint64_t readOnlyFallbacks() const noexcept {
    return readOnlyFallbacks_;
  }
  util::ViewId believedView() const noexcept { return believedView_; }
  crypto::MacService& macs() noexcept { return macs_; }

  /// Result bytes of the most recently completed request (for examples).
  const util::Bytes& lastResult() const noexcept { return lastResult_; }

 private:
  void issueNext();
  void transmit(bool broadcast);
  void onRetxTimer();
  void onReply(const ReplyMessage& reply);
  /// Delay before the next retransmission attempt (capped exponential
  /// backoff over currentRetx_, plus configured jitter).
  sim::Time retxDelay();

  Config config_;
  crypto::MacService macs_;
  ClientBehavior behavior_;
  sim::Time retxTimeout_;
  OpGenerator opGenerator_;

  util::RequestId nextTimestamp_ = 0;
  bool outstanding_ = false;
  util::RequestId currentTs_ = 0;
  util::Bytes currentOp_;
  bool currentReadOnly_ = false;
  std::uint32_t currentRetx_ = 0;
  std::uint64_t currentDigest_ = 0;
  sim::Time issueTime_ = 0;
  /// Result digest each replica replied with for the outstanding request,
  /// indexed by replica id (empty = no reply yet).
  std::vector<std::optional<std::uint64_t>> replyVotes_;

  util::ViewId believedView_ = 0;
  sim::TimerId retxTimer_ = 0;
  bool retxArmed_ = false;

  std::uint64_t issued_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t readOnlyCompleted_ = 0;
  std::uint64_t readOnlyFallbacks_ = 0;
  std::vector<Completion> completions_;
  util::Bytes lastResult_;
};

}  // namespace avd::pbft
