// Child-process utilities for the campaign fleet.
//
// The fleet coordinator owns worker *processes* so that a UB crash, abort,
// or OOM inside one scenario kills a worker, not the campaign. This module
// wraps the small POSIX surface that requires: spawning a worker over a
// Unix socketpair (fork + exec, never fork-without-exec — the coordinator
// is allowed to hold locks and threads), liveness checks, SIGKILL, reaping,
// and TCP plumbing for remote workers.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

struct pollfd;  // <poll.h>, included only by the implementation

namespace avd::util {

/// A spawned child connected to the parent by one end of a SOCK_STREAM
/// socketpair. The parent end carries FD_CLOEXEC so later children do not
/// inherit it.
struct SpawnedProcess {
  pid_t pid = -1;
  int fd = -1;  // parent's end of the socketpair
};

/// Fork+exec `argv` (argv[0] is the binary path) with the child's end of a
/// fresh socketpair dup'd onto file descriptor 3. nullopt when the
/// socketpair or fork fails; an exec failure surfaces as the child exiting
/// 127 (observed via processExited).
[[nodiscard]] std::optional<SpawnedProcess> spawnWithSocket(
    const std::vector<std::string>& argv);

/// The conventional descriptor number spawnWithSocket hands the child.
inline constexpr int kChildSocketFd = 3;

/// A connected SOCK_STREAM socketpair, both ends FD_CLOEXEC, for a worker
/// that runs as a thread of this process. nullopt on failure.
[[nodiscard]] std::optional<std::array<int, 2>> socketPair();

/// Nonblocking liveness probe: true once the child has exited (and reaps
/// it). Safe to call repeatedly; after the first true it keeps returning
/// true.
[[nodiscard]] bool processExited(pid_t pid);

/// SIGKILL. Harmless on an already-dead pid.
void killProcess(pid_t pid);

/// Blocking reap (waitpid, EINTR-safe). Returns the exit status if the
/// child was actually reaped here.
[[nodiscard]] std::optional<int> reapProcess(pid_t pid);

/// Absolute path of the running executable (/proc/self/exe), so a binary
/// can respawn itself in worker mode without knowing its install path.
[[nodiscard]] std::string selfExePath();

/// Listening TCP socket on `bindAddr`:`port` (0 = ephemeral). `bindAddr`
/// must be a dotted-quad IPv4 address; the default keeps remote workers on
/// loopback, which is the safe posture for a tool that spawns arbitrary
/// scenario executors. Returns the fd and the actually bound port. nullopt
/// on failure (including an unparsable address).
struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;
};
[[nodiscard]] std::optional<TcpListener> listenTcp(
    std::uint16_t port, const std::string& bindAddr = "127.0.0.1");

/// Accepts one pending connection (nonblocking); nullopt when none is
/// waiting or on error.
[[nodiscard]] std::optional<int> acceptTcp(int listenFd);

/// Blocking connect to host:port. nullopt on failure.
[[nodiscard]] std::optional<int> connectTcp(const std::string& host,
                                            std::uint16_t port);

/// Closes a descriptor and reports whether the kernel accepted the close.
/// Deliberately no EINTR retry: on Linux the descriptor is gone either
/// way, and retrying can close a descriptor another thread just opened.
/// Harmless on fd < 0 (returns true), so cleanup paths can call it
/// unconditionally.
bool closeFd(int fd);

/// poll(2) with the fleet's interruption convention: EINTR reads as "no
/// descriptor ready" (returns 0) so callers treat a delivered signal like
/// a timeout tick and re-enter their loop. Returns poll's count otherwise
/// (negative on real errors).
[[nodiscard]] int pollSockets(pollfd* fds, std::size_t count, int timeoutMs);

/// Installs a process-wide signal handler (std::signal). The handler must
/// be async-signal-safe; the fleet's handlers only set atomic flags.
void installSignalHandler(int signum, void (*handler)(int));

}  // namespace avd::util
