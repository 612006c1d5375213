#include "common/proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace avd::util {

[[nodiscard]] std::optional<SpawnedProcess> spawnWithSocket(
    const std::vector<std::string>& argv) {
  if (argv.empty()) return std::nullopt;

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return std::nullopt;
  // The parent's end must not leak into this child (it would hold the
  // coordinator<->sibling pipe open past the sibling's death) nor into any
  // later-spawned worker.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return std::nullopt;
  }

  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    if (sv[1] != kChildSocketFd) {
      if (::dup2(sv[1], kChildSocketFd) < 0) _exit(127);
      ::close(sv[1]);
    } else {
      // Clear any inherited CLOEXEC so the fd survives exec.
      ::fcntl(sv[1], F_SETFD, 0);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      cargv.push_back(const_cast<char*>(arg.c_str()));
    }
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    _exit(127);
  }

  ::close(sv[1]);
  return SpawnedProcess{pid, sv[0]};
}

[[nodiscard]] std::optional<std::array<int, 2>> socketPair() {
  std::array<int, 2> fds{};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds.data()) != 0) {
    return std::nullopt;
  }
  return fds;
}

bool processExited(pid_t pid) {
  if (pid <= 0) return true;
  int status = 0;
  const pid_t got = ::waitpid(pid, &status, WNOHANG);
  if (got == pid) return true;
  if (got < 0 && errno == ECHILD) return true;  // reaped earlier
  return false;
}

void killProcess(pid_t pid) {
  if (pid > 0) ::kill(pid, SIGKILL);
}

[[nodiscard]] std::optional<int> reapProcess(pid_t pid) {
  if (pid <= 0) return std::nullopt;
  int status = 0;
  for (;;) {
    const pid_t got = ::waitpid(pid, &status, 0);
    if (got == pid) return status;
    if (got < 0 && errno == EINTR) continue;
    return std::nullopt;  // already reaped (ECHILD) or not our child
  }
}

std::string selfExePath() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (len <= 0) return {};
  buffer[len] = '\0';
  return std::string(buffer);
}

[[nodiscard]] std::optional<TcpListener> listenTcp(
    std::uint16_t port, const std::string& bindAddr) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bindAddr.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return TcpListener{fd, ntohs(addr.sin_port)};
}

namespace {

// A fleet frame goes out as two small sends (header, payload), and a worker
// waits for each assignment. Nagle's algorithm would hold the second send
// until the peer's delayed ACK, about 40 ms a frame.
void setNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

[[nodiscard]] std::optional<int> acceptTcp(int listenFd) {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd >= 0) {
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      setNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return std::nullopt;
  }
}

[[nodiscard]] std::optional<int> connectTcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      setNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return std::nullopt;
  }
}

bool closeFd(int fd) {
  if (fd < 0) return true;
  return ::close(fd) == 0;
}

int pollSockets(pollfd* fds, std::size_t count, int timeoutMs) {
  const int ready = ::poll(fds, static_cast<nfds_t>(count), timeoutMs);
  if (ready < 0 && errno == EINTR) return 0;
  return ready;
}

void installSignalHandler(int signum, void (*handler)(int)) {
  std::signal(signum, handler);
}

}  // namespace avd::util
