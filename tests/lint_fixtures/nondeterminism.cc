// Seeded violations for R1 `nondeterminism`. NOT compiled — linted by
// lint_test.cpp, which expects one finding per marked line.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture {

int jitterMs() {
  return rand() % 50;  // VIOLATION: libc rand()
}

void seedFromWallClock() {
  srand(static_cast<unsigned>(time(nullptr)));  // VIOLATION: srand + time
}

unsigned hardwareEntropy() {
  std::random_device device;  // VIOLATION: std::random_device
  return device();
}

long long hostClockNs() {
  const auto now = std::chrono::steady_clock::now();  // VIOLATION: host clock
  return now.time_since_epoch().count();
}

// Legitimate uses that must NOT be flagged.
struct Scheduler {
  int time = 0;        // field named `time`, no call
  int rand;            // field named `rand`, no call
  int runtime(int t) { return time + t; }
};

int simClockRead();
int viaNamespace() { return sim::time(3); }  // qualified, not libc time()

}  // namespace fixture
