// A deliberate lock-order inversion on two std::mutex: one thread takes A
// then B, and a second thread, started after the first has finished, takes
// B then A. The program never deadlocks, but the order graph has a cycle,
// so a ThreadSanitizer build must report a lock-order inversion. This is
// the standing check that the TSan leg, the repo's lock-order checker,
// catches an inversion.
#include <mutex>
#include <thread>

int main() {
  std::mutex a;
  std::mutex b;
  std::thread([&] {
    const std::lock_guard<std::mutex> first(a);
    const std::lock_guard<std::mutex> second(b);
  }).join();
  std::thread([&] {
    const std::lock_guard<std::mutex> first(b);
    const std::lock_guard<std::mutex> second(a);
  }).join();
  return 0;
}
