// A simulator event that captures a local of the function that armed it
// by reference: the arming function returns, then run() fires the event,
// which reads the dead stack slot. An AddressSanitizer build run with
// detect_stack_use_after_return=1 must report stack-use-after-return. This
// is the standing check that the ASan leg catches a timer callback that
// outlives the state it captured by reference.
#include <cstdio>

#include "sim/simulator.h"

namespace {

// noinline keeps `deadline` in a frame of its own that really returns
// before the event fires.
[[gnu::noinline]] void armDeadline(avd::sim::Simulator& sim, int& fired) {
  int deadline = 42;
  sim.schedule(10, [&deadline, &fired] { fired = deadline; });
}

}  // namespace

int main() {
  avd::sim::Simulator sim(1);
  int fired = 0;
  armDeadline(sim, fired);
  sim.run();
  std::printf("event fired with %d\n", fired);
  return 0;
}
