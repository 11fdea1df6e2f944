#include "core/idle_gates.hpp"

#include "common/check.hpp"
#include "common/error.hpp"

namespace cool {

IdleGates::IdleGates(std::uint32_t n_procs) : gates_(n_procs) {}

void IdleGates::wake(Gate& g) {
  // Empty critical section: a waiter is either already inside cv.wait (the
  // notify reaches it) or still before it while holding g.m (we block here
  // until it waits, and its predicate then sees the new version).
  { util::MutexLock l(g.m); }
  g.cv.notify_all();
}

void IdleGates::bump() {
  const std::uint64_t next = version_.fetch_add(1) + 1;
  if (util::check_level() == util::CheckLevel::kParanoid) {
    // Raise the monotonicity floor to the value this bump produced; no
    // assertion here (another thread's later bump may already have raised the
    // floor past ours), check_monotonic() owns the assert.
    std::uint64_t floor = floor_.load();
    while (floor < next && !floor_.compare_exchange_weak(floor, next)) {
    }
  }
}

void IdleGates::signal(topo::ProcId server) {
  // Seq-cst Dekker pairing with wait(): the version bump and the
  // sleeping-flag reads here, against the sleeping-flag store and version
  // read in the waiter, cannot both miss each other.
  bump();
  Gate& home_gate = gates_[server];
  if (home_gate.sleeping.load()) {
    wake(home_gate);
    return;
  }
  // Home server is busy; wake one idle processor so it can steal. Scan from
  // the home server's successor so bursts of spawns fan out over sleepers.
  const std::size_t P = gates_.size();
  for (std::size_t i = 1; i < P; ++i) {
    Gate& g = gates_[(server + i) % P];
    if (g.sleeping.load()) {
      wake(g);
      return;
    }
  }
}

void IdleGates::notify_all() {
  bump();
  for (Gate& g : gates_) wake(g);
}

void IdleGates::check_monotonic() const {
  // The version only ever fetch_add(1)s, so any previously observed value is
  // a valid floor. Read the floor first: it only ever holds a value the
  // version already reached, so a version read after it cannot be lower
  // unless the version moved backwards, even while other threads bump both.
  // Assert, then CAS-max the floor forward.
  std::uint64_t floor = floor_.load();
  const std::uint64_t v = version_.load();
  COOL_CHECK(v >= floor, "invariant: work version moved backwards");
  while (floor < v && !floor_.compare_exchange_weak(floor, v)) {
  }
}

std::uint64_t IdleGates::sleeps() const noexcept {
  std::uint64_t n = 0;
  for (const Gate& g : gates_) n += g.sleeps.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t IdleGates::wakeups() const noexcept {
  std::uint64_t n = 0;
  for (const Gate& g : gates_) n += g.wakeups.load(std::memory_order_relaxed);
  return n;
}

}  // namespace cool
