// Hysteresis governor — one gate per decision class.
//
// Adaptation without hysteresis oscillates: a rule fires on one noisy epoch,
// the actuator flips a policy bit, the next epoch the (now different) system
// fires the opposite rule, and the runtime thrashes between two bad states.
// The governor imposes a cooldown on every decision class (keyed by a string
// such as "policy:steal_object_tasks" or "migrate:col[3]"): after admitting,
// the class is frozen for `cooldown_epochs` further epochs, so no class can
// flip-flop inside its cooldown window. A rule's first firing is admitted.
//
// Deterministic by construction: state lives in an ordered map and is driven
// only by (key, epoch) pairs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace cool::adaptive {

class Governor {
 public:
  explicit Governor(std::uint32_t cooldown_epochs)
      : cooldown_(cooldown_epochs) {}

  /// Record that `key`'s rule fired in `epoch` and decide whether its
  /// actuator may run now. Epochs are expected to be non-decreasing.
  bool admit(const std::string& key, std::uint64_t epoch) {
    std::uint64_t& until = cooldown_until_[key];
    if (epoch < until) return false;
    until = epoch + cooldown_ + 1;
    return true;
  }

  [[nodiscard]] std::uint32_t cooldown_epochs() const noexcept {
    return cooldown_;
  }

 private:
  std::uint32_t cooldown_;
  /// First epoch each class may act again.
  std::map<std::string, std::uint64_t> cooldown_until_;
};

/// Governor specialised for balancer-policy switches. A balancer swap is the
/// most disruptive actuator — it changes what every later idle acquire does
/// (Average moves whole batches of queued work where Stealing probes for one
/// task or set) — so on top of the plain Governor's cooldown it enforces two
/// extra dampers:
///
///   * dwell — at least `dwell_epochs` epochs must separate any two admitted
///     switches, across *all* decision classes (switching to Average and
///     right back to Stealing inside one dwell window is exactly the thrash
///     this exists to stop), and
///   * a lifetime cap — at most kMaxSwitches admitted switches per run.
///
/// Note the dwell/cap refusal happens *after* the base admit, so a refused
/// switch still starts its class's cooldown. That is intentional: pressure
/// observed during a dwell window is stale by the time the window opens.
class BalancerGovernor {
 public:
  static constexpr std::uint32_t kMaxSwitches = 4;

  BalancerGovernor(std::uint32_t cooldown_epochs, std::uint32_t dwell_epochs)
      : gov_(cooldown_epochs), dwell_(dwell_epochs) {}

  /// Record that the switch class `key` wants to fire in `epoch` and decide
  /// whether the switch may happen now.
  bool admit(const std::string& key, std::uint64_t epoch) {
    if (!gov_.admit(key, epoch)) return false;
    if (switches_ >= kMaxSwitches) return false;
    if (last_switch_ != kNever && epoch < last_switch_ + dwell_) return false;
    ++switches_;
    last_switch_ = epoch;
    return true;
  }

  [[nodiscard]] std::uint32_t switches() const noexcept { return switches_; }
  [[nodiscard]] std::uint64_t last_switch_epoch() const noexcept {
    return last_switch_;
  }

 private:
  static constexpr std::uint64_t kNever = ~0ull;
  Governor gov_;
  std::uint32_t dwell_;
  std::uint32_t switches_ = 0;
  std::uint64_t last_switch_ = kNever;
};

}  // namespace cool::adaptive
