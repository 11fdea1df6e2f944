// Hysteresis governor — one gate per decision class.
//
// Adaptation without hysteresis oscillates: a rule fires on one noisy epoch,
// the actuator flips a policy bit, the next epoch the (now different) system
// fires the opposite rule, and the runtime thrashes between two bad states.
// The governor imposes two dampers on every decision class (keyed by a
// string such as "policy:steal_object_tasks" or "migrate:col[3]"):
//
//   * confirmation — the rule must fire on `confirm_epochs` *consecutive*
//     epochs before the actuator is admitted (a gap resets the streak), and
//   * cooldown — after admitting, the class is frozen for `cooldown_epochs`
//     further epochs, so no class can flip-flop inside its cooldown window.
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
  Governor(std::uint32_t confirm_epochs, std::uint32_t cooldown_epochs)
      : confirm_(confirm_epochs), cooldown_(cooldown_epochs) {}

  struct State {
    std::uint64_t streak = 0;         ///< Consecutive epochs the rule fired.
    std::uint64_t last_seen = kNever; ///< Epoch of the last firing.
    std::uint64_t cooldown_until = 0; ///< First epoch allowed to act again.
  };

  /// Record that `key`'s rule fired in `epoch` and decide whether its
  /// actuator may run now. Epochs are expected to be non-decreasing.
  bool admit(const std::string& key, std::uint64_t epoch) {
    State& st = states_[key];
    if (st.last_seen != kNever && st.last_seen + 1 == epoch) {
      ++st.streak;
    } else if (st.last_seen == epoch) {
      // Same epoch, second finding of the same class: no extra confirmation.
    } else {
      st.streak = 1;
    }
    st.last_seen = epoch;
    if (st.streak < confirm_) return false;
    if (epoch < st.cooldown_until) return false;
    st.cooldown_until = epoch + cooldown_ + 1;
    st.streak = 0;
    return true;
  }

  /// Inspection for tests and the adaptation log.
  [[nodiscard]] const std::map<std::string, State>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] std::uint32_t confirm_epochs() const noexcept { return confirm_; }
  [[nodiscard]] std::uint32_t cooldown_epochs() const noexcept {
    return cooldown_;
  }

 private:
  static constexpr std::uint64_t kNever = ~0ull;
  std::uint32_t confirm_;
  std::uint32_t cooldown_;
  std::map<std::string, State> states_;
};

/// Governor specialised for balancer-policy switches. A balancer swap is the
/// most disruptive actuator — it changes what every later idle acquire does
/// (Average moves whole batches of queued work where Stealing probes for one
/// task or set) — so on top of the plain
/// Governor's confirm/cooldown gate it enforces two extra dampers:
///
///   * dwell — at least `dwell_epochs` epochs must separate any two admitted
///     switches, across *all* decision classes (switching to Average and
///     right back to Stealing inside one dwell window is exactly the thrash
///     this exists to stop), and
///   * a lifetime cap — at most `max_switches` admitted switches per run.
///
/// Note the dwell/cap refusal happens *after* the base admit, so a refused
/// switch still consumes the class's streak and starts its cooldown; the
/// next attempt must re-confirm from scratch. That is intentional: pressure
/// observed during a dwell window is stale by the time the window opens.
class BalancerGovernor {
 public:
  BalancerGovernor(std::uint32_t confirm_epochs, std::uint32_t cooldown_epochs,
                   std::uint32_t dwell_epochs, std::uint32_t max_switches)
      : gov_(confirm_epochs, cooldown_epochs),
        dwell_(dwell_epochs),
        max_switches_(max_switches) {}

  /// Record that the switch class `key` wants to fire in `epoch` and decide
  /// whether the switch may happen now.
  bool admit(const std::string& key, std::uint64_t epoch) {
    if (!gov_.admit(key, epoch)) return false;
    if (switches_ >= max_switches_) return false;
    if (last_switch_ != kNever && epoch < last_switch_ + dwell_) return false;
    ++switches_;
    last_switch_ = epoch;
    return true;
  }

  [[nodiscard]] std::uint32_t switches() const noexcept { return switches_; }
  [[nodiscard]] std::uint64_t last_switch_epoch() const noexcept {
    return last_switch_;
  }
  [[nodiscard]] const Governor& base() const noexcept { return gov_; }

 private:
  static constexpr std::uint64_t kNever = ~0ull;
  Governor gov_;
  std::uint32_t dwell_;
  std::uint32_t max_switches_;
  std::uint32_t switches_ = 0;
  std::uint64_t last_switch_ = kNever;
};

}  // namespace cool::adaptive
