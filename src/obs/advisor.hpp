// Locality advisor — turns a ProfileSnapshot plus the runtime's advisor
// signals into ranked, actionable tuning advice.
//
// This mechanises the paper's tuning loop (§6–§7): the authors looked at the
// DASH performance monitor, spotted the object with the most remote misses or
// the task set that lost reuse, and added the matching COOL affinity hint.
// Each rule below is one of those diagnoses:
//   * an object homed away from the cluster that uses it  -> migrate / OBJECT
//     affinity,
//   * an object used uniformly from everywhere but homed in one place ->
//     distribute it across cluster memories,
//   * tasks sharing an affinity object but scattered across processors ->
//     add TASK affinity so they run back-to-back,
//   * a task-affinity set split anyway (stolen piecemeal) -> steal whole sets,
//   * many failed steal scans -> the queues are starved, not imbalanced,
//   * high idle fraction -> genuine load imbalance.
// The advisor only reads snapshots; it never touches the live runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/advisor_rules.hpp"
#include "obs/profiler.hpp"

namespace cool::obs {

struct Advice {
  AdviceKind kind = AdviceKind::kMigrateObject;
  std::string subject;     ///< Object name or set label the advice is about.
  std::string diagnosis;   ///< What the profile shows.
  std::string suggestion;  ///< The COOL hint / policy change to try.
  std::uint64_t weight = 0;  ///< Ranking key (stall cycles at stake).
};

/// Run every rule over the profile and the scheduler/channel signals
/// (Runtime::advisor_signals()), each read as one interval, at the
/// whole-run thresholds (AdvisorConfig's defaults). Returns advice in
/// advisor::evaluate()'s order: descending weight, ties broken by subject.
std::vector<Advice> advise(const ProfileSnapshot& p,
                           const advisor::Signals& signals);

/// Human-readable rendering, one numbered block per advice.
std::string advice_report(const std::vector<Advice>& advice);

/// Deterministic JSON array of advice objects.
std::string advice_json(const std::vector<Advice>& advice);

}  // namespace cool::obs
