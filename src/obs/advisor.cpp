#include "obs/advisor.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/json.hpp"

namespace cool::obs {
namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

/// Render one structured finding as prose. The numbers were computed by the
/// rule engine (advisor_rules.cpp); this only formats them.
Advice render(const advisor::Finding& f) {
  Advice a;
  a.kind = f.kind;
  a.subject = f.subject;
  a.weight = f.weight;
  switch (f.kind) {
    case AdviceKind::kMigrateObject:
      a.diagnosis = fmt(
          "%.0f%% of '%s' misses issue from cluster %zu but %.0f%% are "
          "serviced by cluster %zu (%.0f%% of misses remote, %" PRIu64
          " remote-stall cycles)",
          100.0 * f.user_share, f.subject.c_str(), f.user_cluster,
          100.0 * f.home_share, f.home_cluster, 100.0 * f.remote_frac,
          f.remote_stall_cycles);
      a.suggestion = fmt(
          "migrate '%s' to cluster %zu (or give its tasks OBJECT affinity so "
          "the scheduler sends them to the data)",
          f.subject.c_str(), f.user_cluster);
      break;
    case AdviceKind::kDistributeObject:
      a.diagnosis = fmt(
          "'%s' is used from every cluster (top user holds only %.0f%% of "
          "misses) yet %.0f%% of misses are serviced by cluster %zu (%" PRIu64
          " remote-stall cycles)",
          f.subject.c_str(), 100.0 * f.user_share, 100.0 * f.home_share,
          f.home_cluster, f.remote_stall_cycles);
      a.suggestion = fmt(
          "distribute '%s' across cluster memories (per-cluster strips or "
          "round-robin pages) to spread the bandwidth demand",
          f.subject.c_str());
      break;
    case AdviceKind::kWholeSetStealing:
      a.diagnosis = fmt(
          "task-affinity set '%s' (%" PRIu64 " tasks, hint %s) ran on %zu "
          "processors — %" PRIu64 " of its tasks were stolen piecemeal, so "
          "the set's cache reuse is lost",
          f.subject.c_str(), f.set_tasks, hint_class_name(f.hint), f.set_procs,
          f.set_stolen);
      a.suggestion = fmt(
          "enable whole-set stealing (Policy::steal_whole_sets) so '%s' "
          "moves between processors as a unit",
          f.subject.c_str());
      break;
    case AdviceKind::kTaskAffinity:
      a.diagnosis = fmt(
          "%" PRIu64 " tasks share '%s' (hint %s) but ran on %zu processors "
          "(%" PRIu64 " stolen), refetching the same lines on each",
          f.set_tasks, f.subject.c_str(), hint_class_name(f.hint), f.set_procs,
          f.set_stolen);
      a.suggestion = fmt(
          "add TASK affinity on '%s' so its tasks queue on one processor and "
          "run back-to-back",
          f.subject.c_str());
      break;
    case AdviceKind::kStealStorm:
      a.diagnosis = fmt("%" PRIu64 " steal scans failed against %" PRIu64
                        " successful steals — idle processors are scanning "
                        "empty queues, not finding surplus work",
                        f.failed_scans, f.steals);
      a.suggestion =
          "create more tasks (finer decomposition) or relax affinity so "
          "queued work is visible to idle processors";
      break;
    case AdviceKind::kIdleImbalance:
      a.diagnosis =
          fmt("processors idle %.0f%% of the span (%" PRIu64 " idle vs %" PRIu64
              " busy cycles)",
              100.0 * f.idle_frac, f.idle_cycles, f.busy_cycles);
      a.suggestion =
          "rebalance: more/smaller tasks, or weaker PROCESSOR pinning so the "
          "scheduler can move work";
      break;
    case AdviceKind::kLatencyTarget:
      // Online-only rule: the offline advisor never emits it (it needs the
      // adaptive engine's per-epoch latency sensor), but render it anyway so
      // a decision log replayed through the advisor formats cleanly.
      a.diagnosis = fmt("request p99 latency above the adaptation target on "
                        "'%s'", f.subject.c_str());
      a.suggestion =
          "relax affinity (steal_object_tasks) or escalate the balancer so "
          "queued requests spread off the hot home";
      break;
    case AdviceKind::kBandwidthBound:
      a.diagnosis = fmt(
          "the hottest memory channel is %.0f%% busy over the span (%" PRIu64
          " service cycles across %" PRIu64 " channels, %.0f%% row hits, "
          "%" PRIu64 " queue-full stalls) — fills queue behind bandwidth, "
          "not distance",
          100.0 * f.saturation, f.chan_busy_cycles, f.chan_count,
          100.0 * f.row_hit_frac, f.queue_full_stalls);
      a.suggestion =
          "spread hot objects across cluster memories (distribute() / "
          "round-robin pages) so fills hit more channels; re-homing onto one "
          "memory cannot relieve a saturated channel";
      break;
  }
  return a;
}

}  // namespace

std::vector<Advice> advise(const ProfileSnapshot& p,
                           const advisor::Signals& signals) {
  const std::vector<advisor::Finding> findings =
      advisor::evaluate(ProfileDelta::of(p), signals);
  std::vector<Advice> out;
  out.reserve(findings.size());
  for (const advisor::Finding& f : findings) out.push_back(render(f));
  return out;
}

std::string advice_report(const std::vector<Advice>& advice) {
  if (advice.empty()) {
    return "== locality advisor ==\n  no advice: profile looks healthy\n";
  }
  std::string out = "== locality advisor ==\n";
  char buf[64];
  for (std::size_t i = 0; i < advice.size(); ++i) {
    const Advice& a = advice[i];
    std::snprintf(buf, sizeof buf, "  [%zu] %s: ", i + 1,
                  advice_kind_name(a.kind));
    out += buf;
    out += a.subject;
    out += "\n      finding: ";
    out += a.diagnosis;
    out += "\n      try:     ";
    out += a.suggestion;
    out += '\n';
  }
  return out;
}

std::string advice_json(const std::vector<Advice>& advice) {
  json::Writer w;
  w.begin_array();
  for (const Advice& a : advice) {
    w.begin_object();
    w.key("kind").string(advice_kind_name(a.kind));
    w.key("subject").string(a.subject);
    w.key("diagnosis").string(a.diagnosis);
    w.key("suggestion").string(a.suggestion);
    w.key("weight").uint_value(a.weight);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace cool::obs
