#include "obs/advisor_rules.hpp"

#include <algorithm>
#include <span>
#include <string>

namespace cool::obs {

const char* advice_kind_name(AdviceKind k) {
  switch (k) {
    case AdviceKind::kMigrateObject:
      return "migrate-object";
    case AdviceKind::kDistributeObject:
      return "distribute-object";
    case AdviceKind::kTaskAffinity:
      return "task-affinity";
    case AdviceKind::kWholeSetStealing:
      return "whole-set-stealing";
    case AdviceKind::kStealStorm:
      return "steal-storm";
    case AdviceKind::kIdleImbalance:
      return "idle-imbalance";
    case AdviceKind::kLatencyTarget:
      return "latency-target";
    case AdviceKind::kBandwidthBound:
      return "bandwidth-bound";
  }
  return "?";
}

namespace advisor {
namespace {

/// Cluster share of an object's misses that counts as dominant.
constexpr double kDominantFrac = 0.60;
/// Remote share of an object's misses worth acting on.
constexpr double kRemoteFrac = 0.40;
/// Affinity sets with fewer tasks in the interval are ignored.
constexpr std::uint64_t kMinSetTasks = 4;
/// Failed steal scans per successful steal that make a storm.
constexpr double kStealFailRatio = 4.0;
/// Busiest channel's busy share of the span at which memory is called
/// bandwidth-bound. Only a channel backend reports channels.
constexpr double kBandwidthSatFrac = 0.50;

/// Index of the largest entry and its share of the total (0 if empty).
struct Dominant {
  std::size_t index = 0;
  double share = 0.0;
  std::uint64_t total = 0;
};

Dominant dominant_of(std::span<const std::uint64_t> v) {
  Dominant d;
  for (std::size_t i = 0; i < v.size(); ++i) {
    d.total += v[i];
    if (v[i] > v[d.index]) d.index = i;
  }
  if (d.total > 0) {
    d.share = static_cast<double>(v[d.index]) / static_cast<double>(d.total);
  }
  return d;
}

void object_rules(const ProfileDelta& p, const AdvisorConfig& cfg,
                  std::vector<Finding>& out) {
  for (const ProfileDelta::Object& o : p.objects) {
    if (o.anonymous) continue;  // Can't hint what the app didn't name.
    const std::uint64_t misses = o.s.misses();
    if (misses < cfg.min_misses) continue;
    const double remote = misses == 0
                              ? 0.0
                              : static_cast<double>(o.s.remote_misses()) /
                                    static_cast<double>(misses);
    if (remote < kRemoteFrac) continue;

    const Dominant user = dominant_of(o.miss_from_cluster);
    const Dominant home = dominant_of(o.miss_home_cluster);
    const bool migrate = user.share >= kDominantFrac && home.total > 0 &&
                         user.index != home.index;
    const bool distribute =
        user.share < kDominantFrac && home.share >= kDominantFrac;
    if (!migrate && !distribute) continue;

    Finding f;
    f.kind = migrate ? AdviceKind::kMigrateObject
                     : AdviceKind::kDistributeObject;
    f.subject = o.name;
    f.weight = o.s.remote_stall_cycles;
    f.obj_addr = o.addr;
    f.obj_bytes = o.bytes;
    f.user_cluster = user.index;
    f.user_share = user.share;
    f.home_cluster = home.index;
    f.home_share = home.share;
    f.remote_frac = remote;
    f.remote_stall_cycles = o.s.remote_stall_cycles;
    out.push_back(std::move(f));
  }
}

void set_rules(const ProfileDelta& p, std::vector<Finding>& out) {
  for (const ProfileDelta::Set& s : p.sets) {
    if (s.tasks < kMinSetTasks || s.procs.size() <= 1) continue;
    Finding f;
    f.kind = hint_has_task_affinity(s.hint) ? AdviceKind::kWholeSetStealing
                                            : AdviceKind::kTaskAffinity;
    f.subject = s.label;
    f.weight = s.s.stall_cycles;
    f.set_key = s.key;
    f.hint = s.hint;
    f.set_tasks = s.tasks;
    f.set_stolen = s.stolen;
    f.set_procs = s.procs.size();
    f.stall_cycles = s.s.stall_cycles;
    out.push_back(std::move(f));
  }
}

void sched_rules(const Signals& m, const AdvisorConfig& cfg,
                 std::vector<Finding>& out) {
  const std::uint64_t failed = m.failed_steal_scans;
  const std::uint64_t steals = m.steals;
  if (failed >= cfg.min_failed_scans &&
      static_cast<double>(failed) >=
          kStealFailRatio * static_cast<double>(std::max<std::uint64_t>(
                                steals, 1))) {
    Finding f;
    f.kind = AdviceKind::kStealStorm;
    f.subject = "scheduler";
    f.weight = failed;
    f.failed_scans = failed;
    f.steals = steals;
    out.push_back(std::move(f));
  }

  const std::uint64_t busy = m.busy_cycles;
  const std::uint64_t idle = m.idle_cycles;
  const std::uint64_t span = busy + idle;
  if (span > 0) {
    const double idle_frac =
        static_cast<double>(idle) / static_cast<double>(span);
    if (idle_frac >= cfg.idle_frac) {
      Finding f;
      f.kind = AdviceKind::kIdleImbalance;
      f.subject = "scheduler";
      f.weight = idle;
      f.idle_frac = idle_frac;
      f.idle_cycles = idle;
      f.busy_cycles = busy;
      f.queued_max = m.queue_max_now;
      out.push_back(std::move(f));
    }
  }
}

/// Bandwidth-bound memory: the busiest channel's busy share of the span
/// crosses the saturation threshold (peak, not mean — a skewed workload
/// saturates the hot cluster's channels while the rest idle, and the peak
/// channel is what the tail queues behind). Only a channel backend can fire
/// this; the flat model reports no channels and the rule stays silent.
void channel_rules(const Signals& m, std::vector<Finding>& out) {
  if (m.chan_busy.empty() || m.span == 0) return;
  const std::uint64_t peak =
      *std::max_element(m.chan_busy.begin(), m.chan_busy.end());
  const double sat =
      static_cast<double>(peak) / static_cast<double>(m.span);
  if (sat < kBandwidthSatFrac) return;
  Finding f;
  f.kind = AdviceKind::kBandwidthBound;
  f.subject = "memory-channels";
  f.weight = m.chan_busy_total;
  f.saturation = sat;
  f.chan_count = m.chan_busy.size();
  f.chan_busy_cycles = m.chan_busy_total;
  f.queue_full_stalls = m.chan_queue_full_stalls;
  const std::uint64_t hits = m.chan_row_hits;
  const std::uint64_t rowtotal =
      hits + m.chan_row_misses + m.chan_row_conflicts;
  if (rowtotal > 0)
    f.row_hit_frac =
        static_cast<double>(hits) / static_cast<double>(rowtotal);
  out.push_back(std::move(f));
}

}  // namespace

Signals Signals::since(const Signals& older) const {
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  Signals d = *this;
  d.failed_steal_scans = sub(failed_steal_scans, older.failed_steal_scans);
  d.steals = sub(steals, older.steals);
  d.busy_cycles = sub(busy_cycles, older.busy_cycles);
  d.idle_cycles = sub(idle_cycles, older.idle_cycles);
  d.span = sub(span, older.span);
  const std::size_t n = std::min(chan_busy.size(), older.chan_busy.size());
  for (std::size_t i = 0; i < n; ++i) {
    d.chan_busy[i] = sub(chan_busy[i], older.chan_busy[i]);
  }
  d.chan_busy_total = sub(chan_busy_total, older.chan_busy_total);
  d.chan_queue_full_stalls =
      sub(chan_queue_full_stalls, older.chan_queue_full_stalls);
  d.chan_row_hits = sub(chan_row_hits, older.chan_row_hits);
  d.chan_row_misses = sub(chan_row_misses, older.chan_row_misses);
  d.chan_row_conflicts = sub(chan_row_conflicts, older.chan_row_conflicts);
  return d;
}

std::vector<Finding> evaluate(const ProfileDelta& p, const Signals& s,
                              const AdvisorConfig& cfg) {
  std::vector<Finding> out;
  object_rules(p, cfg, out);
  set_rules(p, out);
  sched_rules(s, cfg, out);
  channel_rules(s, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.obj_addr != b.obj_addr) return a.obj_addr < b.obj_addr;
    return a.set_key < b.set_key;
  });
  return out;
}

}  // namespace advisor
}  // namespace cool::obs
