#include "adaptive/engine.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::adaptive {
namespace {

std::string fmt(const char* format, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

constexpr auto kAverage =
    static_cast<std::uint32_t>(sched::BalancerKind::kAverage);
constexpr auto kStealing =
    static_cast<std::uint32_t>(sched::BalancerKind::kStealing);

/// The finding a revert is logged under: the rule whose move it takes back.
obs::advisor::Finding scheduler_finding(obs::AdviceKind kind) {
  obs::advisor::Finding f;
  f.kind = kind;
  f.subject = "scheduler";
  return f;
}

}  // namespace

AdaptiveEngine::AdaptiveEngine(const topo::MachineConfig& machine,
                               AdaptPolicy policy, Hooks hooks)
    : machine_(machine),
      pol_(policy),
      hooks_(std::move(hooks)),
      gov_(policy.cooldown_epochs),
      bal_gov_(policy.cooldown_epochs, policy.balancer_dwell_epochs) {
  COOL_CHECK(hooks_.mutate_policy && hooks_.policy,
             "adaptive engine needs the mutate_policy and policy hooks");
}

std::uint64_t AdaptiveEngine::on_task_dispatch(topo::ProcId proc,
                                               std::uint64_t now) {
  ++tasks_since_;
  const bool by_tasks = pol_.epoch_tasks > 0 && tasks_since_ >= pol_.epoch_tasks;
  const bool by_cycles =
      pol_.epoch_cycles > 0 && now - last_epoch_cycle_ >= pol_.epoch_cycles;
  if (now > clock_hwm_) clock_hwm_ = now;
  if (!by_tasks && !by_cycles) return 0;
  tasks_since_ = 0;
  last_epoch_elapsed_ = clock_hwm_ - last_epoch_hwm_;
  last_epoch_hwm_ = clock_hwm_;
  last_epoch_cycle_ = now;
  return run_epoch(proc, now);
}

std::uint64_t AdaptiveEngine::run_epoch(topo::ProcId proc, std::uint64_t now) {
  ++epoch_;
  // The epoch's own activity: the profiler lists only what was touched since
  // its previous read, and the cumulative counters diff field by field.
  if (hooks_.profile) hooks_.profile(profile_);
  obs::advisor::Signals cur =
      hooks_.signals ? hooks_.signals() : obs::advisor::Signals{};
  const obs::advisor::Signals sig = cur.since(last_signals_);
  last_signals_ = std::move(cur);

  const std::vector<obs::advisor::Finding> findings =
      obs::advisor::evaluate(profile_, sig, kOnlineRules);

  std::uint64_t cost = kEpochCostCycles;
  std::uint32_t actions = 0;
  const std::uint64_t rehomes_before = rehomes_since_relief_;
  // The latency objective runs before the throughput findings so a serving
  // workload's tail-latency relief is first in line for the action budget.
  latency_objective(sig, now + cost, actions);
  for (const obs::advisor::Finding& f : findings) {
    if (actions >= pol_.max_actions_per_epoch) break;
    const std::size_t before = log_.size();
    cost += act(f, proc, now + cost);
    if (log_.size() > before) ++actions;
  }

  // The throughput-mode reverts. In serving mode the latency objective owns
  // both knobs and takes its own relief back on p99 headroom alone.
  if (pol_.latency_target_cycles != 0) return cost;
  const bool drained = sig.queue_max_now * 2 < machine_.n_procs;
  // Revert the steal-storm relief once rehoming has spread the data: with
  // the hot objects now homed next to (or across) their users, OBJECT tasks
  // are placed on useful processors and stealing them only trades locality
  // away. Wait for the rehome wave to dry up (an epoch with rehomes done but
  // none new) — reverting mid-wave strands the still-unmoved objects' tasks
  // on the old home — AND for the pile-up itself to drain: programs whose
  // hot set evolves (gauss's elimination front) pause rehoming for an epoch
  // while a deep queue still sits on the old home. The shared governor key
  // keeps enable/revert at least one cooldown apart; if imbalance returns,
  // the storm rule re-enables.
  if (steal_relief_ && rehomes_since_relief_ > 0 &&
      rehomes_since_relief_ == rehomes_before && drained) {
    move(scheduler_finding(obs::AdviceKind::kStealStorm),
         Knob::kStealObjectTasks, false, "data spread", now + cost);
  }
  // Revert the balancer escalation once the pile-up has drained: the Average
  // balancer's periodic equalisation is pure overhead on a balanced machine,
  // and reverting restores the Stealing balancer's byte-identical default
  // probe order. The BalancerGovernor's dwell keeps the switch and its revert
  // at least one dwell window apart, and the revert consumes one of the
  // lifetime switch slots like any other swap. (In serving mode a shallow
  // queue just means the escalation is *working*: under sustained hot-key
  // load the revert would reopen the very pile-up it is celebrating.)
  if (switched_balancer_ && drained &&
      hooks_.policy().balancer == sched::BalancerKind::kAverage) {
    move(scheduler_finding(obs::AdviceKind::kIdleImbalance), Knob::kBalancer,
         kStealing, "pile-up drained", now + cost);
  }
  return cost;
}

void AdaptiveEngine::latency_objective(const obs::advisor::Signals& sig,
                                       std::uint64_t now,
                                       std::uint32_t& actions) {
  if (pol_.latency_target_cycles == 0 || latency_sensor_ == nullptr) return;
  const obs::LatencyHist::Interval epoch =
      latency_sensor_->since(prev_latency_, 0.99);
  prev_latency_ = *latency_sensor_;
  // Decomposition sensor: read the component sums every epoch the objective
  // runs (consecutive readings must pair up, so this happens before any
  // early return below) and judge which component built this epoch's
  // latency mass.
  bool have_breakdown = false;
  bool mem_dominated = false;
  if (breakdown_sensor_) {
    const obs::StallSums cur = breakdown_sensor_();
    const auto grew = [](std::uint64_t now_sum, std::uint64_t then) {
      return now_sum > then ? now_sum - then : 0;
    };
    mem_dominated = grew(cur.memory_stall, last_stall_.memory_stall) >
                    grew(cur.queue_wait, last_stall_.queue_wait);
    last_stall_ = cur;
    have_breakdown = true;
  }
  // Channel-saturation sensor (needs a channel backend; the flat model
  // reports no channels and leaves this false). Peak per-channel busy share
  // of this epoch: the hottest channel's busy-cycle delta over the cycles
  // the epoch covered. Peak, not mean — a skewed workload saturates the hot
  // cluster's channels while the other fourteen idle, and it is the hot
  // channel the tail queues behind. Distinguishes *why* memory stalls
  // dominate: latency (remote distance — migrate toward the user) vs
  // bandwidth (saturated channel — only spreading across more channels
  // helps).
  bool bandwidth_bound = false;
  std::uint64_t saturation_pct = 0;
  if (last_epoch_elapsed_ > 0 && !sig.chan_busy.empty()) {
    const std::uint64_t peak =
        *std::max_element(sig.chan_busy.begin(), sig.chan_busy.end());
    // The channel services requests on its own arrival-time clock, which can
    // run slightly ahead of the dispatch high-water clock; clamp so the
    // logged share reads as a fraction of the epoch.
    const double sat = std::min(1.0, static_cast<double>(peak) /
                                         static_cast<double>(last_epoch_elapsed_));
    saturation_pct = static_cast<std::uint64_t>(100.0 * sat + 0.5);
    bandwidth_bound = sat >= pol_.bandwidth_saturation_frac;
  }
  // Too few completions to trust a tail estimate: an epoch that completed
  // almost nothing while requests pile up will trip the ladder next epoch,
  // when the queued requests complete with their queueing delay on record.
  if (epoch.count < kLatencyMinSamples) return;
  const std::uint64_t p99 = epoch.quantile;
  const std::uint64_t target = pol_.latency_target_cycles;

  obs::advisor::Finding f;
  f.kind = obs::AdviceKind::kLatencyTarget;
  f.subject = "requests";
  f.queued_max = sig.queue_max_now;

  if (p99 > target) {
    if (actions >= pol_.max_actions_per_epoch) return;
    // Dominant-component routing (breakdown sensor attached): when this
    // epoch's latency mass is memory stall rather than queue wait, the
    // ladder below is the wrong medicine — balancer moves and pin-break
    // steals relocate *requests*, but the tail is built from remote-data
    // service time, which moving requests around can only spread, not
    // shrink. Instead open the data-plane gate, so act() lets the advisor's
    // migration rules through the serving-mode stand-down to rehome the
    // remote-hot objects. The first opening is logged, deterministically,
    // and spends an action; a re-opening after recovery is silent and free.
    // The gate is sticky across overshoot epochs: the rehome wave itself
    // stalls serving processors and invalidates cached lines, which
    // manufactures transient queue-dominated epochs — flipping to the
    // balancer mid-wave would abandon the data fix for request churn. Only
    // recovery (p99 back at or under target) closes it.
    // Bandwidth refinement: when the channels themselves are saturated,
    // migrating the hot object toward its users concentrates *more* fills on
    // the destination cluster's channels — the opposite of relief. Open the
    // gate for the distribute actuator alone (spread pages across channels).
    // The choice is made when the gate opens and is sticky like the gate
    // itself: the rehome wave perturbs both sensors mid-flight.
    if (!gate_open() && have_breakdown && mem_dominated) {
      if (gate_ == Gate::kNever) {
        if (bandwidth_bound) {
          f.kind = obs::AdviceKind::kBandwidthBound;
          record(f,
                 fmt("escalate=distribute (bandwidth-bound, hot channel "
                     "%" PRIu64 "%% busy, p99 %" PRIu64 " > target %" PRIu64
                     ")",
                     saturation_pct, p99, target),
                 now, 0);
        } else {
          record(f,
                 fmt("escalate=migrate (memory-stall dominated, p99 %" PRIu64
                     " > target %" PRIu64 ")",
                     p99, target),
                 now, 0);
        }
        ++actions;
      }
      gate_ = bandwidth_bound ? Gate::kDistribute : Gate::kMigrate;
    }
    if (gate_open()) return;
    const sched::Policy p = hooks_.policy();
    if (!p.steal_enabled) return;
    const std::string over =
        fmt("p99 %" PRIu64 " > target %" PRIu64, p99, target);
    // Rung 1: escalate to the Average balancer's batched moves (opt-in, and
    // only from the Stealing default: a user-chosen balancer stays). Moves
    // are the *gentle* relief for a hot-key tail: they relocate only the
    // over-average part of the overlong queue, youngest first, and leave
    // every other server's placement untouched.
    if (pol_.enable_balancer &&
        p.balancer == sched::BalancerKind::kStealing) {
      if (move(f, Knob::kBalancer, kAverage, over, now)) ++actions;
      return;
    }
    // Rung 2: the tail is still over target (or the balancer actuator is
    // off) — open pin-break stealing so every idle probe can take OBJECT-
    // pinned requests. This is the aggressive last resort, not the first
    // move: stolen requests run their critical sections with remote data,
    // which inflates monitor hold times on exactly the hot keys the tail
    // is queued behind. Give rung 1 a full balancer dwell first: right
    // after the switch the completing backlog still carries its
    // pre-escalation queueing delay, so the epoch p99 lags the fix.
    if (switched_balancer_ &&
        epoch_ < bal_gov_.last_switch_epoch() + pol_.balancer_dwell_epochs) {
      return;
    }
    if (!p.steal_object_tasks &&
        move(f, Knob::kStealObjectTasks, true, over, now)) {
      ++actions;
    }
    return;
  }

  // Back at or under target: close the gate. The one-shot migrations
  // already applied stay in place, but further data-plane churn must be
  // justified by a fresh memory-dominated overshoot.
  if (gate_open()) gate_ = Gate::kClosed;

  // Relief revert: only the steal flag comes back down, and only with real
  // headroom (p99 at or under half the target), so the ladder cannot
  // oscillate on a tail that hovers at the target. The balancer escalation
  // is deliberately *not* reverted while the objective is active: a good
  // epoch p99 after the switch means the escalation is working, and
  // switching back mid-trace lets the hot-key queue rebuild for every
  // arrival still to come. Pin-break stealing, by contrast, has a real
  // ongoing cost (remote critical sections) worth shedding once the tail
  // clears.
  if (steal_relief_ && p99 * 2 <= target &&
      hooks_.policy().steal_object_tasks) {
    move(f, Knob::kStealObjectTasks, false,
         fmt("p99 %" PRIu64 " <= target/2", p99), now);
  }
}

std::uint64_t AdaptiveEngine::act(const obs::advisor::Finding& f,
                                  topo::ProcId proc, std::uint64_t now) {
  // Serving mode: a latency target states the user's objective, and every
  // throughput-heuristic actuator below was tuned for batch programs with
  // no notion of a tail. Data-plane churn (migrating or re-homing the hot
  // object mid-trace, promoting its requests into back-to-back sets) and
  // pin-break stealing all *raise* a hot-key p99 — the latency ladder
  // (latency_objective) is the only actuator that evaluates its actions
  // against the stated objective, so the rest stand down. The steal-storm
  // scan cap stays available: bounding failed scans is objective-neutral.
  // Exception: while the data-plane gate is open the migration actuators
  // are exactly the objective's chosen remedy and pass through; a
  // bandwidth-bound gate (saturated channels: re-homing onto one memory
  // only moves the queueing) passes kDistributeObject alone.
  const bool serving = pol_.latency_target_cycles != 0;
  const bool gated_through =
      f.kind == obs::AdviceKind::kDistributeObject
          ? gate_open()
          : f.kind == obs::AdviceKind::kMigrateObject &&
                gate_ == Gate::kMigrate;
  if (serving && f.kind != obs::AdviceKind::kStealStorm && !gated_through) {
    return 0;
  }
  const sched::Policy p = hooks_.policy();
  switch (f.kind) {
    case obs::AdviceKind::kMigrateObject:
    case obs::AdviceKind::kDistributeObject:
      return rehome(f, p.reserve_exclude_mask, proc, now);
    case obs::AdviceKind::kTaskAffinity: {
      if (!hooks_.promote) return 0;
      const std::string done_key = "promote:" + f.subject;
      if (done_.count(done_key) != 0) return 0;
      if (!gov_.admit(done_key, epoch_)) return 0;
      hooks_.promote(f.set_key, true);
      done_.insert(done_key);
      record(f, "promote to TASK affinity", now, 0);
      return 0;
    }
    case obs::AdviceKind::kWholeSetStealing:
      if (p.steal_enabled && !p.steal_whole_sets) {
        move(f, Knob::kStealWholeSets, true, "", now);
      }
      return 0;
    case obs::AdviceKind::kIdleImbalance:
      // Idleness alone is too noisy to act on online: barrier-structured
      // programs (ocean) show large per-epoch idle fractions between phases
      // with nothing wrong. Act only on the pile-up signature — processors
      // idle while a deep run queue sits on a single server. A balanced
      // spawn burst puts at most a task or two on each queue, so a deepest
      // queue holding half the machine's worth of work means the work
      // exists but cannot spread. (Serving mode never gets here: the
      // latency ladder owns this knob, because pin-break stealing makes a
      // hot-key tail *worse*.)
      if (!p.steal_enabled || f.queued_max * 2 < machine_.n_procs) return 0;
      if (!p.steal_object_tasks) {
        move(f, Knob::kStealObjectTasks, true, "queue pile-up", now);
      } else if (pol_.enable_balancer &&
                 p.balancer == sched::BalancerKind::kStealing) {
        // Escalation: the steal-policy relief is already on and the pile-up
        // is still here — on-demand stealing drains one task per idle probe,
        // which cannot keep up with a producer that refills the deep queue.
        // Switch the balancer to Average, whose moves pull a queue down to
        // the ceiling average in one grab. Only escalate from the
        // Stealing default: a user-selected Average/Reserve balancer is not
        // ours to replace.
        move(f, Knob::kBalancer, kAverage, "pile-up persists", now);
      }
      return 0;
    case obs::AdviceKind::kStealStorm:
      if (!p.steal_enabled) return 0;
      if (!p.steal_object_tasks && !serving) {
        // Idle processors scan but find nothing stealable: the usual cause
        // is every task carrying OBJECT affinity (default-steal-exempt).
        // Letting object tasks be stolen is the least intrusive relief. (In
        // serving mode the latency ladder owns the steal knob.)
        move(f, Knob::kStealObjectTasks, true, "", now);
      } else if (p.max_steal_scan == 0) {
        // Still storming with stealing wide open: bound the scan length so
        // idle processors stop sweeping every queue on the machine.
        move(f, Knob::kMaxStealScan, machine_.procs_per_cluster, "", now);
      }
      return 0;
    case obs::AdviceKind::kLatencyTarget:
      // Never emitted by the advisor: the latency objective acts directly
      // (latency_objective), outside the findings loop.
      return 0;
    case obs::AdviceKind::kBandwidthBound:
      // Diagnostic, not an actuator: the latency objective owns the
      // bandwidth escalation (it opens the gate for the distribute actuator
      // above), and offline the advisor renders it as advice.
      return 0;
  }
  return 0;
}

std::uint64_t AdaptiveEngine::rehome(const obs::advisor::Finding& f,
                                     std::uint64_t excluded, topo::ProcId proc,
                                     std::uint64_t now) {
  if (!hooks_.migrate) return 0;
  const bool migrate = f.kind == obs::AdviceKind::kMigrateObject;
  const std::string done_key = "object:" + f.subject;
  if (done_.count(done_key) != 0) return 0;
  if (!gov_.admit((migrate ? "migrate:" : "distribute:") + f.subject, epoch_)) {
    return 0;
  }
  // Target range: the dominant user cluster's processors (migrate-object),
  // or the whole machine (distribute-object). Empty when the cluster lies
  // past the machine's last processor.
  const std::uint32_t n = machine_.n_procs;
  topo::ProcId base = 0;
  std::uint32_t span = n;
  if (migrate) {
    base = static_cast<topo::ProcId>(f.user_cluster *
                                     machine_.procs_per_cluster);
    span = base < n ? std::min(n - base, machine_.procs_per_cluster) : 0;
  }
  // The idx-th processor of the range, rotating past processors whose
  // cycles belong to non-queue work (Policy::reserve_exclude_mask, e.g. a
  // serving front-end): homing a hot object there makes it permanently
  // remote to every server. Unless the mask excludes the whole range.
  const auto pick = [&](std::uint32_t idx) -> topo::ProcId {
    for (std::uint32_t k = 0; k < span; ++k) {
      const std::uint32_t cand = base + (idx + k) % span;
      if (cand < n && ((excluded >> cand) & 1) == 0) return cand;
    }
    return base + idx % span;
  };
  const std::uint64_t pb = machine_.page_bytes;
  const std::uint64_t pages = (f.obj_bytes + pb - 1) / pb;
  std::uint64_t c = 0;
  std::string action;
  if (pages > 1 && span > 0) {
    // Multi-page object: page i goes to the range's i-th processor. Migrate
    // moves the object next to its users without piling it onto one memory;
    // distribute is the automated version of the hand `distribute()` call.
    for (std::uint64_t i = 0; i < pages; ++i) {
      const std::uint64_t off = i * pb;
      const std::uint64_t len =
          off + pb <= f.obj_bytes ? pb : f.obj_bytes - off;
      c += hooks_.migrate(proc, f.obj_addr + off, len,
                          pick(static_cast<std::uint32_t>(i)), now + c);
    }
    action = migrate ? fmt("migrate %" PRIu64 " pages into cluster %zu", pages,
                           f.user_cluster)
                     : fmt("distribute %" PRIu64 " pages round-robin", pages);
  } else {
    // Sub-page object: rehome it whole, rotating the target over the range
    // so a family of small hot objects (e.g. matrix columns) spreads out.
    std::uint32_t& cursor = migrate ? migrate_cursor_ : distribute_cursor_;
    const topo::ProcId target = span > 0 ? pick(cursor++) : n - 1;
    c = hooks_.migrate(proc, f.obj_addr, f.obj_bytes, target, now);
    action = migrate ? fmt("migrate to proc %u (cluster %zu)", target,
                           f.user_cluster)
                     : fmt("rehome to proc %u (round-robin)", target);
  }
  done_.insert(done_key);
  ++rehomes_since_relief_;
  record(f, std::move(action), now, c);
  return c;
}

bool AdaptiveEngine::move(const obs::advisor::Finding& f, Knob knob,
                          std::uint32_t value, std::string_view why,
                          std::uint64_t now) {
  std::string name;
  std::string text = value != 0 ? "on" : "off";
  switch (knob) {
    case Knob::kStealObjectTasks:
      name = "steal_object_tasks";
      break;
    case Knob::kStealWholeSets:
      name = "steal_whole_sets";
      break;
    case Knob::kMaxStealScan:
      name = "max_steal_scan";
      text = std::to_string(value);
      break;
    case Knob::kBalancer:
      name = "balancer";
      text = sched::balancer_kind_name(static_cast<sched::BalancerKind>(value));
      break;
  }
  // One governor class per knob; the balancer's own governor paces each
  // direction as its own class.
  const bool admitted = knob == Knob::kBalancer
                            ? bal_gov_.admit("balancer:" + text, epoch_)
                            : gov_.admit("policy:" + name, epoch_);
  if (!admitted) return false;
  hooks_.mutate_policy([knob, value](sched::Policy& p) {
    switch (knob) {
      case Knob::kStealObjectTasks:
        p.steal_object_tasks = value != 0;
        break;
      case Knob::kStealWholeSets:
        p.steal_whole_sets = value != 0;
        break;
      case Knob::kMaxStealScan:
        p.max_steal_scan = value;
        break;
      case Knob::kBalancer:
        p.balancer = static_cast<sched::BalancerKind>(value);
        break;
    }
  });
  if (knob == Knob::kStealObjectTasks) {
    steal_relief_ = value != 0;
    rehomes_since_relief_ = 0;
  }
  if (knob == Knob::kBalancer) switched_balancer_ = value == kAverage;
  std::string action = name + "=" + text;
  if (!why.empty()) action.append(" (").append(why).append(")");
  record(f, std::move(action), now, 0);
  return true;
}

void AdaptiveEngine::record(const obs::advisor::Finding& f, std::string action,
                            std::uint64_t now, std::uint64_t cost) {
  Decision d;
  d.epoch = epoch_;
  d.cycle = now;
  d.rule = f.kind;
  d.subject = f.subject;
  d.action = std::move(action);
  d.cost_cycles = cost;
  log_.push_back(std::move(d));
}

std::string AdaptiveEngine::log_json() const {
  obs::json::Writer w;
  w.begin_array();
  for (const Decision& d : log_) {
    w.begin_object();
    w.key("epoch").uint_value(d.epoch);
    w.key("cycle").uint_value(d.cycle);
    w.key("rule").string(obs::advice_kind_name(d.rule));
    w.key("subject").string(d.subject);
    w.key("action").string(d.action);
    w.key("cost_cycles").uint_value(d.cost_cycles);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace cool::adaptive
