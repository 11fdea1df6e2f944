#include "sched/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"

namespace cool::sched {

Scheduler::Scheduler(const topo::MachineConfig& machine, Policy policy,
                     HomeFn home)
    : machine_(machine),
      policy_(policy),
      home_(std::move(home)),
      reserve_selected_(policy_.balancer == BalancerKind::kReserve),
      stats_(machine.n_procs),
      run_track_(machine.n_procs) {
  COOL_CHECK(home_ != nullptr, "scheduler needs a home resolver");
  COOL_CHECK(policy_.affinity_array_size >= 1, "affinity array size must be >= 1");
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    queues_.emplace_back(policy_.affinity_array_size);
    queues_.back().set_owner(static_cast<topo::ProcId>(p));
    stats_.shard(p).reserve_hits_by_cluster =
        std::vector<std::atomic<std::uint64_t>>(machine_.n_clusters());
  }
}

void Scheduler::set_hotness_source(HotnessFn fn) {
  util::MutexLock l(hot_.mu);
  hot_.source = std::move(fn);
  hot_.hot.clear();
  hot_.cache.clear();
  hot_.placements = 0;
}

void Scheduler::adapt_policy(const std::function<void(Policy&)>& fn) {
  fn(policy_);
  if (policy_.balancer == BalancerKind::kReserve) reserve_selected_ = true;
}

std::optional<topo::ProcId> Scheduler::reserve_target(std::uint64_t key_addr) {
  util::MutexLock l(hot_.mu);
  if (!hot_.source) return std::nullopt;
  constexpr std::uint64_t kRefreshPlacements = 16;
  if (hot_.placements++ % kRefreshPlacements == 0) {
    hot_.hot = hot_.source();
    // Heat-descending so the hottest object wins containment ties; address
    // ascending as the deterministic tie-break.
    std::stable_sort(hot_.hot.begin(), hot_.hot.end(),
                     [](const DataHotness& a, const DataHotness& b) {
                       if (a.heat != b.heat) return a.heat > b.heat;
                       return a.addr < b.addr;
                     });
    constexpr std::size_t kMaxHot = 32;
    if (hot_.hot.size() > kMaxHot) hot_.hot.resize(kMaxHot);
    hot_.cache.clear();
  }

  constexpr topo::ProcId kCold = static_cast<topo::ProcId>(~0u);
  auto [it, fresh] = hot_.cache.try_emplace(key_addr, kCold);
  if (fresh) {
    for (const DataHotness& h : hot_.hot) {
      if (key_addr < h.addr || key_addr >= h.addr + h.bytes) continue;
      COOL_CHECK(h.home_cluster < machine_.n_clusters(),
                 "reserve: hot cluster out of range");
      const std::uint32_t first = h.home_cluster * machine_.procs_per_cluster;
      const std::uint32_t last =
          std::min(first + machine_.procs_per_cluster, machine_.n_procs);
      // reserve_exclude_mask hides processors whose queue length lies about
      // their availability (a serving front-end: the pump occupies the
      // processor without being queued on it). If every member is masked
      // the mask is ignored — stranding the reservation would be worse.
      const std::uint64_t mask = policy_.reserve_exclude_mask;
      auto excluded = [&](std::uint32_t m) {
        return m < 64 && ((mask >> m) & 1u) != 0;
      };
      bool all_masked = true;
      for (std::uint32_t m = first; m < last; ++m) {
        all_masked = all_masked && excluded(m);
      }
      std::size_t best_sz = ~std::size_t{0};
      for (std::uint32_t m = first; m < last; ++m) {
        if (!all_masked && excluded(m)) continue;
        const std::size_t sz = queues_[m].size();
        if (sz < best_sz) {  // strict: ties go to the lowest id
          it->second = static_cast<topo::ProcId>(m);
          best_sz = sz;
        }
      }
      break;
    }
  }
  if (it->second == kCold) return std::nullopt;
  return it->second;
}

void Scheduler::check_queues() const {
  for (const ServerQueues& q : queues_) q.validate();
}

void Scheduler::for_each_queued(
    const std::function<void(const TaskDesc*)>& fn) const {
  for (const ServerQueues& q : queues_) q.for_each_task(fn);
}

void Scheduler::note_run(topo::ProcId proc, std::uint64_t key) {
  RunTrack& t = run_track_[proc];
  if (key != 0 && key == t.key) {
    ++t.len;
    return;
  }
  if (t.len > 0) stats_.shard(proc).run_length.observe(t.len);
  t.key = key;
  t.len = key != 0 ? 1 : 0;
}

topo::ProcId Scheduler::place(TaskDesc* t, topo::ProcId spawner) {
  COOL_CHECK(t != nullptr, "place: null task");
  COOL_CHECK(spawner < machine_.n_procs, "place: spawner out of range");
  StatShard& st = stats_.shard(spawner);
  st.spawned.fetch_add(1, std::memory_order_relaxed);

  topo::ProcId server = spawner;
  if (!policy_.honor_affinity) {
    // The paper's "Base" version: tasks scheduled round-robin across
    // processors without regard for locality.
    server = static_cast<topo::ProcId>(
        rr_next_.fetch_add(1, std::memory_order_relaxed) % machine_.n_procs);
    t->aff = Affinity::none();  // No set grouping either.
    st.placed_round_robin.fetch_add(1, std::memory_order_relaxed);
  } else if (t->aff.has_processor()) {
    // PROCESSOR affinity: value modulo the number of server processes.
    server = static_cast<topo::ProcId>(
        static_cast<std::uint64_t>(t->aff.proc_hint) % machine_.n_procs);
    st.placed_processor.fetch_add(1, std::memory_order_relaxed);
  } else if (t->aff.has_multi() && policy_.multi_object_placement &&
             t->aff.n_objs > 1) {
    // Multi-object heuristic (paper §8): place on the server homing the most
    // bytes among the named objects.
    std::uint64_t best_bytes = 0;
    topo::ProcId best = home_(t->aff.objs[0].addr, spawner);
    std::vector<std::uint64_t> bytes_at(machine_.n_procs, 0);
    for (int i = 0; i < t->aff.n_objs; ++i) {
      const topo::ProcId h = home_(t->aff.objs[i].addr, spawner);
      bytes_at[h] += t->aff.objs[i].bytes;
      if (bytes_at[h] > best_bytes) {
        best_bytes = bytes_at[h];
        best = h;
      }
    }
    server = best;
    st.placed_multi.fetch_add(1, std::memory_order_relaxed);
  } else if (t->aff.has_object()) {
    // OBJECT / simple / default affinity: collocate with the object's home.
    server = home_(t->aff.object_obj, spawner);
    st.placed_object.fetch_add(1, std::memory_order_relaxed);
  } else if (t->aff.has_task()) {
    // TASK affinity alone: place the whole set where the object lives so the
    // first fetch is local; the set remains stealable as a unit.
    server = home_(t->aff.task_obj, spawner);
    st.placed_task.fetch_add(1, std::memory_order_relaxed);
  } else {
    st.placed_local.fetch_add(1, std::memory_order_relaxed);
  }

  if (has_overrides_.load(std::memory_order_relaxed) &&
      policy_.honor_affinity && t->aff.has_object() && !t->aff.has_task() &&
      !t->aff.has_processor() && !t->aff.has_multi()) {
    util::MutexLock l(override_m_);
    if (promoted_.count(t->aff.object_obj) != 0) {
      // Promoted by the adaptive runtime: behave exactly as if the program
      // had written TASK+OBJECT affinity, so the promoted set shares an
      // affinity queue and runs back-to-back. The server chosen above (the
      // object's home) is what TASK+OBJECT placement picks too.
      t->aff.task_obj = t->aff.object_obj;
    }
  }

  t->reserved = false;
  if (policy_.balancer == BalancerKind::kReserve &&
      policy_.honor_affinity && !t->aff.has_processor() &&
      !t->aff.has_multi() && (t->aff.has_object() || t->aff.has_task())) {
    // Hotness-directed reservation: instead of waiting for idleness to
    // migrate work, pre-place the task on the cluster homing its hot data
    // and mark it reserved so other clusters' thieves leave it there. The
    // affinity object is the hotness key (the whole set shares it, so the
    // set lands together).
    const std::uint64_t key =
        t->aff.has_object() ? t->aff.object_obj : t->aff.task_obj;
    if (const auto target = reserve_target(key)) {
      server = *target;
      t->reserved = true;
      st.reserve_hits.fetch_add(1, std::memory_order_relaxed);
      st.reserve_hits_by_cluster[machine_.cluster_of(server)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  if (t->aff.has_task()) {
    t->aff_key = t->aff.task_obj / machine_.line_bytes;
  } else {
    t->aff_key = 0;
  }
  t->server = server;
  t->stolen = false;
  t->moved = false;
  queues_[server].push(t);
  // `t` is live on a queue now — another thread may already own it.
  return server;
}

topo::ProcId Scheduler::enqueue_resumed(TaskDesc* t) {
  COOL_CHECK(t != nullptr, "enqueue_resumed: null task");
  COOL_CHECK(t->server < machine_.n_procs, "enqueue_resumed: bad server");
  const topo::ProcId server = t->server;
  stats_.shard(server).resumes.fetch_add(1, std::memory_order_relaxed);
  queues_[server].push_resumed(t);
  return server;
}

topo::ProcId Scheduler::enqueue_yielded(TaskDesc* t) {
  COOL_CHECK(t != nullptr, "enqueue_yielded: null task");
  COOL_CHECK(t->server < machine_.n_procs, "enqueue_yielded: bad server");
  const topo::ProcId server = t->server;
  queues_[server].push(t);
  return server;
}

TaskDesc* Scheduler::try_steal(topo::ProcId thief, topo::ProcId victim,
                               bool& busy) {
  ServerQueues& q = queues_[victim];
  if (q.empty()) return nullptr;
  StatShard& st = stats_.shard(thief);
  // Reserve-balancer placements are protected from cross-cluster theft (the
  // reservation put them with their hot data); same-cluster thieves may
  // still take them, preserving intra-cluster balance. Under other policies
  // no task is ever reserved, so this changes nothing.
  const bool allow_reserved = machine_.same_cluster(thief, victim);
  if (policy_.steal_whole_sets) {
    std::vector<TaskDesc*> set;
    switch (q.try_steal_set(set, policy_.steal_pinned_sets, allow_reserved)) {
      case TrySteal::kBusy:
        // Owner (or another thief) holds the victim's lock; don't convoy —
        // remember the contention and move on to the next victim.
        busy = true;
        return nullptr;
      case TrySteal::kGot: {
        st.set_steals.fetch_add(1, std::memory_order_relaxed);
        st.tasks_stolen.fetch_add(set.size(), std::memory_order_relaxed);
        // The whole set migrates to the thief so its tasks still run
        // back-to-back (paper §4.2). Adopt + first pop happen under one hold
        // of the thief's own lock; the victim's lock was already released.
        return queues_[thief].adopt_and_pop(set, thief);
      }
      case TrySteal::kEmpty:
        break;
    }
  }
  TaskDesc* t = nullptr;
  switch (
      q.try_steal_object_task(t, policy_.steal_object_tasks, allow_reserved)) {
    case TrySteal::kBusy:
      busy = true;
      return nullptr;
    case TrySteal::kGot:
      st.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
      t->server = thief;
      return t;
    case TrySteal::kEmpty:
      break;
  }
  return nullptr;
}

TaskDesc* Scheduler::try_move(topo::ProcId thief, topo::ProcId victim,
                              std::uint32_t max_tasks, bool& busy) {
  std::vector<TaskDesc*> moved;
  switch (queues_[victim].try_move_tasks(moved, max_tasks)) {
    case TrySteal::kBusy:
      busy = true;
      return nullptr;
    case TrySteal::kGot:
      stats_.shard(thief).balance_moves.fetch_add(moved.size(),
                                                  std::memory_order_relaxed);
      // Like whole-set stealing: adopt the batch and take the first runnable
      // task under one hold of the thief's own lock.
      return queues_[thief].adopt_and_pop(moved, thief);
    case TrySteal::kEmpty:
      break;
  }
  return nullptr;
}

namespace {

/// The servers one pass of the steal loop visits.
enum class Scope : std::uint8_t {
  kCluster,        ///< The thief's cluster.
  kMachine,        ///< Every server.
  kOtherClusters,  ///< Every server outside the thief's cluster.
};

}  // namespace

Scheduler::Acquired Scheduler::acquire(topo::ProcId proc) {
  COOL_CHECK(proc < machine_.n_procs, "acquire: processor out of range");
  StatShard& st = stats_.shard(proc);
  Acquired out;
  if (TaskDesc* t = queues_[proc].pop()) {
    st.pops.fetch_add(1, std::memory_order_relaxed);
    note_run(proc, t->aff_key);
    out.task = t;
    return out;
  }
  if (!policy_.steal_enabled || machine_.n_procs == 1) return out;

  // The steal loop probes the other servers in ring order after the thief:
  // in one pass over the machine, or over the thief's cluster under
  // cluster_only; cluster_first makes two passes, the cluster and then the
  // other clusters. Under the Average balancer each pass first pulls every
  // over-average member of its scope down to the ceiling average, and probes
  // only when none is over; Average's second cluster_first pass covers the
  // whole machine, own cluster included. max_steal_scan caps the probes of
  // all passes together; a capped loop tries nothing more.
  const bool average = policy_.balancer == BalancerKind::kAverage;
  Scope passes[2];
  std::size_t n_passes = 0;
  if (policy_.cluster_first || policy_.cluster_only) {
    passes[n_passes++] = Scope::kCluster;
  }
  if (policy_.cluster_first) {
    passes[n_passes++] = average ? Scope::kMachine : Scope::kOtherClusters;
  } else if (!policy_.cluster_only) {
    passes[n_passes++] = Scope::kMachine;
  }
  const std::uint32_t P = machine_.n_procs;
  const std::uint64_t cap = policy_.max_steal_scan != 0
                                ? policy_.max_steal_scan
                                : ~std::uint64_t{0};
  bool busy = false;
  std::uint64_t probed = 0;  ///< Victims probed (the scan length).
  auto found = [&](TaskDesc* t) {
    st.steal_scan.observe(probed);
    note_run(proc, t->aff_key);
    out.task = t;
    return out;
  };
  for (std::size_t i = 0; i < n_passes && probed < cap; ++i) {
    const Scope scope = passes[i];
    auto in_scope = [&](topo::ProcId v) {
      return scope == Scope::kMachine ||
             machine_.same_cluster(proc, v) == (scope == Scope::kCluster);
    };
    bool over = false;
    if (average) {
      std::size_t total = 0;
      std::size_t members = 0;
      for (topo::ProcId v = 0; v < P; ++v) {
        if (!in_scope(v)) continue;
        total += queues_[v].size();
        ++members;
      }
      const std::size_t avg = (total + members - 1) / members;
      for (std::uint32_t k = 1; k < P; ++k) {
        const auto v = static_cast<topo::ProcId>((proc + k) % P);
        const std::size_t sz = queues_[v].size();
        if (!in_scope(v) || sz <= avg) continue;
        over = true;
        st.balance_commands.fetch_add(1, std::memory_order_relaxed);
        if (TaskDesc* t =
                try_move(proc, v, static_cast<std::uint32_t>(sz - avg), busy)) {
          out.moved = true;
          out.victim = v;
          return found(t);
        }
      }
    }
    if (over) continue;
    for (std::uint32_t k = 1; k < P && probed < cap; ++k) {
      const auto v = static_cast<topo::ProcId>((proc + k) % P);
      if (!in_scope(v)) continue;
      st.balance_commands.fetch_add(1, std::memory_order_relaxed);
      ++probed;
      if (TaskDesc* t = try_steal(proc, v, busy)) {
        st.steals.fetch_add(1, std::memory_order_relaxed);
        out.stolen = true;
        out.stolen_remote_cluster = !machine_.same_cluster(proc, v);
        out.victim = v;
        if (out.stolen_remote_cluster) {
          st.remote_cluster_steals.fetch_add(1, std::memory_order_relaxed);
        }
        return found(t);
      }
    }
  }
  st.failed_steal_scans.fetch_add(1, std::memory_order_relaxed);
  st.steal_scan.observe(probed);
  out.contended = busy;
  return out;
}

void Scheduler::set_task_promotion(std::uint64_t obj_addr, bool on) {
  util::MutexLock l(override_m_);
  if (on) {
    promoted_.insert(obj_addr);
  } else {
    promoted_.erase(obj_addr);
  }
  has_overrides_.store(!promoted_.empty(), std::memory_order_relaxed);
}

bool Scheduler::any_work() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

std::size_t Scheduler::total_queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

SchedStats Scheduler::stats() const {
  return stats_.aggregate(SchedStats{}, [](SchedStats& acc, const StatShard& s) {
    acc.spawned += s.spawned.load(std::memory_order_relaxed);
    acc.placed_processor += s.placed_processor.load(std::memory_order_relaxed);
    acc.placed_object += s.placed_object.load(std::memory_order_relaxed);
    acc.placed_task += s.placed_task.load(std::memory_order_relaxed);
    acc.placed_local += s.placed_local.load(std::memory_order_relaxed);
    acc.placed_multi += s.placed_multi.load(std::memory_order_relaxed);
    acc.placed_round_robin +=
        s.placed_round_robin.load(std::memory_order_relaxed);
    acc.pops += s.pops.load(std::memory_order_relaxed);
    acc.steals += s.steals.load(std::memory_order_relaxed);
    acc.set_steals += s.set_steals.load(std::memory_order_relaxed);
    acc.tasks_stolen += s.tasks_stolen.load(std::memory_order_relaxed);
    acc.remote_cluster_steals +=
        s.remote_cluster_steals.load(std::memory_order_relaxed);
    acc.failed_steal_scans +=
        s.failed_steal_scans.load(std::memory_order_relaxed);
    acc.resumes += s.resumes.load(std::memory_order_relaxed);
    acc.balance_commands += s.balance_commands.load(std::memory_order_relaxed);
    acc.balance_moves += s.balance_moves.load(std::memory_order_relaxed);
    acc.reserve_hits += s.reserve_hits.load(std::memory_order_relaxed);
  });
}

void Scheduler::AtomicHist::fold_into(Hist& h) const noexcept {
  Hist::Counts counts{};
  for (std::size_t b = 0; b < Hist::kBuckets; ++b) {
    counts[b] = buckets[b].load(std::memory_order_relaxed);
  }
  h.merge(counts, count.load(std::memory_order_relaxed),
          sum.load(std::memory_order_relaxed),
          max.load(std::memory_order_relaxed));
}

SchedDetail Scheduler::detail() const {
  SchedDetail d;
  if (reserve_selected_) {
    d.reserve_hits_by_cluster.resize(machine_.n_clusters());
  }
  return stats_.aggregate(std::move(d), [](SchedDetail& acc,
                                           const StatShard& s) {
    s.steal_scan.fold_into(acc.steal_scan_victims);
    s.run_length.fold_into(acc.affinity_run_length);
    for (std::size_t c = 0; c < acc.reserve_hits_by_cluster.size(); ++c) {
      acc.reserve_hits_by_cluster[c] +=
          s.reserve_hits_by_cluster[c].load(std::memory_order_relaxed);
    }
  });
}

}  // namespace cool::sched
