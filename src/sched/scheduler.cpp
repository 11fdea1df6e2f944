#include "sched/scheduler.hpp"

#include "common/check.hpp"
#include "common/error.hpp"

namespace cool::sched {

Scheduler::Scheduler(const topo::MachineConfig& machine, Policy policy,
                     HomeFn home)
    : machine_(machine),
      policy_(policy),
      home_(std::move(home)),
      cmd_scratch_(machine.n_procs),
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
  levels_ = topo::enumerate_levels(machine_);
  built_kind_ = policy_.balancer;
  rebuild_balancers();
}

void Scheduler::rebuild_balancers() {
  balancers_.clear();
  reserve_ = nullptr;
  balancers_.reserve(levels_.size());
  for (const topo::TopoLevel& lvl : levels_) {
    balancers_.push_back(make_balancer(policy_.balancer, lvl, machine_, policy_));
  }
  if (policy_.balancer == BalancerKind::kReserve) {
    reserve_ = static_cast<ReserveBalancer*>(
        balancers_[topo::kMachineLevel].get());
    if (hotness_fn_) reserve_->set_hotness(hotness_fn_);
    reserve_built_ = true;
  }
}

void Scheduler::set_hotness_source(HotnessFn fn) {
  hotness_fn_ = std::move(fn);
  if (reserve_ != nullptr) reserve_->set_hotness(hotness_fn_);
}

void Scheduler::adapt_policy(const std::function<void(Policy&)>& fn) {
  fn(policy_);
  if (policy_.balancer != built_kind_) {
    built_kind_ = policy_.balancer;
    rebuild_balancers();
  }
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
  if (policy_.balancer == BalancerKind::kReserve && reserve_ != nullptr &&
      policy_.honor_affinity && !t->aff.has_processor() &&
      !t->aff.has_multi() && (t->aff.has_object() || t->aff.has_task())) {
    // Hotness-directed reservation: instead of waiting for idleness to
    // migrate work, pre-place the task on the cluster homing its hot data
    // and mark it reserved so other clusters' thieves leave it there. The
    // affinity object is the hotness key (the whole set shares it, so the
    // set lands together).
    const std::uint64_t key =
        t->aff.has_object() ? t->aff.object_obj : t->aff.task_obj;
    if (const auto target = reserve_->reserve_target(key, queues_)) {
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

TaskDesc* Scheduler::exec_move(topo::ProcId thief, const BalanceCommand& cmd,
                               bool& busy) {
  ServerQueues& q = queues_[cmd.src];
  if (q.empty() || cmd.max_tasks == 0) return nullptr;
  StatShard& st = stats_.shard(thief);
  std::vector<TaskDesc*> moved;
  switch (q.try_move_tasks(moved, cmd.max_tasks)) {
    case TrySteal::kBusy:
      busy = true;
      return nullptr;
    case TrySteal::kGot: {
      st.balance_moves.fetch_add(moved.size(), std::memory_order_relaxed);
      // Like whole-set stealing: adopt the batch and take the first runnable
      // task under one hold of the thief's own lock.
      return queues_[thief].adopt_and_pop(moved, thief);
    }
    case TrySteal::kEmpty:
      break;
  }
  return nullptr;
}

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

  // Balancer chain for this thief: each level's balancer generates explicit
  // commands which are executed here in order. The default chain is just the
  // machine-level balancer (the paper's flat scan); cluster_first runs the
  // thief's cluster level first and the machine level (which then skips the
  // thief's cluster) second; cluster_only — and the Average balancer's
  // balance_within_clusters — never leave the cluster level.
  std::size_t chain[2];
  std::size_t chain_len = 0;
  const std::size_t cl = topo::cluster_level(machine_.cluster_of(proc));
  if (policy_.cluster_first) {
    chain[chain_len++] = cl;
    chain[chain_len++] = topo::kMachineLevel;
  } else if (policy_.cluster_only) {
    chain[chain_len++] = cl;
  } else if (policy_.balancer == BalancerKind::kAverage &&
             policy_.balance_within_clusters) {
    chain[chain_len++] = cl;
  } else {
    chain[chain_len++] = topo::kMachineLevel;
  }

  bool busy = false;
  std::uint64_t probed = 0;  ///< kTrySteal commands executed (scan length).
  bool capped = false;
  for (std::size_t c = 0; c < chain_len && !capped; ++c) {
    std::vector<BalanceCommand>& cmds = cmd_scratch_[proc].cmds;
    cmds.clear();
    balancers_[chain[c]]->generate(proc, queues_, cmds);
    for (const BalanceCommand& cmd : cmds) {
      if (policy_.max_steal_scan != 0 && probed >= policy_.max_steal_scan) {
        capped = true;
        break;
      }
      st.balance_commands.fetch_add(1, std::memory_order_relaxed);
      TaskDesc* t = nullptr;
      if (cmd.op == BalanceCommand::Op::kTrySteal) {
        ++probed;
        t = try_steal(proc, cmd.src, busy);
        if (t != nullptr) {
          st.steals.fetch_add(1, std::memory_order_relaxed);
          out.stolen = true;
          const bool same = machine_.same_cluster(proc, cmd.src);
          out.stolen_remote_cluster = !same;
          out.victim = cmd.src;
          if (!same) {
            st.remote_cluster_steals.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } else {
        t = exec_move(proc, cmd, busy);
        if (t != nullptr) {
          out.moved = true;
          out.victim = cmd.src;
        }
      }
      if (t != nullptr) {
        st.steal_scan.observe(probed);
        note_run(proc, t->aff_key);
        out.task = t;
        return out;
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

void Scheduler::AtomicHist::fold_into(obs::HistData& h) const noexcept {
  h.count += count.load(std::memory_order_relaxed);
  h.sum += sum.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < obs::kHistBuckets; ++b) {
    h.buckets[b] += buckets[b].load(std::memory_order_relaxed);
  }
}

SchedDetail Scheduler::detail() const {
  SchedDetail d;
  if (reserve_built_) d.reserve_hits_by_cluster.resize(machine_.n_clusters());
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
