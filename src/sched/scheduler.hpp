// The COOL runtime scheduler: placement of tasks by affinity hints, per-server
// queues, and work stealing with the paper's policies.
//
// Placement (paper §4.1/§5):
//   PROCESSOR affinity  -> server = n mod P
//   OBJECT / simple / default affinity -> server = home(object)
//   TASK affinity only  -> server = home(task object)
//   no hints            -> the spawning processor's own queue
// plus, for tasks with TASK affinity, the affinity-set key = object address /
// line size, hashed into the server's queue array (the second modulo).
//
// Stealing (paper §4.2, §6.3): an idle processor steals; whole task-affinity
// sets may be stolen together; object-affinity tasks are stolen only as a
// last resort (or never, by policy); `cluster_first` restricts the first
// round of victims to the thief's own cluster — the Panel Cholesky
// "Distr+Aff+ClusterStealing" experiment; `cluster_only` forbids stealing
// outside the cluster entirely. One loop in acquire() runs the scan, and the
// `balancer` policy varies it: Average moves work from over-average queues
// before it probes, and Reserve pre-places hot work in place().
//
// Concurrency: the scheduler is internally synchronised — place/acquire/
// enqueue_* may be called from any number of threads with no external lock.
// Each ServerQueues carries its own mutex (thieves use try_lock and never
// convoy behind owners), and statistics are sharded per server and
// aggregated on read. The scheduler holds queues and policy only: it never
// sleeps or wakes anyone. An engine whose workers sleep (ThreadEngine, see
// core/idle_gates.hpp) signals its own wakeups from the servers place() and
// enqueue_* return. A single-threaded caller (the simulation engine) sees
// exactly the old sequential behaviour: uncontended locks always succeed, so
// every placement and steal decision is unchanged.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "obs/hist.hpp"
#include "sched/policy.hpp"
#include "sched/queues.hpp"
#include "topology/machine.hpp"

namespace cool::sched {

/// One profiled data object's heat, as fed to the Reserve balancer: where the
/// object's misses are served from and how much stall time it caused.
struct DataHotness {
  std::uint64_t addr = 0;   ///< Object base address (runtime address space).
  std::uint64_t bytes = 0;  ///< Object extent.
  topo::ClusterId home_cluster = 0;  ///< Cluster homing the hot pages.
  std::uint64_t heat = 0;   ///< Stall cycles attributed to the object.
};

/// Pulls the current hotness table (typically from obs::LocalityProfiler).
/// Must be safe to call from any thread that places tasks.
using HotnessFn = std::function<std::vector<DataHotness>()>;

/// Aggregated scheduler counters. This is a point-in-time snapshot: the
/// scheduler accumulates into per-server shards and `Scheduler::stats()`
/// sums them on read.
struct SchedStats {
  std::uint64_t spawned = 0;
  std::uint64_t placed_processor = 0;  ///< Placed via PROCESSOR hint.
  std::uint64_t placed_object = 0;     ///< Placed via OBJECT/simple/default hint.
  std::uint64_t placed_task = 0;       ///< Placed via TASK hint (no OBJECT).
  std::uint64_t placed_local = 0;      ///< No hints: spawner's queue.
  std::uint64_t placed_multi = 0;      ///< Size-weighted multi-object placement.
  std::uint64_t placed_round_robin = 0;///< Base mode round-robin placement.
  std::uint64_t pops = 0;
  std::uint64_t steals = 0;            ///< Successful steal operations.
  std::uint64_t set_steals = 0;        ///< ... of which whole sets.
  std::uint64_t tasks_stolen = 0;      ///< Tasks acquired via stealing.
  std::uint64_t remote_cluster_steals = 0;
  std::uint64_t failed_steal_scans = 0;
  std::uint64_t resumes = 0;
  std::uint64_t balance_commands = 0;  ///< Probes and Average moves tried.
  std::uint64_t balance_moves = 0;     ///< Tasks relocated by Average moves.
  std::uint64_t reserve_hits = 0;      ///< Placements redirected by Reserve.
};

/// The scheduler counters kept out of SchedStats, which the adaptive engine
/// reads every epoch: two log2 histograms and the reservation hits by
/// cluster. Scheduler::detail() folds them; Runtime::obs_snapshot() names
/// them.
struct SchedDetail {
  obs::Hist<0> steal_scan_victims;   ///< Victims probed per steal scan.
  obs::Hist<0> affinity_run_length;  ///< Back-to-back runs of one set.
  /// Placements the Reserve balancer redirected, by target cluster; empty
  /// until Reserve has been selected.
  std::vector<std::uint64_t> reserve_hits_by_cluster;
};

class Scheduler {
 public:
  /// `home` resolves an object address to the processor homing it. It is
  /// called without any scheduler lock held; a concurrent engine must make
  /// it thread-safe itself.
  using HomeFn = std::function<topo::ProcId(std::uint64_t addr, topo::ProcId toucher)>;

  Scheduler(const topo::MachineConfig& machine, Policy policy, HomeFn home);

  /// Decide the server and affinity key for `t` (spawned by `spawner`) and
  /// enqueue it. Returns the chosen server. Once enqueued the task may be
  /// acquired (and even completed) by another thread immediately, so neither
  /// place() nor its caller touches `t` after the enqueue.
  topo::ProcId place(TaskDesc* t, topo::ProcId spawner);

  /// Re-enqueue an unblocked task on its server, at the front. Returns the
  /// server; like place(), neither this nor its caller touches `t` after the
  /// enqueue.
  topo::ProcId enqueue_resumed(TaskDesc* t);

  /// Re-enqueue a yielded task on its current server, at the back. Returns
  /// the server, as enqueue_resumed() does.
  topo::ProcId enqueue_yielded(TaskDesc* t);

  /// Result of an acquire attempt.
  struct Acquired {
    TaskDesc* task = nullptr;
    bool stolen = false;
    bool stolen_remote_cluster = false;
    /// Task arrived via an Average move; `victim` names the source server,
    /// `stolen` stays false.
    bool moved = false;
    topo::ProcId victim = 0;  ///< Who the task was stolen from (when stolen).
    /// A steal scan skipped at least one victim whose lock was busy. The
    /// caller should retry (spin) instead of sleeping: the busy victim may
    /// hold stealable work that was invisible to this scan.
    bool contended = false;
  };

  /// Get work for `proc`: local pop first, then steal per policy.
  Acquired acquire(topo::ProcId proc);

  [[nodiscard]] bool has_local_work(topo::ProcId proc) const {
    return !queues_[proc].empty();
  }
  [[nodiscard]] bool any_work() const;
  [[nodiscard]] std::size_t total_queued() const;

  /// Aggregate the per-server stat shards into one snapshot.
  [[nodiscard]] SchedStats stats() const;
  /// Aggregate the shards' histograms and per-cluster reservation hits.
  [[nodiscard]] SchedDetail detail() const;

  [[nodiscard]] const ServerQueues& queues(topo::ProcId p) const {
    return queues_.at(p);
  }

  /// Validate every per-queue structural invariant. Safe to call
  /// concurrently with scheduling; throws util::Error on violation.
  void check_queues() const;

  /// Visit every currently-queued task across all servers (each queue's lock
  /// is held only while that queue is walked).
  void for_each_queued(const std::function<void(const TaskDesc*)>& fn) const;

  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }
  [[nodiscard]] const topo::MachineConfig& machine() const noexcept {
    return machine_;
  }

  // --- Adaptive-runtime hooks (src/adaptive) --------------------------------

  /// Enable/disable TASK-affinity promotion for tasks whose OBJECT affinity
  /// names `obj_addr` (the raw `Affinity::object_obj` value). A promoted
  /// task is placed as if the program had written TASK+OBJECT affinity —
  /// `task_obj` is rewritten to the object — so the whole promoted set
  /// queues on one server and runs back-to-back. With no promotions
  /// registered, place() takes one relaxed atomic load over the baseline.
  void set_task_promotion(std::uint64_t obj_addr, bool on);

  /// Apply `fn` to the live policy. Policy flags are read without locks on
  /// the scheduling fast paths, so this is only safe when no concurrent
  /// place/acquire runs — the single-threaded simulation engine between
  /// task dispatches. The adaptive runtime is sim-only for exactly this
  /// reason. A change of `Policy::balancer` (the epoch-boundary switch
  /// under --adapt) takes effect at the next place() or acquire().
  void adapt_policy(const std::function<void(Policy&)>& fn);

  /// Install the Reserve balancer's heat source (typically the locality
  /// profiler) and empty the hotness table. place() reads it only under
  /// Reserve.
  void set_hotness_source(HotnessFn fn);

 private:
  /// An obs::Hist<0> of relaxed atomics, so detail() may read it while
  /// processors record. The max only grows: a CAS raises it, and a sample
  /// at or below it costs one load.
  struct AtomicHist {
    using Hist = obs::Hist<0>;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, Hist::kBuckets> buckets{};

    void observe(std::uint64_t v) noexcept {
      count.fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(v, std::memory_order_relaxed);
      buckets[Hist::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
      std::uint64_t m = max.load(std::memory_order_relaxed);
      while (v > m &&
             !max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
      }
    }
    /// Hist::merge() of a relaxed load of every field.
    void fold_into(Hist& h) const noexcept;
  };

  /// One server's statistics shard; updated with relaxed atomics by whichever
  /// thread performs the operation, summed by stats() and detail().
  struct StatShard {
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> placed_processor{0};
    std::atomic<std::uint64_t> placed_object{0};
    std::atomic<std::uint64_t> placed_task{0};
    std::atomic<std::uint64_t> placed_local{0};
    std::atomic<std::uint64_t> placed_multi{0};
    std::atomic<std::uint64_t> placed_round_robin{0};
    std::atomic<std::uint64_t> pops{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> set_steals{0};
    std::atomic<std::uint64_t> tasks_stolen{0};
    std::atomic<std::uint64_t> remote_cluster_steals{0};
    std::atomic<std::uint64_t> failed_steal_scans{0};
    std::atomic<std::uint64_t> resumes{0};
    std::atomic<std::uint64_t> balance_commands{0};
    std::atomic<std::uint64_t> balance_moves{0};
    std::atomic<std::uint64_t> reserve_hits{0};
    AtomicHist steal_scan;  ///< Written by the acquiring processor.
    AtomicHist run_length;  ///< Written by the acquiring processor.
    /// Reservation hits by target cluster, on the spawner's shard.
    std::vector<std::atomic<std::uint64_t>> reserve_hits_by_cluster;
  };

  /// Per-processor tracker of how many tasks of one affinity set ran
  /// back-to-back (paper §5's motivation for the queue array). Updated only
  /// by the owning processor's acquire() calls, so no synchronisation; a
  /// finished run goes to the processor's run_length histogram.
  struct alignas(64) RunTrack {
    std::uint64_t key = 0;
    std::uint64_t len = 0;
  };

  /// Reserve's hotness table (zsim-ndp's DataHotness shape): the hottest
  /// profiled objects, refreshed from `source` every 16 placements so
  /// reservations track the profile as it accumulates.
  struct HotTable {
    util::Mutex mu;  ///< Guards every field below.
    HotnessFn source COOL_GUARDED_BY(mu);
    /// Heat-descending, truncated.
    std::vector<DataHotness> hot COOL_GUARDED_BY(mu);
    /// Per-affinity-key target cache: one lookup per key between refreshes,
    /// so a whole task-affinity set lands on one server. Probed, never
    /// iterated — lookup order cannot leak into placement decisions.
    std::unordered_map<std::uint64_t, topo::ProcId> cache COOL_GUARDED_BY(mu);
    std::uint64_t placements COOL_GUARDED_BY(mu) = 0;
  };

  /// Close the current affinity run (if any) and start one for `key`.
  void note_run(topo::ProcId proc, std::uint64_t key);

  TaskDesc* try_steal(topo::ProcId thief, topo::ProcId victim, bool& busy);
  /// An Average move: extract up to `max_tasks` tasks from `victim`'s queue,
  /// adopt them on the thief, and return the first runnable one.
  TaskDesc* try_move(topo::ProcId thief, topo::ProcId victim,
                     std::uint32_t max_tasks, bool& busy);
  /// Where should a task keyed by affinity object `key_addr` go under
  /// Reserve? The least-loaded member (ties: lowest id) of the cluster
  /// homing the hot object containing `key_addr`, or nullopt when the
  /// address is cold or no heat source is installed. Thread-safe.
  std::optional<topo::ProcId> reserve_target(std::uint64_t key_addr);

  const topo::MachineConfig& machine_;
  Policy policy_;
  HomeFn home_;
  std::deque<ServerQueues> queues_;  // deque: ServerQueues is not movable

  HotTable hot_;
  /// Reserve has been selected at some point: detail() reports the
  /// per-cluster hits from then on, and never under another balancer alone.
  bool reserve_selected_ = false;

  util::Sharded<StatShard> stats_;   // per-server shards, summed on read
  std::atomic<std::uint64_t> rr_next_{0};  ///< Base-mode round-robin cursor.

  /// TASK-promotion override table (see set_task_promotion). The atomic flag
  /// keeps the no-overrides fast path lock-free; the set itself is read under
  /// the mutex only when at least one promotion exists.
  std::atomic<bool> has_overrides_{false};
  mutable util::Mutex override_m_;
  /// Promotion keys; mutated only by set_task_promotion and probed (find,
  /// never iterated — lookup order cannot leak into scheduling) by place().
  std::unordered_set<std::uint64_t> promoted_ COOL_GUARDED_BY(override_m_);

  std::vector<RunTrack> run_track_;  ///< One per processor.
};

}  // namespace cool::sched
