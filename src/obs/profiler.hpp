// LocalityProfiler — per-object / per-affinity-set attribution of simulated
// memory behaviour.
//
// The paper's methodology (§6) is attribution: the authors used the DASH
// performance monitor to find *which objects* suffered remote misses and
// *which task sets* lost cache reuse, then added the matching affinity hint.
// The aggregate PerfMonitor reproduces the monitor's totals; this profiler
// recovers the attribution. It taps every simulated line reference (via
// mem::AccessObserver) and charges it to
//   * the registered object/region containing the address (unregistered
//     memory lands in address-hashed anonymous buckets — never dropped),
//   * the running task's affinity set (tasks naming the same affinity object
//     form a set; reuse is lost when a set's tasks spread across processors),
//   * the running task's hint class (the paper's Table 1 taxonomy).
//
// Counters accumulate in per-processor shards (each engine worker writes only
// its own shard) and are merged into a ProfileSnapshot on demand. The
// adaptive engine reads the profile every epoch instead, through
// read_epoch(): each shard queues the entries it touches, and a read folds
// only those into a ProfileDelta of the interval's own activity. The
// profiler is strictly passive: it charges zero simulated cycles, and with
// it detached nothing in the runtime even branches on it.
//
// Thread-safety: register objects before run(); take snapshots only while no
// run is in flight, and read epochs only from the simulation thread between
// dispatches. During a run each shard has exactly one writer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "memsim/access_observer.hpp"
#include "obs/object_registry.hpp"
#include "topology/machine.hpp"

namespace cool::obs {

/// The paper's Table 1 hint taxonomy, as dispatched task classes.
enum class HintClass : std::uint8_t {
  kNone = 0,        ///< No hints: scheduled on the spawner.
  kObject,          ///< OBJECT / simple / default affinity.
  kTask,            ///< TASK affinity only.
  kTaskObject,      ///< TASK + OBJECT (Gauss).
  kProcessor,       ///< PROCESSOR affinity.
  kProcessorTask,   ///< PROCESSOR + TASK (LocusRoute).
  kMulti,           ///< Multi-object affinity (§8).
};
constexpr int kNumHintClasses = 7;
const char* hint_class_name(HintClass hc);

/// Map an affinity hint's components to its class.
constexpr HintClass classify_hint(bool task, bool object, bool processor,
                                  bool multi) noexcept {
  if (multi) return HintClass::kMulti;
  if (processor) return task ? HintClass::kProcessorTask : HintClass::kProcessor;
  if (task) return object ? HintClass::kTaskObject : HintClass::kTask;
  return object ? HintClass::kObject : HintClass::kNone;
}

/// Whether tasks of this class form a task-affinity set the scheduler tries
/// to run back-to-back (paper §5).
constexpr bool hint_has_task_affinity(HintClass hc) noexcept {
  return hc == HintClass::kTask || hc == HintClass::kTaskObject ||
         hc == HintClass::kProcessorTask;
}

/// The per-bucket access breakdown: the six Service categories plus the
/// derived counters every miss figure in the paper reports.
struct AccessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t serviced[mem::kNumServices] = {};
  std::uint64_t invals = 0;               ///< Sharer copies killed by writes here.
  std::uint64_t stall_cycles = 0;         ///< Memory stall charged to this bucket.
  std::uint64_t remote_stall_cycles = 0;  ///< ... of which on remote service.

  [[nodiscard]] std::uint64_t accesses() const noexcept { return reads + writes; }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return serviced[2] + serviced[3] + serviced[4] + serviced[5];
  }
  [[nodiscard]] std::uint64_t local_misses() const noexcept {
    return serviced[2] + serviced[4];
  }
  [[nodiscard]] std::uint64_t remote_misses() const noexcept {
    return serviced[3] + serviced[5];
  }

  void add(const AccessStats& o) noexcept {
    reads += o.reads;
    writes += o.writes;
    for (int i = 0; i < mem::kNumServices; ++i) serviced[i] += o.serviced[i];
    invals += o.invals;
    stall_cycles += o.stall_cycles;
    remote_stall_cycles += o.remote_stall_cycles;
  }
  /// Remove an earlier reading of the same counters (`o` <= *this).
  void sub(const AccessStats& o) noexcept {
    reads -= o.reads;
    writes -= o.writes;
    for (int i = 0; i < mem::kNumServices; ++i) serviced[i] -= o.serviced[i];
    invals -= o.invals;
    stall_cycles -= o.stall_cycles;
    remote_stall_cycles -= o.remote_stall_cycles;
  }
  bool operator==(const AccessStats&) const = default;
};

/// Merged, quiescent view of everything the profiler attributed.
struct ProfileSnapshot {
  std::uint32_t n_procs = 0;
  std::uint32_t n_clusters = 0;

  struct ObjectRow {
    std::string name;
    std::uint64_t addr = 0;   ///< Simulated (arena-relative) start address.
    std::uint64_t bytes = 0;
    bool anonymous = false;   ///< Address-hashed bucket, not a registration.
    topo::ProcId home = 0;    ///< Home at registration time (display only).
    AccessStats s;
    /// Misses issued by processors of each cluster (who uses the object).
    std::vector<std::uint64_t> miss_from_cluster;
    /// Misses serviced by each cluster's memory/caches (where it lives).
    std::vector<std::uint64_t> miss_home_cluster;
  };

  struct SetRow {
    std::uint64_t key = 0;    ///< Simulated address of the affinity object.
    std::string label;        ///< "<object>+0x<off>" when the key resolves.
    HintClass hint = HintClass::kNone;
    std::uint64_t tasks = 0;  ///< Task dispatches belonging to the set.
    std::uint64_t stolen = 0; ///< ... of which arrived via stealing.
    std::vector<topo::ProcId> procs;  ///< Processors that ran the set's tasks.
    AccessStats s;
  };

  struct HintRow {
    HintClass hint = HintClass::kNone;
    std::uint64_t tasks = 0;
    AccessStats s;
  };

  std::vector<ObjectRow> objects;  ///< Registered (address order), then anon.
  std::vector<SetRow> sets;        ///< Sorted by stall cycles, descending.
  std::vector<HintRow> hints;      ///< One row per class with any activity.
  AccessStats total;               ///< Sum over objects (== PerfMonitor totals).

  /// Deterministic JSON object: {"objects":[...],"sets":[...],"hints":[...]}.
  [[nodiscard]] std::string to_json() const;
};

/// The profile as the advisor rules read it: one interval's activity per
/// object and per affinity set. LocalityProfiler::read_epoch() lists what
/// changed since its previous read; of() views a whole snapshot as the
/// interval since the run began. Names, labels, processor lists and cluster
/// counts are views: into the profiler (valid until its next read or
/// registration) and `cluster_counts`, or into the snapshot.
struct ProfileDelta {
  struct Object {
    std::string_view name;  ///< Empty for an anonymous bucket read live.
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
    bool anonymous = false;
    AccessStats s;
    std::span<const std::uint64_t> miss_from_cluster;
    std::span<const std::uint64_t> miss_home_cluster;
  };

  struct Set {
    std::uint64_t key = 0;
    std::string_view label;
    HintClass hint = HintClass::kNone;
    std::uint64_t tasks = 0;
    std::uint64_t stolen = 0;
    /// Every processor that ever ran the set's tasks, not just this
    /// interval's: a set that ever spread has lost its reuse, and a set of
    /// ids has no meaningful interval difference.
    std::span<const topo::ProcId> procs;
    AccessStats s;
  };

  /// Row order: snapshot order from of(); the order the read met them
  /// from read_epoch(). advisor::evaluate() does not depend on it.
  std::vector<Object> objects;
  std::vector<Set> sets;
  /// Backs the objects' cluster views when read_epoch() filled the delta;
  /// a reused delta keeps all three vectors' capacity.
  std::vector<std::uint64_t> cluster_counts;

  /// The whole run `p` covers, as one interval.
  static ProfileDelta of(const ProfileSnapshot& p);
};

/// Human-readable report: per-object miss breakdown, the hottest affinity
/// sets, and the per-hint-class rollup, as fixed-width tables.
std::string profile_report(const ProfileSnapshot& p);

class LocalityProfiler final : public mem::AccessObserver {
 public:
  /// "No affinity set" sentinel for on_task_dispatch. Not 0: simulated
  /// addresses are arena offsets, so the first allocation legitimately sits
  /// at address 0.
  static constexpr std::uint64_t kNoSet = ~0ull;

  explicit LocalityProfiler(const topo::MachineConfig& machine);

  /// Register a named object/region (simulated addresses). Call before the
  /// run; overlapping registrations are ignored (first wins). Returns whether
  /// the range was registered.
  bool register_object(std::string name, std::uint64_t addr,
                       std::uint64_t bytes, topo::ProcId home);

  /// Engine hook: `proc` is about to resume a task of class `hint` belonging
  /// to affinity set `set_key` (the simulated address of the affinity
  /// object; kNoSet = none). Called by the owning worker only.
  void on_task_dispatch(topo::ProcId proc, HintClass hint,
                        std::uint64_t set_key, bool stolen);

  // --- mem::AccessObserver --------------------------------------------------
  void on_access(const mem::AccessInfo& info) override;
  void on_inval(std::uint64_t addr, topo::ProcId requester,
                int copies_killed) override;

  /// Merge every shard. Call only while no run is in flight.
  [[nodiscard]] ProfileSnapshot snapshot() const;

  /// Fill `out` with the activity since the previous read_epoch() (or since
  /// construction): the difference of two snapshot()s paired by identity
  /// (registered object, anonymous bucket, set key), listing only what was
  /// touched in between. Visits only those entries, builds no map, and
  /// formats a set's label once, when a read first lists the set; each set
  /// carries its cumulative processor list. Reusing `out` reuses its storage.
  void read_epoch(ProfileDelta& out);

  [[nodiscard]] std::size_t n_registered() const noexcept {
    return reg_.size();
  }

 private:
  /// Unregistered memory is charged to 1 MiB address-hashed buckets so the
  /// per-object breakdown always sums to the PerfMonitor totals.
  static constexpr std::uint64_t kAnonShift = 20;
  static constexpr std::uint64_t kAnonBit = 1ull << 63;

  /// What read_epoch() keeps per object across reads: the read that last
  /// listed the object and its row there.
  struct ObjRecord {
    std::uint64_t key = 0;  ///< Registered index, or kAnonBit | bucket.
    std::uint64_t read = 0;
    std::size_t row = 0;
  };

  /// The same per set, plus the cumulative view snapshot() would rebuild
  /// from every shard.
  struct SetRecord {
    std::uint64_t key = 0;
    std::uint64_t read = 0;
    std::size_t row = 0;
    std::string label;  ///< reg_.label(key), refreshed on registration.
    HintClass hint = HintClass::kNone;  ///< The highest processor's, as
                                        ///< snapshot() reports it.
    std::vector<topo::ProcId> procs;    ///< Ascending.
  };

  struct ObjStats {
    std::uint64_t id = 0;  ///< Registered index, or kAnonBit | bucket.
    AccessStats s;
    /// Misses by servicing home cluster (sized on first miss). The issuing
    /// cluster needs no per-shard histogram: it is the shard's own cluster.
    std::vector<std::uint64_t> miss_home_cluster;
    /// read_epoch() bookkeeping: the counts at the previous read, the read
    /// generation in which the entry was last queued as touched, and the
    /// object's record once a read has met the entry.
    AccessStats read_s;
    std::vector<std::uint64_t> read_home;
    std::uint64_t touched = 0;
    ObjRecord* rec = nullptr;
  };

  struct SetShard {
    std::uint64_t key = 0;
    std::uint64_t tasks = 0;
    std::uint64_t stolen = 0;
    HintClass hint = HintClass::kNone;
    AccessStats s;
    /// As in ObjStats; read_tasks == 0 means this processor is new to the
    /// set since the previous read.
    std::uint64_t read_tasks = 0;
    std::uint64_t read_stolen = 0;
    AccessStats read_s;
    std::uint64_t touched = 0;
    SetRecord* rec = nullptr;
  };

  struct HintShard {
    std::uint64_t tasks = 0;
    AccessStats s;
  };

  /// One processor's private slice; single writer during a run. Map nodes
  /// never move, so the touched lists and cur_set may point into them.
  struct Shard {
    std::unordered_map<std::uint64_t, ObjStats> objects;  ///< By object id.
    std::unordered_map<std::uint64_t, SetShard> sets;     ///< By set key.
    std::array<HintShard, kNumHintClasses> hints{};
    HintClass cur_hint = HintClass::kNone;   ///< Running task's class.
    SetShard* cur_set = nullptr;             ///< Running task's set, if any.
    /// Resolution cache: the registered object accessed last and its range
    /// (never an anonymous bucket: registrations punch holes in those).
    ObjStats* last = nullptr;
    std::uint64_t last_start = 0;
    std::uint64_t last_end = 0;
    /// Entries touched since the last read_epoch(), each queued once per
    /// read generation `gen`.
    std::uint64_t gen = 1;
    std::vector<ObjStats*> touched_objects;
    std::vector<SetShard*> touched_sets;
  };

  /// The entry of the object at `addr` in `sh` (keyed by registered index,
  /// or anonymous bucket id), queued as touched.
  ObjStats& obj_stats(Shard& sh, std::uint64_t addr);
  static void touch(Shard& sh, SetShard& ss);

  topo::MachineConfig machine_;
  ObjectRegistry reg_;
  mutable util::Sharded<Shard> shards_;
  /// Every object and set a read has met, by key. Heap nodes: shard entries
  /// point at them, and a ProfileDelta views set labels and processors.
  std::vector<std::unique_ptr<ObjRecord>> obj_records_;
  std::vector<std::unique_ptr<SetRecord>> set_records_;
  std::uint64_t reads_ = 0;
};

}  // namespace cool::obs
