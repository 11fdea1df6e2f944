// Locality profiler + advisor tests: attribution bookkeeping, the
// paper-style diagnosis rules, the zero-perturbation guarantee, and the
// sum-to-PerfMonitor invariant on a real application run (Ocean, Fig. 7).
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/ocean/ocean.hpp"
#include "common/rng.hpp"
#include "core/cool.hpp"
#include "obs/advisor.hpp"

namespace cool {
namespace {

TEST(HintClass, ClassifyMatchesAffinityTaxonomy) {
  using obs::HintClass;
  EXPECT_EQ(obs::classify_hint(false, false, false, false), HintClass::kNone);
  EXPECT_EQ(obs::classify_hint(false, true, false, false), HintClass::kObject);
  EXPECT_EQ(obs::classify_hint(true, false, false, false), HintClass::kTask);
  EXPECT_EQ(obs::classify_hint(true, true, false, false),
            HintClass::kTaskObject);
  EXPECT_EQ(obs::classify_hint(false, false, true, false),
            HintClass::kProcessor);
  EXPECT_EQ(obs::classify_hint(true, false, true, false),
            HintClass::kProcessorTask);
  EXPECT_EQ(obs::classify_hint(false, true, false, true), HintClass::kMulti);
  EXPECT_TRUE(obs::hint_has_task_affinity(HintClass::kTask));
  EXPECT_TRUE(obs::hint_has_task_affinity(HintClass::kTaskObject));
  EXPECT_TRUE(obs::hint_has_task_affinity(HintClass::kProcessorTask));
  EXPECT_FALSE(obs::hint_has_task_affinity(HintClass::kObject));
  EXPECT_FALSE(obs::hint_has_task_affinity(HintClass::kProcessor));
}

TEST(LocalityProfiler, RejectsOverlappingRegistrations) {
  obs::LocalityProfiler prof(topo::MachineConfig::dash(4));
  EXPECT_TRUE(prof.register_object("a", 0x1000, 0x100, 0));
  EXPECT_FALSE(prof.register_object("tail-overlap", 0x10f0, 0x100, 0));
  EXPECT_FALSE(prof.register_object("head-overlap", 0x0f80, 0x100, 0));
  EXPECT_FALSE(prof.register_object("inside", 0x1040, 0x10, 0));
  EXPECT_TRUE(prof.register_object("b", 0x1100, 0x100, 0));
  EXPECT_EQ(prof.n_registered(), 2u);
}

TEST(LocalityProfiler, AttributesAccessesAndAnonymousBuckets) {
  const auto machine = topo::MachineConfig::dash(8);
  obs::LocalityProfiler prof(machine);
  ASSERT_TRUE(prof.register_object("obj", 0x1000, 0x100, 0));

  // One registered hit (remote mem, issued by proc 4 = cluster 1, serviced
  // by proc 0's memory = cluster 0) and one unregistered access.
  prof.on_access(mem::AccessInfo{4, 0x1010, mem::Service::kRemoteMem, false,
                                 100, 0});
  prof.on_access(mem::AccessInfo{0, 0x40000000, mem::Service::kL1Hit, true,
                                 1, 0});

  const obs::ProfileSnapshot p = prof.snapshot();
  ASSERT_EQ(p.objects.size(), 2u);
  const auto& obj = p.objects[0];
  EXPECT_EQ(obj.name, "obj");
  EXPECT_FALSE(obj.anonymous);
  EXPECT_EQ(obj.s.reads, 1u);
  EXPECT_EQ(obj.s.serviced[3], 1u);
  EXPECT_EQ(obj.s.stall_cycles, 100u);
  EXPECT_EQ(obj.s.remote_stall_cycles, 100u);
  ASSERT_EQ(obj.miss_from_cluster.size(), 2u);
  EXPECT_EQ(obj.miss_from_cluster[1], 1u);  // Issued by cluster 1.
  EXPECT_EQ(obj.miss_home_cluster[0], 1u);  // Serviced by cluster 0.

  const auto& anon = p.objects[1];
  EXPECT_TRUE(anon.anonymous);
  EXPECT_EQ(anon.s.writes, 1u);
  EXPECT_EQ(anon.s.serviced[0], 1u);

  // The total row covers everything, anonymous traffic included.
  EXPECT_EQ(p.total.accesses(), 2u);
  EXPECT_EQ(p.total.stall_cycles, 101u);
}

// --- epoch reads -------------------------------------------------------------

/// What read_epoch() must equal: `cur` minus `prev`, rows paired by identity
/// (registered objects and anonymous buckets each by address, sets by key).
/// Rows new in `cur` stay whole; set procs and hints stay `cur`'s.
obs::ProfileSnapshot paired_diff(const obs::ProfileSnapshot& cur,
                                 const obs::ProfileSnapshot& prev) {
  obs::ProfileSnapshot d = cur;
  std::map<std::pair<bool, std::uint64_t>,
           const obs::ProfileSnapshot::ObjectRow*>
      objects;
  for (const auto& o : prev.objects) objects[{o.anonymous, o.addr}] = &o;
  for (auto& o : d.objects) {
    const auto it = objects.find({o.anonymous, o.addr});
    if (it == objects.end()) continue;
    o.s.sub(it->second->s);
    for (std::size_t c = 0; c < o.miss_from_cluster.size(); ++c) {
      o.miss_from_cluster[c] -= it->second->miss_from_cluster[c];
      o.miss_home_cluster[c] -= it->second->miss_home_cluster[c];
    }
  }
  std::map<std::uint64_t, const obs::ProfileSnapshot::SetRow*> sets;
  for (const auto& set : prev.sets) sets[set.key] = &set;
  for (auto& set : d.sets) {
    const auto it = sets.find(set.key);
    if (it == sets.end()) continue;
    set.tasks -= it->second->tasks;
    set.stolen -= it->second->stolen;
    set.s.sub(it->second->s);
  }
  return d;
}

template <typename T>
std::vector<T> as_vector(std::span<const T> v) {
  return {v.begin(), v.end()};
}

bool all_zero(const std::vector<std::uint64_t>& v) {
  for (std::uint64_t x : v) {
    if (x != 0) return false;
  }
  return true;
}

/// `fast` lists every row of `ref` with activity, equal to it; a row it
/// omits must be idle in `ref`.
void expect_same_activity(const obs::ProfileDelta& fast,
                          const obs::ProfileSnapshot& ref) {
  std::map<std::pair<bool, std::uint64_t>, const obs::ProfileDelta::Object*>
      objects;
  for (const auto& o : fast.objects) {
    EXPECT_TRUE(objects.emplace(std::make_pair(o.anonymous, o.addr), &o).second)
        << "object listed twice: " << o.addr;
  }
  std::size_t matched = 0;
  for (const auto& r : ref.objects) {
    const auto it = objects.find({r.anonymous, r.addr});
    if (it == objects.end()) {
      EXPECT_EQ(r.s, obs::AccessStats{}) << r.name;
      EXPECT_TRUE(all_zero(r.miss_from_cluster)) << r.name;
      EXPECT_TRUE(all_zero(r.miss_home_cluster)) << r.name;
      continue;
    }
    ++matched;
    const obs::ProfileDelta::Object& o = *it->second;
    if (!r.anonymous) {
      EXPECT_EQ(o.name, r.name);
    }
    EXPECT_EQ(o.bytes, r.bytes) << r.name;
    EXPECT_EQ(o.s, r.s) << r.name;
    EXPECT_EQ(as_vector(o.miss_from_cluster), r.miss_from_cluster) << r.name;
    EXPECT_EQ(as_vector(o.miss_home_cluster), r.miss_home_cluster) << r.name;
  }
  EXPECT_EQ(matched, fast.objects.size());

  std::map<std::uint64_t, const obs::ProfileDelta::Set*> sets;
  for (const auto& set : fast.sets) {
    EXPECT_TRUE(sets.emplace(set.key, &set).second)
        << "set listed twice: " << set.key;
  }
  matched = 0;
  for (const auto& r : ref.sets) {
    const auto it = sets.find(r.key);
    if (it == sets.end()) {
      EXPECT_EQ(r.tasks, 0u) << r.label;
      EXPECT_EQ(r.stolen, 0u) << r.label;
      EXPECT_EQ(r.s, obs::AccessStats{}) << r.label;
      continue;
    }
    ++matched;
    const obs::ProfileDelta::Set& set = *it->second;
    EXPECT_EQ(set.label, r.label);
    EXPECT_EQ(set.hint, r.hint) << r.label;
    EXPECT_EQ(set.tasks, r.tasks) << r.label;
    EXPECT_EQ(set.stolen, r.stolen) << r.label;
    EXPECT_EQ(as_vector(set.procs), r.procs) << r.label;
    EXPECT_EQ(set.s, r.s) << r.label;
  }
  EXPECT_EQ(matched, fast.sets.size());
}

/// One line per finding, every field a rule fills, for readable diffs.
std::vector<std::string> describe(
    const std::vector<obs::advisor::Finding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s w=%llu addr=%llu user=%zu/%.6f home=%zu/%.6f "
                  "remote=%.6f key=%llu hint=%d tasks=%llu stolen=%llu "
                  "procs=%zu stall=%llu",
                  obs::advice_kind_name(f.kind),
                  static_cast<unsigned long long>(f.weight),
                  static_cast<unsigned long long>(f.obj_addr), f.user_cluster,
                  f.user_share, f.home_cluster, f.home_share, f.remote_frac,
                  static_cast<unsigned long long>(f.set_key),
                  static_cast<int>(f.hint),
                  static_cast<unsigned long long>(f.set_tasks),
                  static_cast<unsigned long long>(f.set_stolen), f.set_procs,
                  static_cast<unsigned long long>(f.stall_cycles));
    out.push_back(f.subject + ": " + buf);
  }
  return out;
}

// Identity pairing: an anonymous 1 MiB bucket starts at the same address as
// a registered object inside it. Each must be diffed against its own
// previous counts, not against the other's.
TEST(LocalityProfiler, EpochReadPairsObjectsByIdentityNotAddress) {
  const auto machine = topo::MachineConfig::dash(8);
  obs::LocalityProfiler prof(machine);
  ASSERT_TRUE(prof.register_object("obj", 0x100000, 0x100, 0));
  const auto obj_miss = [&prof] {
    prof.on_access(mem::AccessInfo{4, 0x100040, mem::Service::kRemoteMem,
                                   false, 100, 0});
  };
  const auto anon_hit = [&prof] {
    prof.on_access(
        mem::AccessInfo{1, 0x100800, mem::Service::kL1Hit, false, 1, 0});
  };

  for (int i = 0; i < 5; ++i) obj_miss();
  for (int i = 0; i < 20; ++i) anon_hit();
  const obs::ProfileSnapshot s1 = prof.snapshot();
  obs::ProfileDelta d;
  prof.read_epoch(d);

  for (int i = 0; i < 3; ++i) obj_miss();
  for (int i = 0; i < 50; ++i) anon_hit();
  const obs::ProfileSnapshot s2 = prof.snapshot();
  prof.read_epoch(d);

  ASSERT_EQ(s2.objects.size(), 2u);
  EXPECT_EQ(s2.objects[1].name, "anon@0x100000");  // Same start as "obj".
  ASSERT_EQ(d.objects.size(), 2u);
  const bool anon_first = d.objects[0].anonymous;
  const obs::ProfileDelta::Object& obj = d.objects[anon_first ? 1 : 0];
  const obs::ProfileDelta::Object& anon = d.objects[anon_first ? 0 : 1];
  EXPECT_EQ(obj.name, "obj");
  EXPECT_EQ(obj.addr, 0x100000u);
  EXPECT_EQ(obj.s.reads, 3u);
  EXPECT_EQ(obj.s.remote_misses(), 3u);
  EXPECT_EQ(as_vector(obj.miss_from_cluster),
            (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(as_vector(obj.miss_home_cluster),
            (std::vector<std::uint64_t>{3, 0}));
  EXPECT_FALSE(obj.anonymous);
  EXPECT_TRUE(anon.anonymous);
  EXPECT_EQ(anon.addr, 0x100000u);
  EXPECT_EQ(anon.s.reads, 50u);
  expect_same_activity(d, paired_diff(s2, s1));

  // Nothing happened since: an empty read.
  prof.read_epoch(d);
  EXPECT_TRUE(d.objects.empty());
  EXPECT_TRUE(d.sets.empty());
}

// The fast path equals the snapshot reference: a random stream of
// dispatches, accesses and invalidations at P=8 over registered objects,
// anonymous buckets (one colliding with a registration's start), several
// set keys and hint classes. At every read the delta must equal the
// identity-paired difference of consecutive snapshots, and the advisor must
// find the same things in the same order from either.
TEST(LocalityProfiler, EpochReadEqualsPairedSnapshotDiff) {
  const auto machine = topo::MachineConfig::dash(8);
  obs::LocalityProfiler prof(machine);
  ASSERT_TRUE(prof.register_object("a", 0x1000, 0x800, 0));
  ASSERT_TRUE(prof.register_object("b", 0x100000, 0x400, 4));  // 1 MiB start
  ASSERT_TRUE(prof.register_object("c", 0x300040, 0x2000, 2));
  const std::vector<std::uint64_t> addrs = {
      0x1000,   0x1400,   0x17c0,     // a
      0x100000, 0x1003c0,             // b
      0x300040, 0x301000,             // c
      0x100400, 0x180000,             // anon@0x100000, beside b
      0x200000, 0x40000000};          // other anon buckets
  const std::vector<std::uint64_t> keys = {
      obs::LocalityProfiler::kNoSet, 0x1000, 0x1040, 0x100000, 0x5000,
      0x300040};
  const std::vector<obs::HintClass> hints = {
      obs::HintClass::kNone, obs::HintClass::kObject, obs::HintClass::kTask,
      obs::HintClass::kTaskObject};

  util::Rng rng(12345);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  obs::ProfileSnapshot prev = prof.snapshot();
  obs::ProfileDelta fast;
  std::size_t online_findings = 0;
  for (int epoch = 0; epoch < 80; ++epoch) {
    const std::size_t events = epoch % 10 == 9 ? 0 : 1 + pick(300);
    for (std::size_t e = 0; e < events; ++e) {
      const auto proc = static_cast<topo::ProcId>(pick(machine.n_procs));
      const std::size_t what = pick(10);
      if (what == 0) {
        prof.on_task_dispatch(proc, hints[pick(hints.size())],
                              keys[pick(keys.size())], pick(3) == 0);
      } else if (what == 1) {
        prof.on_inval(addrs[pick(addrs.size())], proc,
                      static_cast<int>(pick(4)));
      } else {
        mem::AccessInfo info;
        info.proc = proc;
        info.addr = addrs[pick(addrs.size())];
        info.service = static_cast<mem::Service>(pick(mem::kNumServices));
        info.is_write = pick(2) == 0;
        info.stall = static_cast<std::uint32_t>(pick(400));
        info.home = static_cast<topo::ProcId>(pick(machine.n_procs));
        prof.on_access(info);
      }
    }
    prof.read_epoch(fast);
    const obs::ProfileSnapshot cur = prof.snapshot();
    const obs::ProfileSnapshot ref = paired_diff(cur, prev);
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    expect_same_activity(fast, ref);

    const obs::ProfileDelta whole = obs::ProfileDelta::of(ref);
    const obs::advisor::Signals none;
    const auto got = obs::advisor::evaluate(fast, none, adaptive::kOnlineRules);
    EXPECT_EQ(describe(got), describe(obs::advisor::evaluate(
                                 whole, none, adaptive::kOnlineRules)));
    online_findings += got.size();
    prev = cur;
  }
  EXPECT_GT(online_findings, 0u);
}

// The acceptance scenario: one mis-homed object plus one task-affinity set
// split by stealing. Built deterministically from attribution rows; the
// advisor must name both and make the right suggestion for each.
TEST(Advisor, NamesMisHomedObjectAndSplitSet) {
  obs::ProfileSnapshot p;
  p.n_procs = 8;
  p.n_clusters = 2;

  obs::ProfileSnapshot::ObjectRow grid;
  grid.name = "grid";
  grid.addr = 0x1000;
  grid.bytes = 1 << 20;
  grid.home = 0;  // Lives in cluster 0...
  grid.s.reads = 4000;
  grid.s.serviced[0] = 3000;
  grid.s.serviced[3] = 1000;  // ...but every miss is serviced remotely.
  grid.s.stall_cycles = 120000;
  grid.s.remote_stall_cycles = 110000;
  grid.miss_from_cluster = {50, 950};   // Used almost only by cluster 1.
  grid.miss_home_cluster = {1000, 0};
  p.objects.push_back(grid);
  p.total = grid.s;

  obs::ProfileSnapshot::SetRow set;
  set.key = 0x2000;
  set.label = "wavefront";
  set.hint = obs::HintClass::kObject;  // Shares data but has no TASK hint.
  set.tasks = 16;
  set.stolen = 9;
  set.procs = {0, 1, 2, 3};
  set.s.reads = 2000;
  set.s.serviced[3] = 200;
  set.s.stall_cycles = 90000;
  set.s.remote_stall_cycles = 80000;
  p.sets.push_back(set);

  const std::vector<obs::Advice> advice =
      obs::advise(p, obs::advisor::Signals{});
  ASSERT_EQ(advice.size(), 2u);

  // Sorted by weight: the object's 110k remote-stall outranks the set's 90k.
  EXPECT_EQ(advice[0].kind, obs::AdviceKind::kMigrateObject);
  EXPECT_EQ(advice[0].subject, "grid");
  EXPECT_NE(advice[0].suggestion.find("migrate 'grid' to cluster 1"),
            std::string::npos);

  EXPECT_EQ(advice[1].kind, obs::AdviceKind::kTaskAffinity);
  EXPECT_EQ(advice[1].subject, "wavefront");
  EXPECT_NE(advice[1].suggestion.find("TASK affinity"), std::string::npos);

  // The report and JSON both carry the findings.
  const std::string rep = obs::advice_report(advice);
  EXPECT_NE(rep.find("migrate-object: grid"), std::string::npos);
  EXPECT_NE(rep.find("task-affinity: wavefront"), std::string::npos);
  EXPECT_NE(obs::advice_json(advice).find("\"subject\":\"grid\""),
            std::string::npos);
}

TEST(Advisor, SplitTaskAffinitySetSuggestsWholeSetStealing) {
  obs::ProfileSnapshot p;
  p.n_procs = 8;
  p.n_clusters = 2;
  obs::ProfileSnapshot::SetRow set;
  set.key = 0x3000;
  set.label = "col[7]";
  set.hint = obs::HintClass::kTaskObject;  // Already has TASK affinity.
  set.tasks = 12;
  set.stolen = 5;
  set.procs = {2, 3, 6};
  set.s.stall_cycles = 5000;
  p.sets.push_back(set);

  const auto advice = obs::advise(p, obs::advisor::Signals{});
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].kind, obs::AdviceKind::kWholeSetStealing);
  EXPECT_EQ(advice[0].subject, "col[7]");
  EXPECT_NE(advice[0].suggestion.find("steal_whole_sets"), std::string::npos);
}

TEST(Advisor, QuietProfileYieldsNoAdvice) {
  obs::ProfileSnapshot p;
  p.n_procs = 4;
  p.n_clusters = 1;
  obs::ProfileSnapshot::ObjectRow o;
  o.name = "cold";
  o.s.reads = 10;  // Below min_misses; no misses at all.
  o.s.serviced[0] = 10;
  p.objects.push_back(o);
  EXPECT_TRUE(obs::advise(p, obs::advisor::Signals{}).empty());
  EXPECT_NE(obs::advice_report({}).find("no advice"), std::string::npos);
}

TEST(Advisor, FlagsStealStormAndIdleImbalance) {
  obs::advisor::Signals m;
  m.failed_steal_scans = 10000;
  m.steals = 100;
  m.busy_cycles = 1000;
  m.idle_cycles = 9000;
  const auto advice = obs::advise(obs::ProfileSnapshot{}, m);
  ASSERT_EQ(advice.size(), 2u);
  EXPECT_EQ(advice[0].kind, obs::AdviceKind::kStealStorm);
  EXPECT_EQ(advice[1].kind, obs::AdviceKind::kIdleImbalance);
}

// End-to-end: a processor-affinity workload that uses a cluster-0-homed
// array exclusively from cluster 1 must surface as migrate advice, with the
// object named, straight off the live runtime.
TEST(ProfilerLive, MisHomedObjectGetsMigrateAdvice) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(8);
  cfg.profile = true;
  Runtime rt(cfg);

  const std::size_t n = 8192;
  double* hot = rt.alloc_array<double>(n, /*home=*/0);
  ASSERT_TRUE(rt.profile_register("hot", hot, n * sizeof(double)));

  rt.run([](double* arr, std::size_t total) -> TaskFn {
    auto& c = co_await self();
    TaskGroup g;
    const std::size_t slice = total / 8;
    for (int t = 0; t < 8; ++t) {
      // All users pinned to cluster 1 (procs 4..7); disjoint slices so every
      // miss is serviced by the mis-placed home memory, not a peer cache.
      c.spawn(Affinity::processor(4 + t % 4), g,
              [](double* part, std::size_t len) -> TaskFn {
                auto& cc = co_await self();
                cc.update(part, len * sizeof(double));
              }(arr + t * slice, slice));
    }
    co_await c.wait(g);
  }(hot, n));

  const obs::ProfileSnapshot p = rt.profile_snapshot();
  ASSERT_FALSE(p.objects.empty());
  EXPECT_EQ(p.objects[0].name, "hot");
  EXPECT_GT(p.objects[0].s.misses(), 64u);

  const auto advice = obs::advise(p, rt.advisor_signals());
  bool migrate_hot = false;
  for (const auto& a : advice) {
    if (a.kind == obs::AdviceKind::kMigrateObject && a.subject == "hot") {
      migrate_hot = true;
      EXPECT_NE(a.suggestion.find("cluster 1"), std::string::npos);
    }
  }
  EXPECT_TRUE(migrate_hot);
}

// Fig. 7 invariant: the per-object breakdown (anonymous buckets included)
// must sum exactly to the PerfMonitor aggregates for the same run. This is
// the run `fig07_ocean_misses --procs=8 --n=64 --grids=2 --steps=2
// --profile` reports.
TEST(ProfilerLive, OceanBreakdownSumsToPerfMonitor) {
  using namespace cool::apps::ocean;
  SystemConfig sc;
  sc.machine = topo::MachineConfig::dash(8);
  sc.profile = true;
  Runtime rt(sc);

  Config cfg;
  cfg.n = 64;
  cfg.grids = 2;
  cfg.steps = 2;
  cfg.variant = Variant::kDistr;
  const Result r = run(rt, cfg);

  const obs::ProfileSnapshot p = rt.profile_snapshot();
  ASSERT_FALSE(p.objects.empty());

  obs::AccessStats sum;
  bool saw_grid = false;
  for (const auto& o : p.objects) {
    sum.add(o.s);
    if (o.name.rfind("grid[", 0) == 0) saw_grid = true;
  }
  EXPECT_TRUE(saw_grid);  // The grid[g] registrations took effect.
  EXPECT_GT(sum.accesses(), 0u);

  const auto& mem = r.run.mem;
  EXPECT_EQ(sum.reads, mem.reads);
  EXPECT_EQ(sum.writes, mem.writes);
  for (int i = 0; i < mem::kNumServices; ++i) {
    EXPECT_EQ(sum.serviced[i], mem.serviced[i]) << "service class " << i;
  }
  EXPECT_EQ(sum.stall_cycles, mem.latency_cycles);
  // The snapshot's own total row agrees with the recomputed sum.
  EXPECT_EQ(p.total.accesses(), sum.accesses());
  EXPECT_EQ(p.total.stall_cycles, sum.stall_cycles);
}

// Turning the profiler on must not change the simulation: identical cycle
// counts and results with and without it.
TEST(ProfilerLive, ProfilingDoesNotPerturbSimulatedTime) {
  using namespace cool::apps::ocean;
  auto run_ocean = [](bool profile) {
    SystemConfig sc;
    sc.machine = topo::MachineConfig::dash(8);
    sc.profile = profile;
    Runtime rt(sc);
    Config cfg;
    cfg.n = 64;
    cfg.grids = 2;
    cfg.steps = 2;
    cfg.variant = Variant::kDistr;
    const Result r = run(rt, cfg);
    return std::pair<std::uint64_t, double>(r.run.sim_cycles, r.checksum);
  };
  const auto off = run_ocean(false);
  const auto on = run_ocean(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

// Set attribution through the engine dispatch hook: TASK+OBJECT tasks
// sharing one affinity object show up as one set with its dispatch count,
// labelled by the registered object it keys on.
TEST(ProfilerLive, TaskAffinitySetsAreAttributed) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(4);
  cfg.profile = true;
  Runtime rt(cfg);

  double* src = rt.alloc_array<double>(512, 0);
  double* dst = rt.alloc_array<double>(512, 1);
  ASSERT_TRUE(rt.profile_register("src", src, 512 * sizeof(double)));

  rt.run([](double* s, double* d) -> TaskFn {
    auto& c = co_await self();
    TaskGroup g;
    for (int t = 0; t < 6; ++t) {
      c.spawn(Affinity::task_object(s, d), g,
              [](double* from, double* to) -> TaskFn {
                auto& cc = co_await self();
                cc.read(from, 512 * sizeof(double));
                cc.write(to, 512 * sizeof(double));
              }(s, d));
    }
    co_await c.wait(g);
  }(src, dst));

  const obs::ProfileSnapshot p = rt.profile_snapshot();
  ASSERT_FALSE(p.sets.empty());
  const auto& set = p.sets[0];
  EXPECT_EQ(set.hint, obs::HintClass::kTaskObject);
  EXPECT_EQ(set.tasks, 6u);
  EXPECT_EQ(set.label, "src");  // Key resolves to the registered object.
  EXPECT_GT(set.s.accesses(), 0u);

  bool task_object_row = false;
  for (const auto& h : p.hints) {
    if (h.hint == obs::HintClass::kTaskObject) {
      task_object_row = true;
      EXPECT_EQ(h.tasks, 6u);
    }
  }
  EXPECT_TRUE(task_object_row);
}

/// The Signals fields as obs_snapshot() names them (absent keys read as 0).
obs::advisor::Signals signals_by_key(const obs::Snapshot& m) {
  const auto value_of = [&m](const std::string& name) -> std::uint64_t {
    const auto it = m.values.find(name);
    return it == m.values.end() ? 0 : it->second;
  };
  obs::advisor::Signals s;
  s.failed_steal_scans = value_of("sched.failed_steal_scans");
  s.steals = value_of("sched.steals");
  s.busy_cycles = value_of("proc.busy_cycles");
  s.idle_cycles = value_of("proc.idle_cycles");
  s.queue_max_now = value_of("sched.queue.max_now");
  s.span = value_of("sim.time");
  s.chan_busy.resize(value_of("mem.chan.count"));
  for (std::size_t i = 0; i < s.chan_busy.size(); ++i) {
    s.chan_busy[i] =
        value_of("mem.chan." + std::to_string(i) + ".busy_cycles");
  }
  s.chan_busy_total = value_of("mem.chan.busy_cycles");
  s.chan_queue_full_stalls = value_of("mem.chan.queue_full_stalls");
  s.chan_row_hits = value_of("mem.chan.row_hits");
  s.chan_row_misses = value_of("mem.chan.row_misses");
  s.chan_row_conflicts = value_of("mem.chan.row_conflicts");
  return s;
}

// The engine's typed signals are built straight from their sources, and
// obs_snapshot() names the same counters. Read back by key, the snapshot
// must agree with the signals at every point of a run, channel counters
// included.
TEST(AdvisorSignals, LiveSignalsEqualTheSnapshotConverter) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(8);
  cfg.mem_channel.kind = mem::ChannelConfig::Kind::kDdr;
  Runtime rt(cfg);
  const std::size_t n = 1 << 14;
  double* arr = rt.alloc_array<double>(n, 0);

  int checks = 0;
  const std::function<void()> check = [&rt, &checks] {
    EXPECT_EQ(rt.advisor_signals(), signals_by_key(rt.obs_snapshot()));
    ++checks;
  };
  check();  // Before any run.
  rt.run([](double* a, std::size_t total,
            const std::function<void()>* chk) -> TaskFn {
    auto& c = co_await self();
    TaskGroup g;
    const std::size_t slice = total / 16;
    for (std::size_t t = 0; t < 16; ++t) {
      // Every task's data lives on proc 0's memory, so the fills pile onto
      // one cluster's channels while the tasks spread by stealing.
      c.spawn(Affinity::object(a), g,
              [](double* part, std::size_t len,
                 const std::function<void()>* ck) -> TaskFn {
                auto& cc = co_await self();
                cc.update(part, len * sizeof(double));
                (*ck)();  // Mid-run: sim.time is still 0.
              }(a + t * slice, slice, chk));
    }
    co_await c.wait(g);
    (*chk)();
  }(arr, n, &check));
  check();  // After the run: span = sim.time.

  EXPECT_EQ(checks, 19);
  const obs::advisor::Signals s = rt.advisor_signals();
  EXPECT_GT(s.span, 0u);
  EXPECT_FALSE(s.chan_busy.empty());
  EXPECT_GT(s.chan_busy_total, 0u);
  EXPECT_GT(s.busy_cycles, 0u);
}

TEST(ProfileSnapshot, ToJsonIsWellFormed) {
  SystemConfig cfg;
  cfg.machine = topo::MachineConfig::dash(4);
  cfg.profile = true;
  Runtime rt(cfg);
  double* d = rt.alloc_array<double>(64, 0);
  ASSERT_TRUE(rt.profile_register("d", d, 64 * sizeof(double)));
  rt.run([](double* arr) -> TaskFn {
    auto& c = co_await self();
    c.update(arr, 64 * sizeof(double));
  }(d));

  const std::string json = rt.profile_snapshot().to_json();
  EXPECT_NE(json.find("\"objects\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"d\""), std::string::npos);
  EXPECT_NE(json.find("\"total\""), std::string::npos);

  const std::string report =
      obs::profile_report(rt.profile_snapshot());
  EXPECT_NE(report.find("locality profile: objects"), std::string::npos);
  EXPECT_NE(report.find("d"), std::string::npos);
}

}  // namespace
}  // namespace cool
