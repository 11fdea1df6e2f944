// Concurrency stress tests for the sharded scheduler: many real threads
// hammer place/acquire/steal on one Scheduler and we assert the structural
// invariants the paper's runtime depends on — no task lost, none duplicated,
// and task-affinity sets still serviced back-to-back on whichever server
// finally runs them. These tests are the ones required to stay clean under
// `-DCOOL_SANITIZE=thread` (see DESIGN.md, "Locking architecture").
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace cool::sched {
namespace {

topo::ProcId flat_home(std::uint64_t addr, std::uint32_t n_procs) {
  return static_cast<topo::ProcId>((addr >> 12) % n_procs);
}

/// One consumer's acquisition log entry.
struct LogEntry {
  std::uint64_t aff_key;
  std::uint64_t seq;
};

/// Drain the scheduler from `proc` until `acquired` reaches `total`,
/// recording every task into `log` and bumping its per-task counter.
void consume(Scheduler& s, topo::ProcId proc, std::atomic<std::size_t>& acquired,
             std::size_t total, std::vector<std::atomic<int>>& seen,
             std::vector<LogEntry>& log) {
  while (acquired.load() < total) {
    const auto acq = s.acquire(proc);
    if (acq.task == nullptr) {
      std::this_thread::yield();
      continue;
    }
    // Global task id: the tests stash it either in `owner` (id+1) when `seq`
    // is needed for within-set ordering, or directly in `seq`.
    const std::size_t id =
        acq.task->owner != nullptr
            ? reinterpret_cast<std::uintptr_t>(acq.task->owner) - 1
            : static_cast<std::size_t>(acq.task->seq);
    seen[id].fetch_add(1);
    log.push_back({acq.task->aff_key, acq.task->seq});
    acquired.fetch_add(1);
  }
}

// Producers and consumers run concurrently; tasks carry a mix of affinity
// hints. Every task must be acquired exactly once.
TEST(SchedStress, ConcurrentPlaceAcquireExactlyOnce) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 2000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  const topo::MachineConfig machine = topo::MachineConfig::dash(kProcs);
  Policy pol;
  pol.steal_object_tasks = true;  // every task reachable from every consumer
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, kProcs);
  });

  std::vector<TaskDesc> tasks(kTotal);
  std::vector<std::atomic<int>> seen(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    tasks[i].seq = i;
    // Mix of hints: affinity sets (8 shared objects), plain, OBJECT, PROCESSOR.
    const std::uint64_t obj = 0x100000ull + (i % 8) * 4096;
    switch (i % 6) {
      case 0:
      case 1:
        tasks[i].aff = Affinity::task(reinterpret_cast<void*>(obj));
        break;
      case 2:
        tasks[i].aff = Affinity::object(reinterpret_cast<void*>(obj));
        break;
      case 3:
        tasks[i].aff = Affinity::processor(static_cast<std::int64_t>(i));
        break;
      default:
        tasks[i].aff = Affinity::none();
        break;
    }
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(kProcs);
  std::vector<std::thread> threads;
  for (std::size_t pr = 0; pr < kProducers; ++pr) {
    threads.emplace_back([&, pr] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        s.place(&tasks[pr * kPerProducer + i],
                static_cast<topo::ProcId>(pr % kProcs));
      }
    });
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, kTotal, seen,
              logs[p]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  EXPECT_FALSE(s.any_work());
  const SchedStats ss = s.stats();
  EXPECT_EQ(ss.spawned, kTotal);
  // Every acquired task came from exactly one own-queue pop or one successful
  // steal return. (pops + tasks_stolen would double-count: a whole-set steal
  // adopts the set remainder into the thief's queue, where it is popped.)
  EXPECT_EQ(ss.pops + ss.steals, kTotal);
  // Each steal scan, successful or not, lands once in its thief's histogram.
  const SchedDetail d = s.detail();
  EXPECT_EQ(d.steal_scan_victims.count(), ss.steals + ss.failed_steal_scans);
  EXPECT_TRUE(d.reserve_hits_by_cluster.empty());
}

// Pre-placed task-affinity sets drained by concurrent, stealing consumers.
// Back-to-back invariant: in each consumer's acquisition log, tasks of one
// set form contiguous runs, and a set only splits into an extra run when the
// whole set was stolen mid-drain — so, summed over all sets, the number of
// maximal same-key runs is bounded by n_sets + whole-set steals. Within each
// run the set's spawn order must be preserved.
TEST(SchedStress, ConcurrentStealingKeepsSetsBackToBack) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::size_t kSets = 16;
  constexpr std::size_t kPerSet = 64;
  constexpr std::size_t kPlain = 256;
  constexpr std::size_t kTotal = kSets * kPerSet + kPlain;

  const topo::MachineConfig machine = topo::MachineConfig::dash(kProcs);
  Policy pol;
  pol.steal_object_tasks = true;
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, kProcs);
  });

  // Pick set objects whose affinity keys land in distinct queue slots, so a
  // whole-set steal moves exactly one set (a hash collision would merge two
  // sets into one slot and legitimately interleave them).
  const ServerQueues probe(pol.affinity_array_size);
  std::vector<std::uint64_t> set_objs;
  std::vector<bool> slot_used(pol.affinity_array_size, false);
  for (std::uint64_t cand = 0x200000;
       set_objs.size() < kSets; cand += 4096) {
    const std::size_t slot = probe.slot_of(cand / machine.line_bytes);
    if (slot_used[slot]) continue;
    slot_used[slot] = true;
    set_objs.push_back(cand);
  }

  std::vector<TaskDesc> tasks(kTotal);
  std::vector<std::atomic<int>> seen(kTotal);
  std::size_t idx = 0;
  for (std::size_t set = 0; set < kSets; ++set) {
    for (std::size_t i = 0; i < kPerSet; ++i, ++idx) {
      tasks[idx].owner = reinterpret_cast<void*>(idx + 1);  // global id
      tasks[idx].aff =
          Affinity::task(reinterpret_cast<void*>(set_objs[set]));
    }
  }
  for (std::size_t i = 0; i < kPlain; ++i, ++idx) {
    tasks[idx].owner = reinterpret_cast<void*>(idx + 1);
    tasks[idx].aff = Affinity::none();
  }
  // Interleave placement across sets so every server holds several sets.
  // Queues are FIFO per slot, so `seq` records placement order within each
  // set — that is the order back-to-back service must preserve.
  std::vector<std::uint64_t> next_seq(kSets, 1);
  for (std::size_t i = 0; i < kTotal; ++i) {
    const std::size_t shuffled = (i * 97) % kTotal;
    TaskDesc& t = tasks[shuffled];
    if (shuffled < kSets * kPerSet) t.seq = next_seq[shuffled / kPerSet]++;
    s.place(&t, static_cast<topo::ProcId>(i % kProcs));
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(kProcs);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, kTotal, seen,
              logs[p]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }

  // Count maximal runs of each nonzero affinity key and check spawn order
  // inside every run.
  std::size_t runs = 0;
  for (const auto& log : logs) {
    std::uint64_t cur_key = 0;
    std::uint64_t last_seq = 0;
    for (const LogEntry& e : log) {
      if (e.aff_key == 0) {
        cur_key = 0;
        continue;
      }
      if (e.aff_key != cur_key) {
        ++runs;
        cur_key = e.aff_key;
      } else {
        EXPECT_LT(last_seq, e.seq)
            << "set order broken inside a back-to-back run";
      }
      last_seq = e.seq;
    }
  }
  const SchedStats ss = s.stats();
  EXPECT_LE(runs, kSets + ss.set_steals)
      << "affinity sets interleaved beyond what whole-set steals explain";
}

// The full producer/consumer/steal mix again, but with per-mutation
// invariant checking switched on: every push, pop, steal, and adopt
// re-validates its queue while still holding the mutation's lock. This is
// the COOL_CHECK_LEVEL=paranoid contract — slower, but any structural
// corruption surfaces at the exact mutation that caused it.
TEST(SchedStress, ParanoidCheckingSurvivesConcurrentChurn) {
  util::ScopedCheckLevel lvl(util::CheckLevel::kParanoid);
  constexpr std::uint32_t kProcs = 4;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 500;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  const topo::MachineConfig machine = topo::MachineConfig::dash(kProcs);
  Policy pol;
  pol.steal_object_tasks = true;
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, kProcs);
  });

  std::vector<TaskDesc> tasks(kTotal);
  std::vector<std::atomic<int>> seen(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    tasks[i].seq = i;
    const std::uint64_t obj = 0x100000ull + (i % 8) * 4096;
    switch (i % 4) {
      case 0:
        tasks[i].aff = Affinity::task(reinterpret_cast<void*>(obj));
        break;
      case 1:
        tasks[i].aff = Affinity::object(reinterpret_cast<void*>(obj));
        break;
      default:
        tasks[i].aff = Affinity::none();
        break;
    }
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(kProcs);
  std::vector<std::thread> threads;
  for (std::size_t pr = 0; pr < kProducers; ++pr) {
    threads.emplace_back([&, pr] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        s.place(&tasks[pr * kPerProducer + i],
                static_cast<topo::ProcId>(pr % kProcs));
      }
    });
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, kTotal, seen,
              logs[p]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  s.check_queues();
  EXPECT_FALSE(s.any_work());
}

// The same producer/consumer mix under the Average balancer: move batches
// race with concurrent placers and thieves, and still every task is
// acquired exactly once. (This is the TSan contract for the move path.)
TEST(SchedStress, ConcurrentAverageBalancerExactlyOnce) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 2000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  const topo::MachineConfig machine = topo::MachineConfig::dash(kProcs);
  Policy pol;
  pol.balancer = BalancerKind::kAverage;
  pol.steal_object_tasks = true;
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, kProcs);
  });

  std::vector<TaskDesc> tasks(kTotal);
  std::vector<std::atomic<int>> seen(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    tasks[i].seq = i;
    const std::uint64_t obj = 0x100000ull + (i % 8) * 4096;
    switch (i % 4) {
      case 0:
        tasks[i].aff = Affinity::task(reinterpret_cast<void*>(obj));
        break;
      case 1:
        tasks[i].aff = Affinity::object(reinterpret_cast<void*>(obj));
        break;
      default:
        tasks[i].aff = Affinity::none();
        break;
    }
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(kProcs);
  std::vector<std::thread> threads;
  for (std::size_t pr = 0; pr < kProducers; ++pr) {
    threads.emplace_back([&, pr] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        // Both producers pile onto processor 0 so over-average queues exist
        // for the whole run and the move path stays hot.
        s.place(&tasks[pr * kPerProducer + i], 0);
      }
    });
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, kTotal, seen,
              logs[p]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  EXPECT_FALSE(s.any_work());
  const SchedStats ss = s.stats();
  EXPECT_EQ(ss.spawned, kTotal);
}

// The Reserve balancer under concurrency: placements consult the hotness
// table (guarded by its own mutex) while consumers steal, with reserved
// tasks protected from cross-cluster theft. Every task still runs once.
TEST(SchedStress, ConcurrentReserveBalancerExactlyOnce) {
  constexpr std::uint32_t kProcs = 8;  // two clusters on the DASH shape
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 2000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;

  const topo::MachineConfig machine = topo::MachineConfig::dash(kProcs);
  Policy pol;
  pol.balancer = BalancerKind::kReserve;
  pol.steal_object_tasks = true;
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, kProcs);
  });
  // Static heat: half the shared objects are hot in cluster 1, so reserved
  // and unreserved work mixes in every queue.
  s.set_hotness_source([] {
    std::vector<DataHotness> hot;
    for (int o = 0; o < 4; ++o) {
      hot.push_back({0x100000ull + static_cast<std::uint64_t>(o) * 4096, 4096,
                     1, static_cast<std::uint64_t>(100 - o)});
    }
    return hot;
  });

  std::vector<TaskDesc> tasks(kTotal);
  std::vector<std::atomic<int>> seen(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    tasks[i].seq = i;
    const std::uint64_t obj = 0x100000ull + (i % 8) * 4096;
    switch (i % 3) {
      case 0:
        tasks[i].aff = Affinity::task(reinterpret_cast<void*>(obj));
        break;
      case 1:
        tasks[i].aff = Affinity::object(reinterpret_cast<void*>(obj));
        break;
      default:
        tasks[i].aff = Affinity::none();
        break;
    }
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(kProcs);
  std::vector<std::thread> threads;
  for (std::size_t pr = 0; pr < kProducers; ++pr) {
    threads.emplace_back([&, pr] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        s.place(&tasks[pr * kPerProducer + i],
                static_cast<topo::ProcId>(pr % kProcs));
      }
    });
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, kTotal, seen,
              logs[p]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  EXPECT_FALSE(s.any_work());
  const SchedStats ss = s.stats();
  EXPECT_EQ(ss.spawned, kTotal);
  EXPECT_GT(ss.reserve_hits, 0u) << "the hotness table never fired";
  const SchedDetail d = s.detail();
  EXPECT_EQ(d.steal_scan_victims.count(), ss.steals + ss.failed_steal_scans);
  ASSERT_EQ(d.reserve_hits_by_cluster.size(), machine.n_clusters());
  std::uint64_t by_cluster = 0;
  for (const std::uint64_t hits : d.reserve_hits_by_cluster) {
    by_cluster += hits;
  }
  EXPECT_EQ(by_cluster, ss.reserve_hits);
}

// The shard counters and histograms under concurrent writers and a
// concurrent reader, across machine sizes: detail() and stats() read while
// consumers steal only ever grow, and once the run ends every steal scan
// has landed exactly once in its thief's histogram.
class SchedDetailConcurrency
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SchedDetailConcurrency, ConcurrentScansAreCountedExactly) {
  const std::uint32_t n_procs = GetParam();
  const std::size_t total = 1000 * static_cast<std::size_t>(n_procs);
  const topo::MachineConfig machine = topo::MachineConfig::dash(n_procs);
  Policy pol;
  pol.steal_object_tasks = true;
  Scheduler s(machine, pol, [&](std::uint64_t a, topo::ProcId) {
    return flat_home(a, n_procs);
  });

  std::vector<TaskDesc> tasks(total);
  std::vector<std::atomic<int>> seen(total);
  for (std::size_t i = 0; i < total; ++i) {
    tasks[i].seq = i;
    const std::uint64_t obj = 0x100000ull + (i % 8) * 4096;
    tasks[i].aff = i % 2 == 0 ? Affinity::task(reinterpret_cast<void*>(obj))
                              : Affinity::none();
  }

  std::atomic<std::size_t> acquired{0};
  std::vector<std::vector<LogEntry>> logs(n_procs);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < total; ++i) s.place(&tasks[i], 0);
  });
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    threads.emplace_back([&, p] {
      consume(s, static_cast<topo::ProcId>(p), acquired, total, seen,
              logs[p]);
    });
  }
  // A scan probes at most the n_procs - 1 other servers.
  const std::uint64_t max_probes = n_procs - 1;
  std::uint64_t last_scans = 0;
  std::uint64_t last_runs = 0;
  std::uint64_t last_max = 0;
  while (acquired.load() < total) {
    const SchedDetail d = s.detail();
    EXPECT_GE(d.steal_scan_victims.count(), last_scans);
    EXPECT_GE(d.affinity_run_length.count(), last_runs);
    EXPECT_GE(d.steal_scan_victims.max(), last_max);
    EXPECT_LE(d.steal_scan_victims.max(), max_probes);
    last_scans = d.steal_scan_victims.count();
    last_runs = d.affinity_run_length.count();
    last_max = d.steal_scan_victims.max();
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  const SchedStats ss = s.stats();
  const SchedDetail d = s.detail();
  EXPECT_EQ(ss.pops + ss.steals, total);
  EXPECT_EQ(d.steal_scan_victims.count(), ss.steals + ss.failed_steal_scans);
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t b : d.steal_scan_victims.buckets()) in_buckets += b;
  EXPECT_EQ(in_buckets, d.steal_scan_victims.count());
  EXPECT_GE(d.steal_scan_victims.max(), last_max);
  EXPECT_LE(d.steal_scan_victims.max(), max_probes);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SchedDetailConcurrency,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace cool::sched
