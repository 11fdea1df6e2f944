#include "core/sim_engine.hpp"

#include <algorithm>
#include <functional>

#include "adaptive/engine.hpp"
#include "analysis/invariants.hpp"
#include "analysis/sync_observer.hpp"
#include "common/check.hpp"
#include "core/costs.hpp"
#include "core/sync.hpp"

namespace cool {
namespace {

// The paper's Table 1 class of a task's hints, and its implicit affinity-set
// key: tasks naming the same affinity object form a set (for OBJECT-only
// hints the shared object still groups the tasks for diagnosis); 0 = none.
obs::HintClass hint_class_of(const sched::Affinity& aff) noexcept {
  return obs::classify_hint(aff.has_task(), aff.has_object(),
                            aff.has_processor(), aff.has_multi());
}

std::uint64_t affinity_set_key(const sched::Affinity& aff) noexcept {
  return aff.task_obj != 0 ? aff.task_obj : aff.object_obj;
}

}  // namespace

SimEngine::SimEngine(const topo::MachineConfig& machine,
                     const sched::Policy& policy, bool trace_enabled,
                     std::size_t trace_capacity,
                     const mem::ChannelConfig& mem_channel)
    : machine_(machine),
      mem_(machine_, mem_channel),
      sched_(machine_, policy,
             [this](std::uint64_t addr, topo::ProcId toucher) {
               return mem_.home_of(tr(addr), toucher);
             }),
      procs_(machine_.n_procs),
      util_(machine_.n_procs) {
  runq_.reserve(machine_.n_procs);
  if (trace_enabled) {
    trace_ = std::make_unique<obs::TraceCollector>(machine_.n_procs,
                                                   trace_capacity);
  }
}

void SimEngine::attach_profiler(obs::LocalityProfiler* prof) {
  if (prof_ != nullptr) mem_.remove_observer(prof_);
  prof_ = prof;
  if (prof != nullptr) mem_.add_observer(prof);
}

void SimEngine::attach_race(analysis::SyncObserver* so,
                            mem::AccessObserver* tap) {
  sync_obs_ = so;
  if (tap != nullptr) mem_.add_observer(tap);
}

// The scheduler's sentinel and the recorder's must agree: TaskDesc::req
// flows into RequestTraceRecorder::on_dispatch unmodified.
static_assert(sched::kNoRequest == obs::RequestTraceRecorder::kNoRequest);

void SimEngine::attach_request_trace(obs::RequestTraceRecorder* rt) {
  if (reqtrace_ != nullptr) mem_.remove_observer(reqtrace_);
  reqtrace_ = rt;
  if (rt != nullptr) mem_.add_observer(rt);
}

SimEngine::~SimEngine() {
  while (TaskRecord* rec = live_recs_.pop_front()) destroy_record(rec);
}

void SimEngine::destroy_record(TaskRecord* rec) {
  if (rec->handle) rec->handle.destroy();
  rec->handle = {};
  delete rec;
}

void SimEngine::reinsert(topo::ProcId p) {
  runq_.emplace_back(procs_[p].clock, p);
  std::push_heap(runq_.begin(), runq_.end(), std::greater<>{});
}

void SimEngine::park(topo::ProcId p) {
  procs_[p].parked = true;
  ++n_parked_;
  ++parks_;
}

void SimEngine::wake_parked() {
  if (n_parked_ == 0) return;
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    if (procs_[p].parked) {
      procs_[p].parked = false;
      reinsert(p);
    }
  }
  n_parked_ = 0;
}

// --- Engine interface -------------------------------------------------------

void SimEngine::mem_access(Ctx& c, std::uint64_t addr, std::uint64_t bytes,
                           bool is_write) {
  Proc& pr = procs_[c.proc_];
  pr.clock += mem_.access(c.proc_, tr(addr), bytes, is_write, pr.clock);
}

void SimEngine::work(Ctx& c, std::uint64_t cycles) {
  procs_[c.proc_].clock += cycles;
}

void SimEngine::charge(Ctx& c, std::uint64_t cycles) {
  procs_[c.proc_].clock += cycles;
  util_[c.proc_].sched += cycles;
}

std::uint64_t SimEngine::now(const Ctx& c) const { return procs_[c.proc_].clock; }

std::uint64_t SimEngine::migrate(Ctx& c, std::uint64_t addr,
                                 std::uint64_t bytes, topo::ProcId target) {
  const std::uint64_t cost = mem_.migrate(c.proc_, tr(addr), bytes, target);
  const std::uint64_t t0 = procs_[c.proc_].clock;
  procs_[c.proc_].clock += cost;
  if (trace_) {
    trace_->buf(c.proc_).record(obs::Event{
        t0, t0 + cost, target, bytes, c.proc_, obs::EventKind::kMigration, 0});
  }
  if (reqtrace_ != nullptr && c.rec_ != nullptr &&
      c.rec_->desc.req != sched::kNoRequest) {
    // A page migration issued by a running request: annotate its span chain.
    reqtrace_->on_migration(c.proc_, t0, t0 + cost, bytes);
  }
  return cost;
}

topo::ProcId SimEngine::home(std::uint64_t addr, topo::ProcId toucher) {
  return mem_.home_of(tr(addr), toucher);
}

std::uint64_t SimEngine::adaptive_migrate(topo::ProcId caller,
                                          std::uint64_t sim_addr,
                                          std::uint64_t bytes,
                                          topo::ProcId target,
                                          std::uint64_t now) {
  // `sim_addr` is already arena-relative: the adaptive engine works on
  // profiler addresses, which the profiler receives translated.
  const std::uint64_t cost = mem_.migrate(caller, sim_addr, bytes, target);
  if (trace_) {
    trace_->buf(caller).record(obs::Event{now, now + cost, target, bytes,
                                          caller, obs::EventKind::kMigration,
                                          0});
  }
  return cost;
}

void SimEngine::spawn_record(TaskRecord* rec, Ctx* spawner) {
  rec->desc.seq = ++seq_;
  if (sync_obs_ != nullptr) {
    sync_obs_->on_spawn(
        spawner != nullptr ? spawner->record()->desc.seq : 0, rec->desc.seq);
  }
  topo::ProcId from = 0;
  if (spawner != nullptr) {
    charge(*spawner, costs::kSpawn);
    from = spawner->proc_;
    rec->desc.ready_time = procs_[from].clock;
  } else {
    rec->desc.ready_time = 0;
  }
  live_recs_.push_back(rec);
  ++live_;
  const topo::ProcId server = sched_.place(&rec->desc, from);
  // Reservation decisions land in the trace. Reading the descriptor after
  // place() is safe here only because the simulation engine is
  // single-threaded; the threaded engine must not imitate this.
  if (trace_ && rec->desc.reserved) {
    const std::uint64_t now = procs_[from].clock;
    trace_->buf(from).record(obs::Event{now, now, server, 1, from,
                                        obs::EventKind::kBalance,
                                        obs::kBalanceReserve});
  }
  wake_parked();
}

void SimEngine::unblock(TaskRecord* rec, Ctx* unblocker) {
  rec->state = TaskState::kReady;
  if (unblocker != nullptr) {
    rec->desc.ready_time =
        std::max(rec->desc.ready_time, procs_[unblocker->proc_].clock);
  }
  sched_.enqueue_resumed(&rec->desc);
  wake_parked();
}

void SimEngine::on_complete(Ctx& c) { disp_ = Disposition::kCompleted; (void)c; }

void SimEngine::on_block(Ctx& c) {
  disp_ = Disposition::kBlocked;
  // Stamp the block time; unblock() takes the max with the waker's clock.
  c.rec_->desc.ready_time = procs_[c.proc_].clock;
}

void SimEngine::on_yield(Ctx& c) {
  disp_ = Disposition::kYielded;
  c.rec_->desc.ready_time = procs_[c.proc_].clock;
}

void SimEngine::bind_range(std::uint64_t addr, std::uint64_t bytes,
                           topo::ProcId home_proc) {
  mem_.bind_range(tr(addr), bytes, home_proc);
}

// --- Simulation loop --------------------------------------------------------

void SimEngine::step(topo::ProcId p) {
  Proc& pr = procs_[p];
  if (pr.current == nullptr) {
    const auto acq = sched_.acquire(p);
    if (acq.task == nullptr) {
      park(p);
      return;
    }
    std::uint64_t overhead = costs::kDispatch;
    if (acq.stolen) {
      overhead =
          acq.stolen_remote_cluster ? costs::kStealRemote : costs::kStealLocal;
      ++util_[p].steals;
      if (trace_) {
        trace_->buf(p).record(obs::Event{pr.clock, pr.clock, acq.victim, 1, p,
                                         obs::EventKind::kSteal, 0});
      }
    } else if (acq.moved) {
      // A balancer move crosses the same interconnect a steal does.
      overhead = machine_.same_cluster(p, acq.victim) ? costs::kStealLocal
                                                      : costs::kStealRemote;
      if (trace_) {
        trace_->buf(p).record(obs::Event{pr.clock, pr.clock, acq.victim, 1, p,
                                         obs::EventKind::kBalance,
                                         obs::kBalanceMove});
      }
    }
    pr.clock += overhead;
    util_[p].sched += overhead;
    TaskRecord* rec = TaskRecord::of(acq.task);
    if (sched_.policy().prefetch_objects && rec->desc.aff.has_multi()) {
      // Paper §8: prefetch the task's affinity objects at dispatch; the
      // fetches overlap execution, so only a per-line issue cost is charged.
      for (int i = 0; i < rec->desc.aff.n_objs; ++i) {
        const auto& obj = rec->desc.aff.objs[i];
        const std::uint64_t lines =
            mem_.prefetch(p, tr(obj.addr), obj.bytes, pr.clock);
        // 4 cycles per issued prefetch; the fills themselves overlap with
        // execution (an idealised but bandwidth-consuming prefetch model).
        pr.clock += lines * 4;
        util_[p].sched += lines * 4;
      }
    }
    if (rec->desc.ready_time > pr.clock) {
      util_[p].idle += rec->desc.ready_time - pr.clock;
      if (trace_) {
        trace_->buf(p).record(obs::Event{pr.clock, rec->desc.ready_time, 0, 0,
                                         p, obs::EventKind::kIdleGap, 0});
      }
      pr.clock = rec->desc.ready_time;
    }
    if (prof_ != nullptr) {
      const std::uint64_t key = affinity_set_key(rec->desc.aff);
      prof_->on_task_dispatch(
          p, hint_class_of(rec->desc.aff),
          key != 0 ? tr(key) : obs::LocalityProfiler::kNoSet, acq.stolen);
    }
    if (sync_obs_ != nullptr) {
      const std::uint64_t key = affinity_set_key(rec->desc.aff);
      sync_obs_->on_task_run(
          p, rec->desc.seq, hint_class_of(rec->desc.aff),
          key != 0 ? tr(key) : analysis::SyncObserver::kNoSet);
    }
    if (adapt_ != nullptr) {
      // The adaptive engine may close an epoch here: it reads the profiler
      // and metric deltas, runs the advisor rules, and fires actuators. The
      // cycles it reports (epoch evaluation + migrations) are real scheduler
      // overhead, charged to this processor.
      const std::size_t logged = adapt_->log().size();
      const std::uint64_t t0a = pr.clock;
      const std::uint64_t cost = adapt_->on_task_dispatch(p, pr.clock);
      if (cost > 0) {
        pr.clock += cost;
        util_[p].sched += cost;
      }
      if (trace_) {
        const std::vector<adaptive::Decision>& lg = adapt_->log();
        for (std::size_t i = logged; i < lg.size(); ++i) {
          trace_->buf(p).record(obs::Event{
              t0a, pr.clock, i,
              static_cast<std::uint64_t>(lg[i].rule), p,
              obs::EventKind::kAdaptation, 0});
        }
      }
    }
    if (reqtrace_ != nullptr && rec->desc.req != sched::kNoRequest) {
      // Stamp the dispatch after every overhead above has been charged:
      // pr.clock here IS the span start the resume below uses, and
      // ready_time is unchanged since acquire. Passive — no cycles charged.
      reqtrace_->on_dispatch(p, rec->desc.req, rec->desc.ready_time, pr.clock,
                             overhead, acq.stolen, acq.moved, acq.victim);
    }
    pr.current = rec;
  }

  TaskRecord* rec = pr.current;
  rec->ctx.eng_ = this;
  rec->ctx.proc_ = p;
  rec->ctx.rec_ = rec;
  rec->handle.promise().ctx = &rec->ctx;
  rec->state = TaskState::kRunning;
  disp_ = Disposition::kNone;

  const std::uint64_t t0 = pr.clock;
  const std::uint64_t task_seq = rec->desc.seq;
  const bool was_stolen = rec->desc.stolen;
  const std::uint32_t task_req = rec->desc.req;
  rec->handle.resume();
  util_[p].busy += pr.clock - t0;
  if (reqtrace_ != nullptr && task_req != sched::kNoRequest) {
    reqtrace_->on_span_end(p, pr.clock);
  }
  if (trace_) {
    const std::uint8_t end = disp_ == Disposition::kCompleted
                                 ? obs::kSpanCompleted
                             : disp_ == Disposition::kBlocked
                                 ? obs::kSpanBlocked
                                 : obs::kSpanYielded;
    trace_->buf(p).record(obs::Event{t0, pr.clock, task_seq, 0, p,
                                     obs::EventKind::kTaskSpan,
                                     obs::span_flags(was_stolen, end)});
  }

  switch (disp_) {
    case Disposition::kCompleted: {
      pr.clock += costs::kComplete;
      util_[p].sched += costs::kComplete;
      if (rec->handle.promise().exn && !err_) {
        err_ = rec->handle.promise().exn;
      }
      TaskGroup* grp = rec->group;
      if (grp != nullptr) grp->task_done(rec->ctx);
      live_recs_.erase(rec);
      destroy_record(rec);
      --live_;
      ++tasks_completed_;
      ++util_[p].tasks;
      pr.current = nullptr;
      break;
    }
    case Disposition::kBlocked:
      // The record now belongs to the structure it blocked on (it may even
      // have been unblocked already and be queued elsewhere): hands off.
      pr.current = nullptr;
      break;
    case Disposition::kYielded:
      rec->state = TaskState::kReady;
      sched_.enqueue_yielded(&rec->desc);
      wake_parked();
      pr.current = nullptr;
      break;
    case Disposition::kNone:
      COOL_CHECK(false, "task suspended without reporting a disposition");
  }
  reinsert(p);
}

void SimEngine::run(TaskFn&& root) {
  COOL_CHECK(!running_, "SimEngine::run is not reentrant");
  COOL_CHECK(root.valid(), "run of empty TaskFn");
  running_ = true;
  // Start from an empty frontier even if the previous run threw mid-step.
  runq_.clear();
  for (Proc& pr : procs_) {
    pr.current = nullptr;
    pr.parked = false;
  }
  n_parked_ = 0;

  auto* rec = new TaskRecord;
  rec->handle = root.release();
  rec->desc.aff = Affinity::none();
  spawn_record(rec, nullptr);

  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) reinsert(p);

  while (live_ > 0 && !err_) {
    if (runq_.empty()) {
      running_ = false;
      throw util::Error(
          "deadlock: tasks remain blocked but no processor can make progress");
    }
    std::pop_heap(runq_.begin(), runq_.end(), std::greater<>{});
    const topo::ProcId p = runq_.back().second;
    runq_.pop_back();
    step(p);
  }

  // Quiesce point: every worker has stopped, so cross-queue invariants
  // (task uniqueness, ledger balance) are checkable. Default-level and up.
  if (util::check_level() != util::CheckLevel::kOff) {
    analysis::check_scheduler_quiescent(sched_);
  }

  finish_time_ = 0;
  for (const Proc& pr : procs_) finish_time_ = std::max(finish_time_, pr.clock);
  running_ = false;
  if (err_) {
    auto e = err_;
    err_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace cool
