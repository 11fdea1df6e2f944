#include "core/thread_engine.hpp"

#include <chrono>

#include "analysis/invariants.hpp"
#include "common/check.hpp"
#include "core/sync.hpp"

namespace cool {

ThreadEngine::ThreadEngine(const topo::MachineConfig& machine,
                           const sched::Policy& policy, bool trace_enabled,
                           std::size_t trace_capacity)
    : machine_(machine),
      pages_(machine_),
      sched_(machine_, policy,
             [this](std::uint64_t addr, topo::ProcId toucher) {
               // Placement runs outside any scheduler lock, so the resolver
               // guards the page map itself (home_of first-touch mutates it).
               util::MutexLock g(big_);
               return pages_.home_of(addr - addr_base_, toucher);
             }),
      idle_(machine_.n_procs),
      disp_(machine_.n_procs, Disposition::kNone),
      // cool-lint: allow(determinism): kThreads trace timebase is wall-clock
      trace_t0_(std::chrono::steady_clock::now()) {
  machine_.validate();
  if (trace_enabled) {
    trace_ = std::make_unique<obs::TraceCollector>(machine_.n_procs,
                                                   trace_capacity);
  }
}

ThreadEngine::~ThreadEngine() {
  // Workers joined in run(); the lock satisfies big_'s discipline (and costs
  // nothing) rather than special-casing the destructor.
  util::MutexLock g(big_);
  while (TaskRecord* rec = live_recs_.pop_front()) {
    if (rec->handle) rec->handle.destroy();
    delete rec;
  }
}

std::uint64_t ThreadEngine::migrate(Ctx&, std::uint64_t addr,
                                    std::uint64_t bytes, topo::ProcId target) {
  util::MutexLock g(big_);
  pages_.bind_range(addr - addr_base_, bytes, target);
  return 0;
}

topo::ProcId ThreadEngine::home(std::uint64_t addr, topo::ProcId toucher) {
  util::MutexLock g(big_);
  return pages_.home_of(addr - addr_base_, toucher);
}

void ThreadEngine::bind_range(std::uint64_t addr, std::uint64_t bytes,
                              topo::ProcId home_proc) {
  util::MutexLock g(big_);
  pages_.bind_range(addr - addr_base_, bytes, home_proc);
}

void ThreadEngine::spawn_record(TaskRecord* rec, Ctx* spawner) {
  const topo::ProcId from = spawner != nullptr ? spawner->proc_ : 0;
  rec->desc.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  live_.fetch_add(1);
  {
    util::MutexLock g(big_);
    live_recs_.push_back(rec);
  }
  // The task may start (and even finish) on another thread before place
  // returns, so `rec` is off-limits from here on; wake a worker for the
  // server place() chose.
  idle_.signal(sched_.place(&rec->desc, from));
}

void ThreadEngine::unblock(TaskRecord* rec, Ctx*) {
  rec->state = TaskState::kReady;
  idle_.signal(sched_.enqueue_resumed(&rec->desc));
}

void ThreadEngine::on_complete(Ctx& c) { disp_[c.proc_] = Disposition::kCompleted; }
void ThreadEngine::on_block(Ctx& c) { disp_[c.proc_] = Disposition::kBlocked; }
void ThreadEngine::on_yield(Ctx& c) { disp_[c.proc_] = Disposition::kYielded; }

void ThreadEngine::execute(topo::ProcId id, TaskRecord* rec) {
  rec->ctx.eng_ = this;
  rec->ctx.proc_ = id;
  rec->ctx.rec_ = rec;
  rec->handle.promise().ctx = &rec->ctx;
  rec->state = TaskState::kRunning;
  disp_[id] = Disposition::kNone;

  // Snapshot before resume(): on completion/block the record is freed or
  // handed to another owner, so it is off-limits afterwards.
  const std::uint64_t task_seq = rec->desc.seq;
  const bool was_stolen = rec->desc.stolen;
  const std::uint64_t t0 = trace_ ? now_us() : 0;

  rec->handle.resume();

  if (trace_) {
    const std::uint8_t end = disp_[id] == Disposition::kCompleted
                                 ? obs::kSpanCompleted
                             : disp_[id] == Disposition::kBlocked
                                 ? obs::kSpanBlocked
                                 : obs::kSpanYielded;
    trace_->buf(id).record(obs::Event{t0, now_us(), task_seq, 0, id,
                                      obs::EventKind::kTaskSpan,
                                      obs::span_flags(was_stolen, end)});
  }

  switch (disp_[id]) {
    case Disposition::kCompleted: {
      if (rec->handle.promise().exn) {
        util::MutexLock g(err_m_);
        if (!err_) err_ = rec->handle.promise().exn;
      }
      TaskGroup* grp = rec->group;
      if (grp != nullptr) grp->task_done(rec->ctx);
      {
        util::MutexLock g(big_);
        live_recs_.erase(rec);
      }
      rec->handle.destroy();
      delete rec;
      tasks_completed_.fetch_add(1);
      if (live_.fetch_sub(1) == 1) {
        // Last task done: release run() and every sleeping worker. Taking
        // done_m_ (empty section) pins the waiter at a point where its
        // predicate re-read of live_ sees zero.
        { util::MutexLock g(done_m_); }
        done_cv_.notify_all();
        idle_.notify_all();
      }
      break;
    }
    case Disposition::kBlocked:
      // Hands off — the record may already be running on another worker.
      break;
    case Disposition::kYielded:
      rec->state = TaskState::kReady;
      idle_.signal(sched_.enqueue_yielded(&rec->desc));
      break;
    case Disposition::kNone:
      COOL_CHECK(false, "task suspended without reporting a disposition");
  }
}

void ThreadEngine::worker_loop(topo::ProcId id) {
  for (;;) {
    if (stop_.load() || live_.load() == 0) return;
    // Snapshot BEFORE the acquire attempt: any enqueue after this point
    // changes the version and makes the wait return immediately.
    const std::uint64_t seen = idle_.version();
    const auto acq = sched_.acquire(id);
    if (acq.task != nullptr) {
      if ((acq.stolen || acq.moved) && sched_.has_local_work(id)) {
        // A whole-set steal or a balancer move adopted more than this worker
        // runs now. The batch was invisible in flight, so a scanner may have
        // gone to sleep on it: wake a sleeper to steal the rest.
        idle_.signal(id);
      }
      if (trace_ && acq.stolen) {
        const std::uint64_t t = now_us();
        trace_->buf(id).record(
            obs::Event{t, t, acq.victim, 1, id, obs::EventKind::kSteal, 0});
      }
      execute(id, TaskRecord::of(acq.task));
      continue;
    }
    if (acq.contended) {
      // A victim's queue lock was busy mid-scan; it may hold stealable work
      // this scan could not see. Spin once rather than sleeping on it.
      std::this_thread::yield();
      continue;
    }
    // Nothing this worker may run right now (queued tasks can be pinned to
    // other servers): sleep until new work appears anywhere.
    idle_.wait(id, seen, [this] { return stop_.load() || live_.load() == 0; });
  }
}

void ThreadEngine::run(TaskFn&& root, std::uint64_t timeout_ms) {
  COOL_CHECK(root.valid(), "run of empty TaskFn");
  stop_.store(false);

  auto* rec = new TaskRecord;
  rec->handle = root.release();
  rec->desc.aff = Affinity::none();
  spawn_record(rec, nullptr);

  std::vector<std::thread> workers;
  workers.reserve(machine_.n_procs);
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    workers.emplace_back([this, p] { worker_loop(static_cast<topo::ProcId>(p)); });
  }

  bool finished = false;
  {
    util::MutexLock l(done_m_);
    finished = done_cv_.wait_for(l, std::chrono::milliseconds(timeout_ms),
                                 [&] { return live_.load() == 0; });
  }
  stop_.store(true);
  idle_.notify_all();
  for (auto& w : workers) w.join();

  // All workers joined: the scheduler is quiescent, so cross-queue
  // invariants are checkable even after a concurrent run.
  if (util::check_level() != util::CheckLevel::kOff) {
    analysis::check_scheduler_quiescent(sched_);
    idle_.check_monotonic();
  }

  std::exception_ptr e;
  {
    util::MutexLock g(err_m_);
    e = err_;
    err_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
  COOL_CHECK(finished,
             "thread-engine run timed out (likely deadlock or livelock)");
}

}  // namespace cool
