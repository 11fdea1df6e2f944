#include "obs/request_trace.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace cool::obs {

RequestTraceRecorder::RequestTraceRecorder(std::uint32_t n_procs,
                                           std::size_t ring_capacity,
                                           std::size_t n_exemplars)
    : n_exemplars_(n_exemplars) {
  COOL_CHECK(n_procs > 0, "request trace: no processors");
  rings_.reserve(n_procs);
  for (std::uint32_t p = 0; p < n_procs; ++p) rings_.emplace_back(ring_capacity);
  pending_.resize(n_procs);
}

void RequestTraceRecorder::begin_run(const std::vector<std::uint64_t>& arrivals,
                                     std::uint64_t measure_from) {
  stats_.assign(arrivals.size(), ReqStat{});
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    stats_[i].arrival = arrivals[i];
  }
  measure_from_ = measure_from;
  completed_ = 0;
  measured_ = 0;
  all_ = StallSums{};
  measured_sample_ = BreakdownSample{};
  for (Ring<ReqSpan>& r : rings_) r.clear();
  for (Pending& p : pending_) p = Pending{};
}

void RequestTraceRecorder::on_admit(std::uint32_t req, std::uint64_t admission) {
  COOL_CHECK(req < stats_.size(), "request trace: admit id out of range");
  ReqStat& s = stats_[req];
  s.admission = admission;
  s.admitted = true;
}

void RequestTraceRecorder::on_complete(std::uint32_t req,
                                       std::uint64_t completion) {
  COOL_CHECK(req < stats_.size(), "request trace: completion id out of range");
  ReqStat& s = stats_[req];
  s.completion = completion;
  s.completed = true;
  // The breakdown is finalized when the span containing the completion stamp
  // closes (on_span_end) — service is not final until then.
}

void RequestTraceRecorder::on_dispatch(topo::ProcId p, std::uint32_t req,
                                       std::uint64_t ready,
                                       std::uint64_t t_start,
                                       std::uint64_t overhead, bool stolen,
                                       bool moved, topo::ProcId victim) {
  if (req >= stats_.size()) return;  // untagged or foreign task
  ReqStat& s = stats_[req];
  ++s.dispatches;
  if ((stolen || moved) && !s.finalized) {
    // The theft's overhead was charged before the idle-forward to
    // ready_time, so any part of it that fits inside the not-yet-ready wait
    // cost the request nothing. Only the part that delayed the span start
    // past ready_time is a penalty.
    const std::uint64_t gap = t_start >= ready ? t_start - ready : 0;
    s.steal_penalty += overhead < gap ? overhead : gap;
    if (stolen) {
      ++s.steal_hops;
    } else {
      ++s.moves;
    }
  }
  Pending& pe = pending_[p];
  pe.req = req;
  pe.start = t_start;
  pe.victim = victim;
  pe.flags = static_cast<std::uint8_t>((stolen ? kReqSpanStolen : 0) |
                                       (moved ? kReqSpanMoved : 0));
}

void RequestTraceRecorder::on_span_end(topo::ProcId p, std::uint64_t t_end) {
  Pending& pe = pending_[p];
  if (pe.req == kNoRequest) return;
  const std::uint32_t req = pe.req;
  ReqStat& s = stats_[req];
  rings_[p].record(ReqSpan{pe.start, t_end, req,
                           (pe.flags != 0) ? pe.victim : 0, p,
                           ReqSpanKind::kExec, pe.flags});
  if (!s.finalized) {
    const std::uint64_t span = t_end >= pe.start ? t_end - pe.start : 0;
    if (s.completed) {
      // Completion landed inside this span: anything the task does after
      // complete() (normally nothing) is not the request's service.
      const std::uint64_t upto =
          s.completion >= pe.start ? s.completion - pe.start : 0;
      s.service += span < upto ? span : upto;
      finalize(req);
    } else {
      s.service += span;
    }
  }
  pe.req = kNoRequest;
}

void RequestTraceRecorder::on_migration(topo::ProcId p, std::uint64_t start,
                                        std::uint64_t end,
                                        std::uint64_t bytes) {
  const Pending& pe = pending_[p];
  if (pe.req == kNoRequest) return;
  rings_[p].record(ReqSpan{start, end, pe.req,
                           static_cast<std::uint32_t>(bytes), p,
                           ReqSpanKind::kMigrate, 0});
}

void RequestTraceRecorder::on_access(const mem::AccessInfo& info) {
  if (info.proc >= pending_.size()) return;
  const Pending& pe = pending_[info.proc];
  if (pe.req == kNoRequest) return;
  ReqStat& s = stats_[pe.req];
  if (s.completed || s.finalized) return;  // post-complete accesses: not ours
  s.memory_stall += info.stall;
}

void RequestTraceRecorder::finalize(std::uint32_t req) {
  ReqStat& s = stats_[req];
  const std::uint64_t total =
      s.completion >= s.arrival ? s.completion - s.arrival : 0;
  const std::uint64_t accounted = s.service + s.steal_penalty;
  // service sums spans that all start at or after ready/admission, and
  // steal_penalty is bounded by the inter-span gaps, so accounted <= total
  // by construction; clamp defensively against model changes.
  s.queue_wait = total >= accounted ? total - accounted : 0;
  if (s.memory_stall > s.service) s.memory_stall = s.service;
  s.finalized = true;
  ++completed_;
  all_.queue_wait += s.queue_wait;
  all_.memory_stall += s.memory_stall;
  if (s.arrival >= measure_from_) {
    ++measured_;
    measured_sample_.queue_wait.record(s.queue_wait);
    measured_sample_.service.record(s.service);
    measured_sample_.memory_stall.record(s.memory_stall);
    measured_sample_.steal_penalty.record(s.steal_penalty);
  }
}

std::uint64_t RequestTraceRecorder::dropped(topo::ProcId p) const {
  return rings_.at(p).dropped();
}

std::uint64_t RequestTraceRecorder::total_dropped() const {
  std::uint64_t d = 0;
  for (const Ring<ReqSpan>& r : rings_) d += r.dropped();
  return d;
}

std::uint64_t RequestTraceRecorder::total_spans() const {
  std::uint64_t n = 0;
  for (const Ring<ReqSpan>& r : rings_) n += r.size();
  return n;
}

const ReqStat& RequestTraceRecorder::stat(std::uint32_t req) const {
  COOL_CHECK(req < stats_.size(), "request trace: stat id out of range");
  return stats_[req];
}

BreakdownSummary RequestTraceRecorder::summary() const {
  BreakdownSummary out;
  out.present = true;
  const BreakdownSample& m = measured_sample_;
  out.count = m.queue_wait.count();
  out.mean_queue_wait = m.queue_wait.mean();
  out.mean_service = m.service.mean();
  out.mean_memory_stall = m.memory_stall.mean();
  out.mean_steal_penalty = m.steal_penalty.mean();
  out.p99_queue_wait = m.queue_wait.quantile(0.99);
  out.p99_service = m.service.quantile(0.99);
  out.p99_memory_stall = m.memory_stall.quantile(0.99);
  out.p99_steal_penalty = m.steal_penalty.quantile(0.99);
  out.dropped = total_dropped();
  std::uint64_t k = measured_;
  if (k > n_exemplars_) k = n_exemplars_;
  out.exemplars = k;
  return out;
}

std::vector<ReqExemplar> RequestTraceRecorder::exemplars() const {
  // Select the K slowest finalized, measured requests: slowest first, ties
  // broken by lower id, so the selection (and the exported JSON) is
  // deterministic.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].finalized && stats_[i].arrival >= measure_from_) {
      ids.push_back(i);
    }
  }
  const auto slower = [this](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t la = stats_[a].completion - stats_[a].arrival;
    const std::uint64_t lb = stats_[b].completion - stats_[b].arrival;
    if (la != lb) return la > lb;
    return a < b;
  };
  if (ids.size() > n_exemplars_) {
    std::nth_element(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(n_exemplars_),
                     ids.end(), slower);
    ids.resize(n_exemplars_);
  }
  std::sort(ids.begin(), ids.end(), slower);

  std::vector<ReqExemplar> out;
  out.reserve(ids.size());
  for (std::uint32_t id : ids) {
    ReqExemplar e;
    e.req = id;
    e.stat = stats_[id];
    out.push_back(std::move(e));
  }
  // One pass over all rings gathers every exemplar's spans (rings are small;
  // exemplar extraction runs post-run, off the simulation path).
  std::vector<std::size_t> index(stats_.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) index[out[i].req] = i;
  for (const Ring<ReqSpan>& r : rings_) {
    r.for_each([&](const ReqSpan& s) {
      if (s.req < index.size() && index[s.req] < out.size()) {
        out[index[s.req]].spans.push_back(s);
      }
    });
  }
  for (ReqExemplar& e : out) {
    std::sort(e.spans.begin(), e.spans.end(),
              [](const ReqSpan& a, const ReqSpan& b) {
                if (a.start != b.start) return a.start < b.start;
                if (a.proc != b.proc) return a.proc < b.proc;
                return a.end < b.end;
              });
  }
  return out;
}

std::string RequestTraceRecorder::exemplar_chrome_json() const {
  const std::vector<ReqExemplar> ex = exemplars();
  json::Writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  char name[64];
  const std::uint32_t front_tid = n_procs();  // synthetic admission row
  for (const ReqExemplar& e : ex) {
    const ReqStat& s = e.stat;
    // Admission-wait span on the front row, carrying the full breakdown so
    // the components are inspectable (and CI-checkable) per exemplar.
    std::snprintf(name, sizeof name, "req %u wait-admit", e.req);
    w.begin_object();
    w.key("name").string(name);
    w.key("cat").string("req");
    w.key("ph").string("X");
    w.key("ts").uint_value(s.arrival);
    w.key("dur").uint_value(s.admission >= s.arrival ? s.admission - s.arrival
                                                     : 0);
    w.key("pid").uint_value(0);
    w.key("tid").uint_value(front_tid);
    w.key("args").begin_object();
    w.key("req").uint_value(e.req);
    w.key("total").uint_value(s.completion - s.arrival);
    w.key("queue_wait").uint_value(s.queue_wait);
    w.key("service").uint_value(s.service);
    w.key("memory_stall").uint_value(s.memory_stall);
    w.key("compute").uint_value(s.service - s.memory_stall);
    w.key("steal_penalty").uint_value(s.steal_penalty);
    w.key("dispatches").uint_value(s.dispatches);
    w.key("steal_hops").uint_value(s.steal_hops);
    w.key("moves").uint_value(s.moves);
    w.end_object();
    w.end_object();
    // Span chain, with flow arrows between consecutive exec spans that
    // changed processor (the steal-hop / balancer-move arrows in Perfetto).
    const ReqSpan* prev_exec = nullptr;
    std::uint32_t hop = 0;
    for (const ReqSpan& sp : e.spans) {
      if (sp.kind == ReqSpanKind::kMigrate) {
        std::snprintf(name, sizeof name, "migrate (req %u)", e.req);
        w.begin_object();
        w.key("name").string(name);
        w.key("cat").string("req");
        w.key("ph").string("X");
        w.key("ts").uint_value(sp.start);
        w.key("dur").uint_value(sp.end - sp.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(sp.proc);
        w.key("args").begin_object();
        w.key("req").uint_value(e.req);
        w.key("bytes").uint_value(sp.aux);
        w.end_object();
        w.end_object();
        continue;
      }
      std::snprintf(name, sizeof name, "req %u", e.req);
      w.begin_object();
      w.key("name").string(name);
      w.key("cat").string("req");
      w.key("ph").string("X");
      w.key("ts").uint_value(sp.start);
      w.key("dur").uint_value(sp.end - sp.start);
      w.key("pid").uint_value(0);
      w.key("tid").uint_value(sp.proc);
      w.key("args").begin_object();
      w.key("req").uint_value(e.req);
      w.key("stolen").bool_value((sp.flags & kReqSpanStolen) != 0);
      w.key("moved").bool_value((sp.flags & kReqSpanMoved) != 0);
      if (sp.flags != 0) w.key("victim").uint_value(sp.aux);
      w.end_object();
      w.end_object();
      // A hop is any span that ran somewhere other than the previous span's
      // processor — or a *first* span acquired by theft/move, whose causal
      // predecessor is the admission itself (the request was queued on the
      // victim until the thief took it). Draw the arrow from where the
      // request last was to where it ran.
      const bool first_span_hop = prev_exec == nullptr && sp.flags != 0;
      if ((prev_exec != nullptr && prev_exec->proc != sp.proc) ||
          first_span_hop) {
        // Flow pair: start at the previous span's end on its processor (for
        // a first-span hop: at the admission stamp on the front row), finish
        // at this span's start on the new processor. The id is unique per
        // (request, hop) so begin/end pair unambiguously.
        const std::uint64_t flow_id =
            (static_cast<std::uint64_t>(e.req) << 16) | hop;
        const char* kind = (sp.flags & kReqSpanStolen) != 0 ? "steal"
                           : (sp.flags & kReqSpanMoved) != 0 ? "move"
                                                             : "hop";
        w.begin_object();
        w.key("name").string(kind);
        w.key("cat").string("req");
        w.key("ph").string("s");
        w.key("id").uint_value(flow_id);
        w.key("ts").uint_value(first_span_hop ? s.admission : prev_exec->end);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(first_span_hop
                                    ? static_cast<std::uint32_t>(front_tid)
                                    : static_cast<std::uint32_t>(
                                          prev_exec->proc));
        w.end_object();
        w.begin_object();
        w.key("name").string(kind);
        w.key("cat").string("req");
        w.key("ph").string("f");
        w.key("bp").string("e");
        w.key("id").uint_value(flow_id);
        w.key("ts").uint_value(sp.start);
        w.key("pid").uint_value(0);
        w.key("tid").uint_value(sp.proc);
        w.end_object();
        ++hop;
      }
      prev_exec = &sp;
    }
  }
  w.end_array();
  w.key("displayTimeUnit").string("ns");
  w.end_object();
  return w.str();
}

}  // namespace cool::obs
