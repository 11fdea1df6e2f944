#include "ops.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace perfbench {

namespace ca = cool::apps;

namespace {

/// Requests per kcycle that puts every arrival of a trace at cycle 0: the
/// batch op measures pure service capacity, as srv_txn_latency's probe does.
constexpr double kBatchRate = 1e6;

std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

std::string fmt_d(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

cool::SystemConfig dash(std::uint32_t procs, const cool::sched::Policy& pol) {
  cool::SystemConfig sc;
  sc.machine = cool::topo::MachineConfig::dash(procs);
  sc.policy = pol;
  return sc;
}

OpSpec bh_op(ca::barneshut::Variant v, std::uint64_t seed, bool tiny) {
  OpSpec op;
  op.name = std::string("bh.") + ca::barneshut::variant_name(v);
  op.app = AppKind::kBarnesHut;
  op.sys = dash(32, ca::barneshut::policy_for(v));
  op.bh.n_bodies = tiny ? 256 : 4096;
  op.bh.steps = 1;
  op.bh.variant = v;
  op.bh.seed = seed;
  return op;
}

OpSpec panel_op(ca::cholesky::PanelVariant v, std::uint64_t seed, bool tiny) {
  OpSpec op;
  op.name = std::string("panel.") + ca::cholesky::panel_variant_name(v);
  op.app = AppKind::kPanel;
  op.sys = dash(32, ca::cholesky::panel_policy_for(v, 32));
  op.panel.n_panels = tiny ? 48 : 256;
  op.panel.variant = v;
  op.panel.seed = seed;
  return op;
}

/// The serving configuration both txn workloads share: P=8 (processor 0 is
/// the admission front end, 7 servers), Zipf theta=1.2 over 14 warehouses,
/// default stealing, flat memory, no observers.
ca::txn::Config txn_config(std::uint64_t seed, bool tiny, std::uint64_t n) {
  ca::txn::Config c;
  c.warehouses = 14;
  c.theta = 1.2;
  c.arrivals.n_requests = tiny ? 2048 : n;
  c.arrivals.seed = seed;
  c.key_seed = seed ^ 0xc001c001ull;
  return c;
}

OpSpec txn_batch_op(std::uint64_t seed, bool tiny, std::uint64_t n) {
  OpSpec op;
  op.name = "txn.batch";
  op.app = AppKind::kTxn;
  op.txn = txn_config(seed, tiny, n);
  op.txn.arrivals.rate_per_kcycle = kBatchRate;
  op.sys = dash(8, ca::txn::policy_for(op.txn));
  return op;
}

OpSpec txn_open_op(std::uint64_t seed, bool tiny, std::uint64_t n) {
  OpSpec op = txn_batch_op(seed, tiny, n);
  op.name = "txn.open";
  op.load_frac = 0.85;
  return op;
}

void add_common(Fields& f, const ca::RunResult& r) {
  const cool::mem::ProcCounters& m = r.mem;
  const cool::sched::SchedStats& s = r.sched;
  f.emplace_back("sim_cycles", fmt_u(r.sim_cycles));
  f.emplace_back("tasks", fmt_u(r.tasks));
  f.emplace_back("checksum", fmt_d(r.checksum));
  f.emplace_back("mem.reads", fmt_u(m.reads));
  f.emplace_back("mem.writes", fmt_u(m.writes));
  static const char* const kService[cool::mem::kNumServices] = {
      "mem.l1_hit",    "mem.l2_hit",          "mem.local_mem",
      "mem.remote_mem", "mem.local_cache", "mem.remote_cache"};
  for (int i = 0; i < cool::mem::kNumServices; ++i) {
    f.emplace_back(kService[i], fmt_u(m.serviced[i]));
  }
  f.emplace_back("mem.upgrades", fmt_u(m.upgrades));
  f.emplace_back("mem.invals_sent", fmt_u(m.invals_sent));
  f.emplace_back("mem.invals_received", fmt_u(m.invals_received));
  f.emplace_back("mem.writebacks", fmt_u(m.writebacks));
  f.emplace_back("mem.stall_cycles", fmt_u(m.latency_cycles));
  f.emplace_back("mem.contention_cycles", fmt_u(m.contention_cycles));
  f.emplace_back("mem.pages_migrated", fmt_u(m.pages_migrated));
  f.emplace_back("mem.prefetches", fmt_u(m.prefetches));
  f.emplace_back("sched.spawned", fmt_u(s.spawned));
  f.emplace_back("sched.pops", fmt_u(s.pops));
  f.emplace_back("sched.steals", fmt_u(s.steals));
  f.emplace_back("sched.set_steals", fmt_u(s.set_steals));
  f.emplace_back("sched.tasks_stolen", fmt_u(s.tasks_stolen));
  f.emplace_back("sched.remote_cluster_steals", fmt_u(s.remote_cluster_steals));
  f.emplace_back("sched.failed_steal_scans", fmt_u(s.failed_steal_scans));
  f.emplace_back("sched.resumes", fmt_u(s.resumes));
  f.emplace_back("sched.balance_moves", fmt_u(s.balance_moves));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"bh_hits", "panel_misses",
                                                  "txn_serve", "txn_adapt"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "bh_hits") {
    w.ops = {bh_op(ca::barneshut::Variant::kBase, seed, tiny),
             bh_op(ca::barneshut::Variant::kDistrAff, seed, tiny)};
  } else if (name == "panel_misses") {
    using ca::cholesky::PanelVariant;
    w.ops = {panel_op(PanelVariant::kBase, seed, tiny),
             panel_op(PanelVariant::kDistrAffCluster, seed, tiny)};
  } else if (name == "txn_serve") {
    w.ops = {txn_batch_op(seed, tiny, 262144), txn_open_op(seed, tiny, 262144)};
  } else if (name == "txn_adapt") {
    // The same open-loop trace with every opt-in layer the serving studies
    // use: the latency objective, the request tracer and the DDR backend.
    OpSpec adapt = txn_open_op(seed, tiny, 131072);
    adapt.name = "txn.adapt";
    adapt.sys.adapt = true;
    adapt.sys.req_trace = true;
    adapt.sys.mem_channel.kind = cool::mem::ChannelConfig::Kind::kDdr;
    adapt.target_service_mult = 2.0;
    w.ops = {txn_batch_op(seed, tiny, 131072), adapt};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

OpSpec resolve(const OpSpec& spec, const std::vector<OpOutcome>& prior) {
  OpSpec op = spec;
  if (op.load_frac == 0.0 && op.target_service_mult == 0.0) return op;
  const OpOutcome* batch = nullptr;
  for (const OpOutcome& o : prior) {
    if (o.capacity_per_kcycle > 0.0) batch = &o;
  }
  COOL_CHECK(batch != nullptr, op.name + ": no batch op measured a capacity");
  if (op.load_frac > 0.0) {
    op.txn.arrivals.rate_per_kcycle = op.load_frac * batch->capacity_per_kcycle;
  }
  if (op.target_service_mult > 0.0) {
    op.sys.adapt_policy.latency_target_cycles = static_cast<std::uint64_t>(
        op.target_service_mult * batch->service_cycles);
  }
  return op;
}

OpOutcome run_op(const OpSpec& spec, OpTimes* times, OpHooks* hooks) {
  OpTimes t;
  t.start = Clock::now();
  auto rt = std::make_unique<cool::Runtime>(spec.sys);
  t.built = Clock::now();
  if (hooks != nullptr) hooks->after_ctor(*rt);

  OpOutcome out;
  Fields& f = out.fields;
  switch (spec.app) {
    case AppKind::kBarnesHut: {
      const ca::barneshut::Result r = ca::barneshut::run(*rt, spec.bh);
      t.ran = Clock::now();
      COOL_CHECK(std::isfinite(r.energy) && r.max_force_error < 0.05,
                 spec.name + ": tree forces disagree with direct summation");
      add_common(f, r.run);
      f.emplace_back("bh.energy", fmt_d(r.energy));
      f.emplace_back("bh.max_force_error", fmt_d(r.max_force_error));
      out.line_refs = r.run.mem.accesses();
      out.tasks = r.run.tasks;
      break;
    }
    case AppKind::kPanel: {
      const ca::cholesky::PanelResult r =
          ca::cholesky::run_panel(*rt, spec.panel);
      t.ran = Clock::now();
      COOL_CHECK(r.checksum == ca::cholesky::panel_serial_checksum(spec.panel),
                 spec.name + ": checksum differs from the serial run");
      add_common(f, r.run);
      f.emplace_back("panel.updates", fmt_u(r.updates));
      out.line_refs = r.run.mem.accesses();
      out.tasks = r.run.tasks;
      break;
    }
    case AppKind::kTxn: {
      const ca::txn::Result r = ca::txn::run(*rt, spec.txn);
      t.ran = Clock::now();
      // txn::run already verified the admission and stock ledgers.
      const std::uint64_t n = spec.txn.arrivals.n_requests;
      COOL_CHECK(r.ledger.completed == n && r.orders == n,
                 spec.name + ": not every request completed exactly once");
      add_common(f, r.run);
      f.emplace_back("txn.completed", fmt_u(r.ledger.completed));
      f.emplace_back("txn.hot_requests", fmt_u(r.hot_requests));
      f.emplace_back("txn.p50", fmt_u(r.latency.quantile(0.50)));
      f.emplace_back("txn.p99", fmt_u(r.latency.quantile(0.99)));
      f.emplace_back("txn.p999", fmt_u(r.latency.quantile(0.999)));
      out.line_refs = r.run.mem.accesses();
      out.tasks = r.run.tasks;
      if (spec.txn.arrivals.rate_per_kcycle >= kBatchRate &&
          r.run.sim_cycles > 0) {
        const double cyc = static_cast<double>(r.run.sim_cycles);
        out.capacity_per_kcycle = 1000.0 * static_cast<double>(n) / cyc;
        out.service_cycles =
            static_cast<double>(spec.sys.machine.n_procs - 1) * cyc /
            static_cast<double>(n);
      }
      break;
    }
  }
  const cool::adaptive::AdaptiveEngine* eng = rt->adaptive_engine();
  f.emplace_back("adapt.epochs", fmt_u(eng != nullptr ? eng->epochs() : 0));
  f.emplace_back("adapt.decisions",
                 fmt_u(eng != nullptr ? eng->log().size() : 0));
  f.emplace_back("adapt.log", hex16(fnv1a(rt->adaptation_json())));

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [k, v] : f) h = fnv1a(k + "=" + v + ";", h);
  out.digest = hex16(h);
  t.checked = Clock::now();

  if (hooks != nullptr) hooks->before_dtor(*rt);
  t.dtor_start = Clock::now();
  rt.reset();
  t.end = Clock::now();
  if (times != nullptr) *times = t;
  return out;
}

References::References(const std::string& path) {
  std::ifstream in(path);
  std::string ln;
  while (std::getline(in, ln)) {
    if (ln.empty() || ln[0] == '#') continue;
    std::istringstream ss(ln);
    Entry e;
    std::string op_name;
    std::string digest;
    ss >> e.workload >> e.seed >> e.op >> op_name >> digest;
    std::string kv;
    while (ss >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) continue;
      e.fields.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    entries_.push_back(std::move(e));
  }
}

const Fields* References::find(const std::string& workload, std::uint64_t seed,
                               std::size_t op) const {
  for (const Entry& e : entries_) {
    if (e.workload == workload && e.seed == seed && e.op == op) {
      return &e.fields;
    }
  }
  return nullptr;
}

std::string References::line(const std::string& workload, std::uint64_t seed,
                             std::size_t op, const std::string& op_name,
                             const OpOutcome& out) {
  std::string s = workload + " " + std::to_string(seed) + " " +
                  std::to_string(op) + " " + op_name + " " + out.digest;
  for (const auto& [k, v] : out.fields) s += " " + k + "=" + v;
  return s;
}

std::string first_difference(const Fields& want, const Fields& got) {
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= want.size()) return got[i].first;
    if (i >= got.size()) return want[i].first;
    if (want[i] != got[i]) return want[i].first;
  }
  return "";
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone; getrusage's ru_maxrss would
  // also count the image that exec'd it when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
