#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace cool::obs {

const char* hint_class_name(HintClass hc) {
  switch (hc) {
    case HintClass::kNone:
      return "none";
    case HintClass::kObject:
      return "object";
    case HintClass::kTask:
      return "task";
    case HintClass::kTaskObject:
      return "task+object";
    case HintClass::kProcessor:
      return "processor";
    case HintClass::kProcessorTask:
      return "processor+task";
    case HintClass::kMulti:
      return "multi-object";
  }
  return "?";
}

LocalityProfiler::LocalityProfiler(const topo::MachineConfig& machine)
    : machine_(machine), shards_(machine.n_procs) {}

bool LocalityProfiler::register_object(std::string name, std::uint64_t addr,
                                       std::uint64_t bytes,
                                       topo::ProcId home) {
  if (!reg_.add(std::move(name), addr, bytes, home)) return false;
  // A set an earlier read listed may now fall inside the new object.
  for (const auto& r : set_records_) r->label = reg_.label(r->key);
  for (std::uint32_t p = 0; p < machine_.n_procs; ++p) {
    shards_.shard(p).last = nullptr;
  }
  return true;
}

LocalityProfiler::ObjStats& LocalityProfiler::obj_stats(Shard& sh,
                                                        std::uint64_t addr) {
  ObjStats* os = sh.last;
  if (os == nullptr || addr < sh.last_start || addr >= sh.last_end) {
    const std::size_t idx = reg_.find(addr);
    const std::uint64_t id =
        idx != ObjectRegistry::npos ? idx : kAnonBit | (addr >> kAnonShift);
    os = &sh.objects[id];
    os->id = id;
    if (idx != ObjectRegistry::npos) {
      sh.last = os;
      sh.last_start = reg_.entry(idx).start;
      sh.last_end = reg_.entry(idx).end;
    }
  }
  if (os->touched != sh.gen) {
    os->touched = sh.gen;
    sh.touched_objects.push_back(os);
  }
  return *os;
}

void LocalityProfiler::touch(Shard& sh, SetShard& ss) {
  if (ss.touched == sh.gen) return;
  ss.touched = sh.gen;
  sh.touched_sets.push_back(&ss);
}

void LocalityProfiler::on_task_dispatch(topo::ProcId proc, HintClass hint,
                                        std::uint64_t set_key, bool stolen) {
  Shard& sh = shards_.shard(proc);
  sh.cur_hint = hint;
  sh.cur_set = nullptr;
  sh.hints[static_cast<int>(hint)].tasks += 1;
  if (set_key != kNoSet) {
    SetShard& ss = sh.sets[set_key];
    ss.key = set_key;
    ss.tasks += 1;
    ss.stolen += stolen ? 1 : 0;
    ss.hint = hint;
    touch(sh, ss);
    sh.cur_set = &ss;
  }
}

void LocalityProfiler::on_access(const mem::AccessInfo& info) {
  Shard& sh = shards_.shard(info.proc);
  const int svc = static_cast<int>(info.service);
  const bool miss = svc >= static_cast<int>(mem::Service::kLocalMem);
  const bool remote = info.service == mem::Service::kRemoteMem ||
                      info.service == mem::Service::kRemoteCache;
  const auto bump = [&](AccessStats& s) {
    if (info.is_write) {
      ++s.writes;
    } else {
      ++s.reads;
    }
    ++s.serviced[svc];
    s.stall_cycles += info.stall;
    if (remote) s.remote_stall_cycles += info.stall;
  };
  ObjStats& os = obj_stats(sh, info.addr);
  bump(os.s);
  if (miss) {
    if (os.miss_home_cluster.empty()) {
      os.miss_home_cluster.resize(machine_.n_clusters());
    }
    os.miss_home_cluster[machine_.cluster_of(info.home)] += 1;
  }
  if (sh.cur_set != nullptr) {
    touch(sh, *sh.cur_set);
    bump(sh.cur_set->s);
  }
  bump(sh.hints[static_cast<int>(sh.cur_hint)].s);
}

void LocalityProfiler::on_inval(std::uint64_t addr, topo::ProcId requester,
                                int copies_killed) {
  Shard& sh = shards_.shard(requester);
  const auto n = static_cast<std::uint64_t>(copies_killed);
  obj_stats(sh, addr).s.invals += n;
  if (sh.cur_set != nullptr) {
    touch(sh, *sh.cur_set);
    sh.cur_set->s.invals += n;
  }
  sh.hints[static_cast<int>(sh.cur_hint)].s.invals += n;
}

ProfileSnapshot LocalityProfiler::snapshot() const {
  ProfileSnapshot p;
  p.n_procs = machine_.n_procs;
  p.n_clusters = machine_.n_clusters();

  p.objects.reserve(reg_.size());
  for (std::size_t i = 0; i < reg_.size(); ++i) {
    const ObjectRegistry::Entry& r = reg_.entry(i);
    ProfileSnapshot::ObjectRow row;
    row.name = r.name;
    row.addr = r.start;
    row.bytes = r.end - r.start;
    row.home = r.home;
    row.miss_from_cluster.assign(p.n_clusters, 0);
    row.miss_home_cluster.assign(p.n_clusters, 0);
    p.objects.push_back(std::move(row));
  }
  std::map<std::uint64_t, ProfileSnapshot::ObjectRow> anon;
  std::map<std::uint64_t, ProfileSnapshot::SetRow> sets;
  std::array<ProfileSnapshot::HintRow, kNumHintClasses> hints{};

  for (std::uint32_t proc = 0; proc < machine_.n_procs; ++proc) {
    const Shard& sh = shards_.shard(proc);
    const topo::ClusterId cluster = machine_.cluster_of(proc);
    for (const auto& [id, os] : sh.objects) {
      ProfileSnapshot::ObjectRow* row = nullptr;
      if ((id & kAnonBit) != 0) {
        row = &anon[id];
        if (row->name.empty()) {
          const std::uint64_t start = (id & ~kAnonBit) << kAnonShift;
          char buf[32];
          std::snprintf(buf, sizeof buf, "anon@0x%" PRIx64, start);
          row->name = buf;
          row->addr = start;
          row->bytes = 1ull << kAnonShift;
          row->anonymous = true;
          row->miss_from_cluster.assign(p.n_clusters, 0);
          row->miss_home_cluster.assign(p.n_clusters, 0);
        }
      } else {
        row = &p.objects[id];
      }
      row->s.add(os.s);
      row->miss_from_cluster[cluster] += os.s.misses();
      for (std::size_t c = 0; c < os.miss_home_cluster.size(); ++c) {
        row->miss_home_cluster[c] += os.miss_home_cluster[c];
      }
    }
    for (const auto& [key, ss] : sh.sets) {
      ProfileSnapshot::SetRow& sr = sets[key];
      sr.key = key;
      sr.tasks += ss.tasks;
      sr.stolen += ss.stolen;
      if (ss.tasks > 0) {
        sr.procs.push_back(proc);  // Shards visited in order: sorted.
        sr.hint = ss.hint;
      }
      sr.s.add(ss.s);
    }
    for (int h = 0; h < kNumHintClasses; ++h) {
      hints[h].hint = static_cast<HintClass>(h);
      hints[h].tasks += sh.hints[h].tasks;
      hints[h].s.add(sh.hints[h].s);
    }
  }

  for (auto& [id, row] : anon) {
    (void)id;
    p.objects.push_back(std::move(row));
  }
  for (const ProfileSnapshot::ObjectRow& row : p.objects) p.total.add(row.s);

  p.sets.reserve(sets.size());
  for (auto& [key, sr] : sets) {
    // Label the set by the registered object its key falls in, if any.
    sr.label = reg_.label(key);
    p.sets.push_back(std::move(sr));
  }
  std::stable_sort(p.sets.begin(), p.sets.end(),
                   [](const ProfileSnapshot::SetRow& a,
                      const ProfileSnapshot::SetRow& b) {
                     if (a.s.stall_cycles != b.s.stall_cycles) {
                       return a.s.stall_cycles > b.s.stall_cycles;
                     }
                     return a.key < b.key;
                   });

  for (const auto& h : hints) {
    if (h.tasks > 0 || h.s.accesses() > 0) p.hints.push_back(h);
  }
  return p;
}

namespace {

/// The record for `key` in `records` (kept sorted by key), added if new.
template <typename Record>
Record& find_or_add(std::vector<std::unique_ptr<Record>>& records,
                    std::uint64_t key, bool& added) {
  auto it = std::lower_bound(
      records.begin(), records.end(), key,
      [](const std::unique_ptr<Record>& r, std::uint64_t k) {
        return r->key < k;
      });
  added = it == records.end() || (*it)->key != key;
  if (added) {
    it = records.insert(it, std::make_unique<Record>());
    (*it)->key = key;
  }
  return **it;
}

}  // namespace

void LocalityProfiler::read_epoch(ProfileDelta& out) {
  ++reads_;
  out.objects.clear();
  out.sets.clear();
  out.cluster_counts.clear();
  const std::size_t nc = machine_.n_clusters();
  bool added = false;
  // Each shard's touched entries, folded into one row per object and set.
  // Shards go in processor order, so a set's entries arrive with ascending
  // processors.
  for (std::uint32_t proc = 0; proc < machine_.n_procs; ++proc) {
    Shard& sh = shards_.shard(proc);
    const auto p = static_cast<topo::ProcId>(proc);
    const topo::ClusterId cluster = machine_.cluster_of(p);
    for (ObjStats* os : sh.touched_objects) {
      if (os->rec == nullptr) {
        os->rec = &find_or_add(obj_records_, os->id, added);
      }
      ObjRecord& rec = *os->rec;
      if (rec.read != reads_) {
        rec.read = reads_;
        rec.row = out.objects.size();
        ProfileDelta::Object row;
        if ((os->id & kAnonBit) != 0) {
          row.addr = (os->id & ~kAnonBit) << kAnonShift;
          row.bytes = 1ull << kAnonShift;
          row.anonymous = true;
        } else {
          const ObjectRegistry::Entry& r = reg_.entry(os->id);
          row.name = r.name;
          row.addr = r.start;
          row.bytes = r.end - r.start;
        }
        out.objects.push_back(row);
        out.cluster_counts.resize(out.cluster_counts.size() + 2 * nc, 0);
      }
      AccessStats delta = os->s;
      delta.sub(os->read_s);
      os->read_s = os->s;
      out.objects[rec.row].s.add(delta);
      std::uint64_t* from = &out.cluster_counts[2 * nc * rec.row];
      std::uint64_t* home = from + nc;
      from[cluster] += delta.misses();
      for (std::size_t c = 0; c < os->miss_home_cluster.size(); ++c) {
        const std::uint64_t before =
            c < os->read_home.size() ? os->read_home[c] : 0;
        home[c] += os->miss_home_cluster[c] - before;
      }
      os->read_home = os->miss_home_cluster;
    }
    for (SetShard* ss : sh.touched_sets) {
      if (ss->rec == nullptr) {
        ss->rec = &find_or_add(set_records_, ss->key, added);
        if (added) ss->rec->label = reg_.label(ss->key);  // Once per set.
      }
      SetRecord& rec = *ss->rec;
      if (rec.read != reads_) {
        rec.read = reads_;
        rec.row = out.sets.size();
        out.sets.emplace_back();
      }
      if (ss->read_tasks == 0) {  // First read since `p` joined the set.
        rec.procs.insert(
            std::upper_bound(rec.procs.begin(), rec.procs.end(), p), p);
      }
      if (p == rec.procs.back()) rec.hint = ss->hint;
      ProfileDelta::Set& row = out.sets[rec.row];
      row.tasks += ss->tasks - ss->read_tasks;
      row.stolen += ss->stolen - ss->read_stolen;
      AccessStats delta = ss->s;
      delta.sub(ss->read_s);
      row.s.add(delta);
      ss->read_tasks = ss->tasks;
      ss->read_stolen = ss->stolen;
      ss->read_s = ss->s;
      row.key = rec.key;
      row.label = rec.label;
      row.hint = rec.hint;
      row.procs = rec.procs;
    }
    sh.touched_objects.clear();
    sh.touched_sets.clear();
    ++sh.gen;
  }
  // The cluster counts no longer move: point the rows at them.
  for (std::size_t i = 0; i < out.objects.size(); ++i) {
    const std::uint64_t* from = &out.cluster_counts[2 * nc * i];
    out.objects[i].miss_from_cluster = {from, nc};
    out.objects[i].miss_home_cluster = {from + nc, nc};
  }
}

ProfileDelta ProfileDelta::of(const ProfileSnapshot& p) {
  ProfileDelta d;
  d.objects.reserve(p.objects.size());
  for (const ProfileSnapshot::ObjectRow& o : p.objects) {
    d.objects.push_back({o.name, o.addr, o.bytes, o.anonymous, o.s,
                         o.miss_from_cluster, o.miss_home_cluster});
  }
  d.sets.reserve(p.sets.size());
  for (const ProfileSnapshot::SetRow& s : p.sets) {
    d.sets.push_back({s.key, s.label, s.hint, s.tasks, s.stolen, s.procs, s.s});
  }
  return d;
}

// --- snapshot rendering ------------------------------------------------------

namespace {

void stats_json(json::Writer& w, const AccessStats& s) {
  w.key("reads").uint_value(s.reads);
  w.key("writes").uint_value(s.writes);
  w.key("serviced").begin_array();
  for (int i = 0; i < mem::kNumServices; ++i) w.uint_value(s.serviced[i]);
  w.end_array();
  w.key("invals").uint_value(s.invals);
  w.key("stall_cycles").uint_value(s.stall_cycles);
  w.key("remote_stall_cycles").uint_value(s.remote_stall_cycles);
}

void cluster_array(json::Writer& w, const char* key,
                   const std::vector<std::uint64_t>& v) {
  w.key(key).begin_array();
  for (std::uint64_t x : v) w.uint_value(x);
  w.end_array();
}

double per_mille(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 1000.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0
             ? 0.0
             : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::string ProfileSnapshot::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("n_procs").uint_value(n_procs);
  w.key("n_clusters").uint_value(n_clusters);
  w.key("objects").begin_array();
  for (const ObjectRow& o : objects) {
    w.begin_object();
    w.key("name").string(o.name);
    w.key("addr").uint_value(o.addr);
    w.key("bytes").uint_value(o.bytes);
    w.key("anonymous").bool_value(o.anonymous);
    w.key("home").uint_value(o.home);
    stats_json(w, o.s);
    cluster_array(w, "miss_from_cluster", o.miss_from_cluster);
    cluster_array(w, "miss_home_cluster", o.miss_home_cluster);
    w.end_object();
  }
  w.end_array();
  w.key("sets").begin_array();
  for (const SetRow& s : sets) {
    w.begin_object();
    w.key("key").uint_value(s.key);
    w.key("label").string(s.label);
    w.key("hint").string(hint_class_name(s.hint));
    w.key("tasks").uint_value(s.tasks);
    w.key("stolen").uint_value(s.stolen);
    w.key("procs").begin_array();
    for (topo::ProcId p : s.procs) w.uint_value(p);
    w.end_array();
    stats_json(w, s.s);
    w.end_object();
  }
  w.end_array();
  w.key("hints").begin_array();
  for (const HintRow& h : hints) {
    w.begin_object();
    w.key("hint").string(hint_class_name(h.hint));
    w.key("tasks").uint_value(h.tasks);
    stats_json(w, h.s);
    w.end_object();
  }
  w.end_array();
  w.key("total").begin_object();
  stats_json(w, total);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string profile_report(const ProfileSnapshot& p) {
  std::string out;
  char buf[160];

  out += "== locality profile: objects (hottest by stall) ==\n";
  util::Table objs({"object", "home", "KB", "acc(K)", "miss/1000", "hit%",
                    "locMem%", "remMem%", "locCache%", "remCache%", "invals",
                    "stall(Kcyc)", "remote-stall%"});
  // Apps may register hundreds of objects (e.g. one per matrix column); keep
  // the text report readable and leave the full set to the JSON record.
  std::vector<const ProfileSnapshot::ObjectRow*> active;
  for (const ProfileSnapshot::ObjectRow& o : p.objects) {
    if (o.s.accesses() > 0 || o.s.invals > 0) active.push_back(&o);
  }
  std::stable_sort(active.begin(), active.end(),
                   [](const ProfileSnapshot::ObjectRow* a,
                      const ProfileSnapshot::ObjectRow* b) {
                     return a->s.stall_cycles > b->s.stall_cycles;
                   });
  constexpr std::size_t kMaxObjRows = 24;
  const std::size_t obj_shown = std::min(active.size(), kMaxObjRows);
  for (std::size_t i = 0; i < obj_shown; ++i) {
    const ProfileSnapshot::ObjectRow& o = *active[i];
    const std::uint64_t m = o.s.misses();
    objs.row()
        .cell(o.name)
        .cell(static_cast<std::uint64_t>(o.home))
        .cell(static_cast<double>(o.bytes) / 1024.0, 1)
        .cell(static_cast<double>(o.s.accesses()) / 1e3, 1)
        .cell(per_mille(m, o.s.accesses()), 2)
        .cell_pct(frac(o.s.serviced[0] + o.s.serviced[1], o.s.accesses()))
        .cell_pct(frac(o.s.serviced[2], m))
        .cell_pct(frac(o.s.serviced[3], m))
        .cell_pct(frac(o.s.serviced[4], m))
        .cell_pct(frac(o.s.serviced[5], m))
        .cell(o.s.invals)
        .cell(static_cast<double>(o.s.stall_cycles) / 1e3, 1)
        .cell_pct(frac(o.s.remote_stall_cycles, o.s.stall_cycles));
  }
  out += objs.to_string();
  if (active.size() > obj_shown) {
    std::snprintf(buf, sizeof buf,
                  "  (+%zu more objects; see the JSON record)\n",
                  active.size() - obj_shown);
    out += buf;
  }

  if (!p.sets.empty()) {
    out += "\n== locality profile: affinity sets (hottest by stall) ==\n";
    util::Table sets({"set", "hint", "tasks", "stolen", "procs", "acc(K)",
                      "miss/1000", "stall(Kcyc)"});
    constexpr std::size_t kMaxSetRows = 16;
    const std::size_t shown = std::min(p.sets.size(), kMaxSetRows);
    for (std::size_t i = 0; i < shown; ++i) {
      const ProfileSnapshot::SetRow& s = p.sets[i];
      sets.row()
          .cell(s.label)
          .cell(hint_class_name(s.hint))
          .cell(s.tasks)
          .cell(s.stolen)
          .cell(static_cast<std::uint64_t>(s.procs.size()))
          .cell(static_cast<double>(s.s.accesses()) / 1e3, 1)
          .cell(per_mille(s.s.misses(), s.s.accesses()), 2)
          .cell(static_cast<double>(s.s.stall_cycles) / 1e3, 1);
    }
    out += sets.to_string();
    if (p.sets.size() > shown) {
      std::snprintf(buf, sizeof buf, "  (+%zu more sets; see the JSON record)\n",
                    p.sets.size() - shown);
      out += buf;
    }
  }

  if (!p.hints.empty()) {
    out += "\n== locality profile: hint classes ==\n";
    util::Table hints({"hint", "dispatches", "acc(K)", "miss/1000", "local%",
                       "stall(Kcyc)"});
    for (const ProfileSnapshot::HintRow& h : p.hints) {
      hints.row()
          .cell(hint_class_name(h.hint))
          .cell(h.tasks)
          .cell(static_cast<double>(h.s.accesses()) / 1e3, 1)
          .cell(per_mille(h.s.misses(), h.s.accesses()), 2)
          .cell_pct(frac(h.s.local_misses(), h.s.misses()))
          .cell(static_cast<double>(h.s.stall_cycles) / 1e3, 1);
    }
    out += hints.to_string();
  }
  return out;
}

}  // namespace cool::obs
