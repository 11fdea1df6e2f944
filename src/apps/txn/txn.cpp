#include "apps/txn/txn.hpp"

#include <cstdio>
#include <deque>

#include "adaptive/engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "load/zipf.hpp"

namespace cool::apps::txn {

namespace {

constexpr std::int64_t kInitStock = 1 << 20;  ///< Never decrements below 0.
constexpr std::size_t kOrderLog = 64;         ///< Per-district order ring.

/// One precomputed request: all randomness is drawn before the run starts.
struct Req {
  std::uint16_t wh = 0;
  std::uint16_t dist = 0;
};

/// One district's simulated state (pages homed on the warehouse's home).
struct District {
  std::uint64_t* hdr = nullptr;    ///< [0] next_o_id, [1] ytd quantity.
  std::int64_t* stock = nullptr;   ///< `items` slots.
  std::uint64_t* olog = nullptr;   ///< kOrderLog order-id ring.
};

struct App {
  Runtime* rt = nullptr;
  Config cfg;
  std::vector<District> dist;      ///< warehouses * districts, row-major.
  std::deque<Mutex> mu;            ///< One monitor per district.
  std::int64_t* price = nullptr;   ///< Read-only item catalog (items slots).
  std::vector<Req> req;
  std::vector<std::uint16_t> line_item;  ///< req * lines, flattened.
  std::vector<std::uint8_t> line_qty;    ///< req * lines, flattened.
  load::Driver* driver = nullptr;

  [[nodiscard]] std::size_t dix(std::size_t wh, std::size_t d) const {
    return wh * static_cast<std::size_t>(cfg.districts) + d;
  }
};

/// The new-order transaction body: catalog reads, stock decrements, order
/// counter bump and order-log insert, all under the district monitor.
TaskFn new_order(App* a, std::uint32_t id) {
  auto& c = co_await self();
  const Req& r = a->req[id];
  const std::size_t di = a->dix(r.wh, r.dist);
  District& d = a->dist[di];
  const int lines = a->cfg.lines;
  {
    auto g = co_await c.lock(a->mu[di]);
    std::uint64_t total_qty = 0;
    for (int l = 0; l < lines; ++l) {
      const std::size_t k = static_cast<std::size_t>(id) * lines + l;
      const std::uint16_t item = a->line_item[k];
      const std::uint8_t qty = a->line_qty[k];
      c.read(&a->price[item], sizeof(std::int64_t));
      c.update(&d.stock[item], sizeof(std::int64_t));
      d.stock[item] -= qty;
      total_qty += qty;
    }
    c.update(d.hdr, 2 * sizeof(std::uint64_t));
    const std::uint64_t oid = d.hdr[0]++;
    d.hdr[1] += total_qty;
    c.write(&d.olog[oid % kOrderLog], sizeof(std::uint64_t));
    d.olog[oid % kOrderLog] = id;
  }
  // Post-commit work (pricing, response marshalling) runs outside the
  // monitor: it consumes the serving processor but not the district lock,
  // so the hot-warehouse bottleneck is the processor, not the monitor —
  // exactly the imbalance the balancers and the latency objective target.
  c.work(a->cfg.think_cycles);
  a->driver->complete(id, c.now());
}

}  // namespace

sched::Policy policy_for(const Config& cfg) {
  sched::Policy p;
  p.honor_affinity = cfg.hints;
  // Processor 0 is the front-end (see run()): the pump occupies it without
  // sitting in its queue, so by queue length it looks idle. Keep the
  // Reserve balancer from redirecting hot-key requests onto it — they would
  // time-share with admission and stretch the whole trace. On a
  // single-processor machine the mask covers every member and is ignored.
  p.reserve_exclude_mask = 1;
  return p;
}

double Result::offered_per_kcycle() const {
  return last_arrival == 0 ? 0.0
                           : 1000.0 * static_cast<double>(ledger.generated) /
                                 static_cast<double>(last_arrival);
}

double Result::served_per_kcycle() const {
  return last_arrival == 0 ? 0.0
                           : 1000.0 * static_cast<double>(served_in_window) /
                                 static_cast<double>(last_arrival);
}

double Result::served_ratio() const {
  return ledger.generated == 0
             ? 0.0
             : static_cast<double>(served_in_window) /
                   static_cast<double>(ledger.generated);
}

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.warehouses >= 1 && cfg.districts >= 1, "txn: empty machine");
  COOL_CHECK(cfg.items >= 1 && cfg.lines >= 1, "txn: empty transaction");
  COOL_CHECK(cfg.arrivals.n_requests > 0, "txn: empty arrival trace");
  const auto P = static_cast<std::size_t>(rt.machine().n_procs);

  App app;
  app.rt = &rt;
  app.cfg = cfg;
  const auto n_dist =
      static_cast<std::size_t>(cfg.warehouses) * cfg.districts;
  app.dist.resize(n_dist);
  for (std::size_t i = 0; i < n_dist; ++i) app.mu.emplace_back();

  // Processor 0 is the front-end: the admission pump occupies it for the
  // whole trace, so districts are homed on the remaining P-1 serving
  // processors (warehouse w lives on 1 + w mod (P-1)) and warehouse skew is
  // serving-processor skew. The read-only item catalog stays with the
  // front-end. With a single processor everything degenerates onto it.
  app.price = rt.alloc_array<std::int64_t>(
      static_cast<std::size_t>(cfg.items), 0);
  for (int i = 0; i < cfg.items; ++i) app.price[i] = 100 + i;
  {
    char name[32];
    for (int w = 0; w < cfg.warehouses; ++w) {
      const auto home = static_cast<std::int64_t>(
          P > 1 ? 1 + static_cast<std::size_t>(w) % (P - 1) : 0);
      for (int d = 0; d < cfg.districts; ++d) {
        District& dd = app.dist[app.dix(static_cast<std::size_t>(w),
                                        static_cast<std::size_t>(d))];
        dd.hdr = rt.alloc_array<std::uint64_t>(2, home);
        dd.stock = rt.alloc_array<std::int64_t>(
            static_cast<std::size_t>(cfg.items), home);
        dd.olog = rt.alloc_array<std::uint64_t>(kOrderLog, home);
        dd.hdr[0] = 0;
        dd.hdr[1] = 0;
        for (int i = 0; i < cfg.items; ++i) dd.stock[i] = kInitStock;
        std::snprintf(name, sizeof name, "wh%d.d%d.stock", w, d);
        rt.profile_register(
            name, dd.stock,
            static_cast<std::size_t>(cfg.items) * sizeof(std::int64_t));
      }
    }
  }

  // Draw every random pick up front: the run is a pure function of Config.
  const std::uint64_t n = cfg.arrivals.n_requests;
  util::Rng keys(cfg.key_seed);
  const load::ZipfSampler zipf(static_cast<std::size_t>(cfg.warehouses),
                               cfg.theta);
  app.req.resize(n);
  app.line_item.resize(n * static_cast<std::size_t>(cfg.lines));
  app.line_qty.resize(n * static_cast<std::size_t>(cfg.lines));
  std::uint64_t expected_qty = 0;
  std::uint64_t hot = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    Req& r = app.req[i];
    r.wh = static_cast<std::uint16_t>(zipf.sample(keys));
    r.dist = static_cast<std::uint16_t>(
        keys.next_below(static_cast<std::uint64_t>(cfg.districts)));
    if (r.wh == 0) ++hot;
    for (int l = 0; l < cfg.lines; ++l) {
      const std::size_t k = i * static_cast<std::size_t>(cfg.lines) + l;
      app.line_item[k] = static_cast<std::uint16_t>(
          keys.next_below(static_cast<std::uint64_t>(cfg.items)));
      const auto qty =
          static_cast<std::uint8_t>(1 + keys.next_below(10));
      app.line_qty[k] = qty;
      expected_qty += qty;
    }
  }

  load::Driver driver(load::generate_arrivals(cfg.arrivals),
                      {.epoch_cycles = cfg.admit_epoch_cycles,
                       .measure_from_cycles = cfg.measure_from_cycles});
  app.driver = &driver;

  // Causal tracing (--req-trace): the driver stamps admission/completion,
  // the sim engine chains the dispatch spans in between.
  obs::RequestTraceRecorder* rec = rt.request_trace();
  if (rec != nullptr) driver.set_trace(rec);

  // First latency-objective feed: the adaptive engine reads each epoch's
  // requests off the driver's histogram and compares their p99 with its
  // target. With a recorder attached it also gets the decomposition sensor,
  // so overshoots escalate by dominant component (queue wait vs memory
  // stall).
  adaptive::AdaptiveEngine* eng = rt.adaptive_engine();
  if (eng != nullptr) {
    eng->set_latency_sensor(&driver.latency());
    if (rec != nullptr) {
      eng->set_breakdown_sensor([rec] { return rec->stall_sums(); });
    }
  }

  rt.run(driver.pump(
      [&app](std::uint32_t id) {
        if (!app.cfg.hints) return Affinity::none();
        const Req& r = app.req[id];
        return Affinity::object(app.dist[app.dix(r.wh, r.dist)].stock);
      },
      [&app](std::uint32_t id, std::uint64_t /*arrival*/) {
        return new_order(&app, id);
      }));

  if (eng != nullptr) {
    eng->set_latency_sensor(nullptr);
    eng->set_breakdown_sensor(nullptr);
  }

  // Conservation: cool-check's admission ledger, then the stock ledger.
  driver.verify();
  std::uint64_t orders = 0;
  std::uint64_t moved = 0;
  for (const District& d : app.dist) {
    orders += d.hdr[0];
    moved += d.hdr[1];
    std::int64_t decremented = 0;
    for (int i = 0; i < cfg.items; ++i) decremented += kInitStock - d.stock[i];
    COOL_CHECK(decremented == static_cast<std::int64_t>(d.hdr[1]),
               "txn: district stock moved disagrees with its ytd counter");
  }
  COOL_CHECK(orders == n, "txn: order count disagrees with requests run");
  COOL_CHECK(moved == expected_qty,
             "txn: stock moved disagrees with the generated order lines");

  Result res;
  res.latency = driver.measured_latency();
  res.ledger = driver.ledger();
  res.inflight = driver.inflight_samples();
  res.last_arrival = driver.last_arrival();
  res.served_in_window = driver.served_in_window();
  res.orders = orders;
  res.stock_moved = moved;
  res.hot_requests = hot;
  if (rec != nullptr) res.breakdown = rec->summary();
  res.run = collect(rt, static_cast<double>(moved));
  return res;
}

}  // namespace cool::apps::txn
