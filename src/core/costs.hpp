// Runtime-overhead cost model (simulated cycles) for COOL scheduling
// operations. The paper stresses that COOL tasks are lightweight and that
// placement needs only "two modulo operations"; these defaults keep spawn and
// dispatch cheap relative to the memory latencies, while stealing — which
// touches a remote queue — costs more, and more still across clusters.
#pragma once

#include <cstdint>

namespace cool {

struct CostModel {
  std::uint64_t spawn = 120;         ///< Create + enqueue a task.
  std::uint64_t dispatch = 40;       ///< Dequeue a local task.
  std::uint64_t steal_local = 300;   ///< Steal from a queue within the cluster.
  std::uint64_t steal_remote = 600;  ///< Steal from a remote cluster's queue.
  std::uint64_t complete = 30;       ///< Task teardown / join bookkeeping.
  std::uint64_t mutex_acquire = 20;
  std::uint64_t mutex_release = 10;
  std::uint64_t cond_op = 20;
};

}  // namespace cool
