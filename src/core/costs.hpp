// Runtime-overhead cost table (simulated cycles) for COOL scheduling
// operations. The paper stresses that COOL tasks are lightweight and that
// placement needs only "two modulo operations"; these constants keep spawn
// and dispatch cheap relative to the memory latencies, while stealing — which
// touches a remote queue — costs more, and more still across clusters.
#pragma once

#include <cstdint>

namespace cool::costs {

/// Create + enqueue a task.
inline constexpr std::uint64_t kSpawn = 120;
/// Dequeue a local task.
inline constexpr std::uint64_t kDispatch = 40;
/// Steal from a queue within the cluster (or move work within it).
inline constexpr std::uint64_t kStealLocal = 300;
/// Steal from a remote cluster's queue (or move work across clusters).
inline constexpr std::uint64_t kStealRemote = 600;
/// Task teardown / join bookkeeping.
inline constexpr std::uint64_t kComplete = 30;
inline constexpr std::uint64_t kMutexAcquire = 20;
inline constexpr std::uint64_t kMutexRelease = 10;
inline constexpr std::uint64_t kCondOp = 20;

}  // namespace cool::costs
