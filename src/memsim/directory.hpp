// Directory-based invalidation coherence state, DASH-style.
//
// One logical directory entry per cached line: a sharer bitmask (up to 64
// processors) and an optional dirty owner. The MemorySystem consults and
// updates this state to classify where each miss is serviced (local memory,
// remote memory, or another processor's cache) and to count invalidations —
// the quantities the paper's DASH hardware performance monitor reports.
//
// Lines are arena-relative, so the table is indexed by line number: states
// live in chunks of 256 lines (one DASH page of 16-byte lines), each
// allocated on first use and found through a vector indexed by line / 256.
// A lookup is two array loads, and memory grows with the pages the program
// touches rather than with the span of addresses between them.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "memsim/cache.hpp"
#include "topology/machine.hpp"

namespace cool::mem {

constexpr topo::ProcId kNoOwner = 0xffffffffu;

struct LineState {
  std::uint64_t sharers = 0;       ///< Bit p set iff processor p caches the line.
  topo::ProcId dirty_owner = kNoOwner;  ///< Valid iff exactly one sharer holds it dirty.

  [[nodiscard]] bool is_cached() const noexcept { return sharers != 0; }
  [[nodiscard]] bool is_dirty() const noexcept { return dirty_owner != kNoOwner; }
  [[nodiscard]] bool has_sharer(topo::ProcId p) const noexcept {
    return (sharers >> p) & 1u;
  }
  [[nodiscard]] int sharer_count() const noexcept {
    return std::popcount(sharers);
  }
};

class Directory {
 public:
  /// Lines at or past this index are rejected with util::Error: the table is
  /// indexed by line, so a stray address must not size it.
  static constexpr LineAddr kMaxLines = LineAddr{1} << 32;

  /// Read-only view; returns a default (uncached) state if absent.
  [[nodiscard]] LineState peek(LineAddr line) const noexcept {
    const LineState* s = find(line);
    return s == nullptr ? LineState{} : *s;
  }

  /// State of `line` to update in place, allocating its chunk on first use.
  /// Chunks never move or go away before clear(), so the reference stays
  /// valid while other lines change. Change its sharers only through the
  /// LineState& calls below, which keep n_entries() in step.
  LineState& entry(LineAddr line) {
    if (LineState* s = find(line)) return *s;
    return allocate(line);
  }

  /// State of a line that some cache holds, so its chunk exists: two loads.
  LineState& cached(LineAddr line) noexcept {
    COOL_DCHECK(find(line) != nullptr && find(line)->is_cached(),
                "directory: line is not cached");
    return (*chunks_[line >> kChunkShift])[line & (kChunkLines - 1)];
  }

  void add_sharer(LineState& s, topo::ProcId p) noexcept {
    if (s.sharers == 0) ++n_entries_;
    s.sharers |= (1ull << p);
  }

  void remove_sharer(LineState& s, topo::ProcId p) noexcept {
    if (s.sharers == 0) return;
    s.sharers &= ~(1ull << p);
    if (s.dirty_owner == p) s.dirty_owner = kNoOwner;
    if (s.sharers == 0) {
      s = LineState{};
      --n_entries_;
    }
  }

  /// Make `owner` the line's only sharer and its dirty owner.
  void set_dirty(LineState& s, topo::ProcId owner) noexcept {
    if (s.sharers == 0) ++n_entries_;
    s.sharers = (1ull << owner);
    s.dirty_owner = owner;
  }

  void add_sharer(LineAddr line, topo::ProcId p) { add_sharer(entry(line), p); }

  void remove_sharer(LineAddr line, topo::ProcId p) noexcept {
    if (LineState* s = find(line)) remove_sharer(*s, p);
  }

  void set_dirty(LineAddr line, topo::ProcId owner) {
    set_dirty(entry(line), owner);
  }

  void clear_dirty(LineAddr line) noexcept {
    if (LineState* s = find(line)) s->dirty_owner = kNoOwner;
  }

  /// Number of cached lines (lines with at least one sharer).
  [[nodiscard]] std::size_t n_entries() const noexcept { return n_entries_; }

  void clear() noexcept {
    chunks_.clear();
    n_entries_ = 0;
  }

  /// Call fn(line, state) for every cached line, in ascending line order
  /// (tests and diagnostics).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] == nullptr) continue;
      for (std::size_t i = 0; i < kChunkLines; ++i) {
        const LineState& s = (*chunks_[c])[i];
        if (s.is_cached()) fn(LineAddr{(c << kChunkShift) + i}, s);
      }
    }
  }

 private:
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::size_t kChunkLines = std::size_t{1} << kChunkShift;
  using Chunk = std::array<LineState, kChunkLines>;

  [[nodiscard]] const LineState* find(LineAddr line) const noexcept {
    const LineAddr c = line >> kChunkShift;
    if (c >= chunks_.size() || chunks_[c] == nullptr) return nullptr;
    return &(*chunks_[c])[line & (kChunkLines - 1)];
  }
  LineState* find(LineAddr line) noexcept {
    return const_cast<LineState*>(std::as_const(*this).find(line));
  }

  /// entry() for a line whose chunk does not exist yet; out of line, so
  /// that entry() inlines to find().
  LineState& allocate(LineAddr line);

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t n_entries_ = 0;
};

}  // namespace cool::mem
