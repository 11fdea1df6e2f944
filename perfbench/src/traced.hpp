// perfbench traced run: per-layer host-time metrics measured from outside
// the library, by timing calls into each layer's public functions.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Run the workload's ops once with tracing and print every per-layer
/// metric; returns the exit code.
int run_traced(const Args& a);

/// Child mode of the traced run: one race-checked slice of the txn_serve
/// open-loop op (`a.race_slice` requests), run off and on; prints one line
/// "race <refs> <off_s> <on_s> <peak_rss_mb>" for the parent.
int run_race_slice(const Args& a);

}  // namespace perfbench
