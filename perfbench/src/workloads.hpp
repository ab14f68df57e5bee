// The four benchmark workloads.  Each one builds its inputs from
// options.seed, measures for options.seconds, checks the program's
// outputs, and records its metrics in the report: the end-to-end set when
// options.trace is false, the per-layer set (plus the tracing overhead)
// when it is true.
#pragma once

#include "common.hpp"

namespace perfbench {

/// §5 queueing cells through exp::run_sweep (train → optimize → evaluate).
void run_sim_paper(const Options& options, Report& report);

/// Fan-out and fault cells as two dist shards plus a merge.
void run_sim_groups(const Options& options, Report& report);

/// Open-loop Poisson against the kvstore backend with a SingleR hedge.
void run_live_kvstore(const Options& options, Report& report);

/// Open-loop Poisson against the index backend, no hedging.
void run_live_index(const Options& options, Report& report);

}  // namespace perfbench
