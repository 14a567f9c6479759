// The benchmark's three workloads. Each drives the library only through its
// public functions, checks every output it times, and fills `report` with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). README.md gives each workload's make-up and the reason for it.
#ifndef DPHYP_PERFBENCH_WORKLOADS_H_
#define DPHYP_PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// The paper's Sec. 4 graphs, optimized by DPhyp by name, pruning off.
void RunFigExact(const Options& options, Report& report);

/// A closed loop of PlanService::Serve calls over a Zipf-skewed template
/// pool with a share of one-off queries.
void RunServeZipf(const Options& options, Report& report);

/// Graphs past the exact frontier and past 64 relations, routed by the
/// default auction, plus the inputs that overflow today.
void RunFrontierWide(const Options& options, Report& report);

}  // namespace perfbench

#endif  // DPHYP_PERFBENCH_WORKLOADS_H_
