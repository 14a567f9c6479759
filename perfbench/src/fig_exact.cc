// fig-exact: the paper's Sec. 4 graphs, each optimized by DPhyp by name with
// pruning off, as in the paper. The enumeration core does nearly all of the
// work; no service layer runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/workspace.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "hypergraph/builder.h"
#include "plan/validate.h"
#include "reference.h"
#include "reorder/ses_tes.h"
#include "workload/generators.h"
#include "workload/optree_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct FigGraph {
  std::string label;
  dphyp::Hypergraph graph;
  RefGraph ref;
  /// Closed-form csg-cmp-pair count, 0 when the shape has none.
  uint64_t expected_ccp = 0;
  /// Fig. 8 graphs: the generate-and-test form of the same query.
  bool has_tes_form = false;
  dphyp::Hypergraph ses_graph;
  std::vector<dphyp::TesConstraint> tes;
  std::unique_ptr<dphyp::CardinalityEstimator> est;

  double reference_cost = 0.0;
  /// Outputs of the checked pass; every timed run must repeat them exactly.
  double cost = 0.0;
  dphyp::OptimizerStats stats;
  /// Timed samples, one per pass.
  std::vector<double> samples_ms;
};

dphyp::WorkloadOptions GraphOptions(const Options& options, uint64_t index) {
  dphyp::WorkloadOptions w;
  w.seed = MixSeed(options.seed, index);
  return w;
}

std::vector<std::unique_ptr<FigGraph>> MakeGraphs(const Options& options,
                                                  SpanLog* log) {
  std::vector<std::unique_ptr<FigGraph>> graphs;
  auto from_spec = [&](std::string label, const dphyp::QuerySpec& spec,
                       uint64_t expected_ccp) {
    auto g = std::make_unique<FigGraph>();
    g->label = std::move(label);
    g->graph = dphyp::BuildHypergraphOrDie(spec);
    g->ref = RefGraphFromSpec(spec);
    g->expected_ccp = expected_ccp;
    graphs.push_back(std::move(g));
  };
  auto next = [&] { return GraphOptions(options, graphs.size()); };
  // Fig. 5 and Fig. 6: 16-relation cycles and 16-satellite stars with one
  // big hyperedge, split 0..7 times.
  for (int splits = 0; splits <= 7; ++splits) {
    from_spec("fig5-cycle16-split" + std::to_string(splits),
              dphyp::MakeCycleHypergraphQuery(16, splits, next()), 0);
  }
  for (int splits = 0; splits <= 7; ++splits) {
    from_spec("fig6-star16-split" + std::to_string(splits),
              dphyp::MakeStarHypergraphQuery(16, splits, next()), 0);
  }
  // Fig. 7: plain stars of 3..16 relations.
  for (int n = 3; n <= 16; ++n) {
    from_spec("fig7-star" + std::to_string(n), dphyp::MakeStarQuery(n - 1, next()),
              StarCcpCount(n));
  }
  for (int n = 8; n <= 12; ++n) {
    from_spec("clique" + std::to_string(n), dphyp::MakeCliqueQuery(n, next()),
              CliqueCcpCount(n));
  }
  // Fig. 8a: 16-relation star, 0..15 antijoins.
  for (int anti = 0; anti <= 15; ++anti) {
    dphyp::SyntheticNonInnerWorkload w =
        dphyp::MakeStarAntijoinWorkload(15, anti, next());
    auto g = std::make_unique<FigGraph>();
    g->label = "fig8a-star16-anti" + std::to_string(anti);
    g->graph = std::move(w.graph);
    g->ses_graph = std::move(w.ses_graph);
    g->tes = std::move(w.tes_constraints);
    g->has_tes_form = true;
    graphs.push_back(std::move(g));
  }
  // Fig. 8b: 16-relation cycle, 0..15 outer joins, derived from the
  // operator tree through SES/TES.
  for (int outer = 0; outer <= 15; ++outer) {
    dphyp::OperatorTree tree = dphyp::MakeCycleOuterjoinTree(16, outer, next());
    auto g = std::make_unique<FigGraph>();
    g->label = "fig8b-cycle16-outer" + std::to_string(outer);
    dphyp::DerivedQuery dq;
    {
      ScopedSpan span(log, "reorder.derive", graphs.size());
      dq = dphyp::DeriveQuery(tree);
    }
    g->graph = std::move(dq.graph);
    g->ses_graph = std::move(dq.ses_graph);
    g->tes = std::move(dq.tes_constraints);
    g->has_tes_form = true;
    graphs.push_back(std::move(g));
  }
  for (auto& g : graphs) {
    if (g->has_tes_form) g->ref = RefGraphFromHypergraph(g->graph);
    g->est = std::make_unique<dphyp::CardinalityEstimator>(g->graph);
  }
  return graphs;
}

dphyp::OptimizerOptions Unpruned() {
  dphyp::OptimizerOptions o;
  o.enable_pruning = false;
  return o;
}

// The optimum each graph's plan must reach, computed outside the timed
// region: an independent subset DP for inner-join graphs; for the Fig. 8
// graphs, DPhyp on the generate-and-test (SES + TES) form, which reaches the
// same plan space by a different enumeration.
void ComputeReferences(std::vector<std::unique_ptr<FigGraph>>& graphs, Report& report) {
  const dphyp::CostModel& cost = dphyp::DefaultCostModel();
  for (auto& g : graphs) {
    if (g->has_tes_form) {
      dphyp::CardinalityEstimator ses_est(g->ses_graph);
      dphyp::OptimizerOptions tes = Unpruned();
      tes.tes_constraints = &g->tes;
      auto r = dphyp::OptimizeByName("DPhyp", g->ses_graph, ses_est, cost, tes);
      if (!r.ok() || !r.value().success) {
        report.Fail(g->label + ": generate-and-test DPhyp failed");
        continue;
      }
      g->reference_cost = r.value().cost;
    } else {
      g->reference_cost = SubsetDpOptimum(g->ref);
    }
  }
}

}  // namespace

void RunFigExact(const Options& options, Report& report) {
  SpanLog log;
  SpanLog* trace = options.trace ? &log : nullptr;
  std::vector<std::unique_ptr<FigGraph>> graphs = MakeGraphs(options, trace);
  dphyp::OptimizerWorkspace workspace;
  const dphyp::CostModel& cost_model = dphyp::DefaultCostModel();
  const dphyp::OptimizerOptions unpruned = Unpruned();
  // Set-up: from the process's start to the graphs built, plus the cold
  // first pass's optimizations (not its checks, nor the references).
  double setup_s = SecondsSince(options.process_start);

  const Clock::time_point references_start = Clock::now();
  ComputeReferences(graphs, report);
  std::fprintf(stderr, "perfbench: fig-exact references took %.2f s\n",
               SecondsSince(references_start));

  // The checked pass: the cold first pass, which also warms the workspace.
  for (auto& g : graphs) {
    const Clock::time_point t0 = Clock::now();
    auto r = dphyp::OptimizeByName("DPhyp", g->graph, *g->est, cost_model, unpruned,
                                   &workspace);
    setup_s += SecondsSince(t0);
    if (!r.ok() || !r.value().success) {
      report.Fail(g->label + ": DPhyp failed: " +
                  (r.ok() ? r.value().error : r.error().message));
      continue;
    }
    const dphyp::OptimizeResult& result = r.value();
    g->cost = result.cost;
    g->stats = result.stats;
    if (g->expected_ccp != 0 && result.stats.ccp_pairs != g->expected_ccp) {
      report.Fail(g->label + ": " + std::to_string(result.stats.ccp_pairs) +
                  " csg-cmp pairs, closed form gives " + std::to_string(g->expected_ccp));
    }
    if (!CostsMatch(result.cost, g->reference_cost)) {
      report.Fail(g->label + ": cost differs from the reference optimum");
    }
    dphyp::PlanTree plan = result.ExtractPlan(g->graph);
    auto valid = dphyp::ValidatePlanTree(g->graph, plan);
    if (!valid.ok()) report.Fail(g->label + ": invalid plan: " + valid.error().message);
    const Recost recost = RecostPlan(g->ref, plan);
    if (!recost.ok || !CostsMatch(recost.cost, result.cost)) {
      report.Fail(g->label + ": recomputed C_out differs from the reported cost " +
                  recost.error);
    }
  }

  if (!options.trace) report.Set("setup_s", setup_s);

  // Timed passes: whole passes over every graph until the time is up.
  const Clock::time_point start = Clock::now();
  uint64_t op_id = 0;
  std::vector<double> pass_ms;
  do {
    pass_ms.push_back(0.0);
    for (auto& g : graphs) {
      const uint64_t id = op_id++;
      ++report.attempted;
      const Clock::time_point t0 = Clock::now();
      auto r = [&] {
        ScopedSpan span(trace, "core.optimize", id);
        return dphyp::OptimizeByName("DPhyp", g->graph, *g->est, cost_model, unpruned,
                                     &workspace);
      }();
      const double ms = MillisBetween(t0, Clock::now());
      g->samples_ms.push_back(ms);
      pass_ms.back() += ms;
      if (!r.ok() || !r.value().success) {
        ++report.failed;
        report.Fail(g->label + ": DPhyp failed in a timed pass");
        continue;
      }
      const dphyp::OptimizeResult& result = r.value();
      if (result.cost != g->cost || result.stats.ccp_pairs != g->stats.ccp_pairs) {
        report.Fail(g->label + ": a timed pass did not repeat the checked pass");
      }
      if (trace != nullptr) {
        dphyp::PlanTree plan = [&] {
          ScopedSpan span(trace, "plan.extract", id);
          return result.ExtractPlan(g->graph);
        }();
        ScopedSpan span(trace, "plan.validate", id);
        if (!dphyp::ValidatePlanTree(g->graph, plan).ok()) {
          report.Fail(g->label + ": invalid plan in a timed pass");
        }
      }
    }
  } while (SecondsSince(start) < options.seconds);

  // Each graph's time: its median over the faster half of the passes.
  const std::vector<size_t> kept = FasterHalf(pass_ms);
  std::vector<double> medians, cost_ratios;
  uint64_t ccp = 0, cost_evaluations = 0, dp_entries = 0, table_bytes = 0;
  for (const auto& g : graphs) {
    std::vector<double> samples;
    for (size_t pass : kept) samples.push_back(g->samples_ms[pass]);
    medians.push_back(Median(samples));
    // The plan against the optimum: 1 on correct code.
    cost_ratios.push_back(g->cost / g->reference_cost);
    ccp += g->stats.ccp_pairs;
    cost_evaluations += g->stats.cost_evaluations;
    dp_entries += g->stats.dp_entries;
    table_bytes = std::max<uint64_t>(table_bytes, g->stats.table_bytes);
  }

  if (!options.trace) {
    double sweep = 0.0;
    for (double m : medians) sweep += m;
    report.Set("optimize_ms_geomean", GeoMean(medians));
    report.Set("sweep_ms", sweep);
    report.Set("plans_per_s", medians.size() / (sweep / 1e3));
    // Graph times span orders of magnitude, so the latency distribution is
    // taken over the graphs, each at its median time; every optimization
    // here is a miss.
    report.Set("p50_us", Percentile(medians, 0.5) * 1e3);
    report.Set("p99_us", Percentile(medians, 0.99) * 1e3);
    report.Set("miss_p50_ms", Percentile(medians, 0.5));
    report.Set("plan_cost_geomean", GeoMean(cost_ratios));
    report.Set("peak_rss_mb", PeakRssMb());
    return;
  }

  const std::vector<const SpanLog*> logs{&log};
  const auto self = SelfTimes(logs);
  const LayerTime optimize = self.count("core.optimize") ? self.at("core.optimize")
                                                         : LayerTime{};
  const uint64_t passes = optimize.count / graphs.size();
  report.Set("core.ns_per_ccp_pair", optimize.self_ns / (double(ccp) * passes));
  report.Set("core.ccp_pairs", double(ccp));
  report.Set("core.cost_evaluations", double(cost_evaluations));
  report.Set("core.pruned_share", 0.0);
  report.Set("core.optimize_ms.DPhyp", optimize.MeanUs() / 1e3);
  report.Set("plan.dp_entries", double(dp_entries));
  report.Set("plan.table_bytes", double(table_bytes));
  for (const char* layer : {"plan.extract", "plan.validate", "reorder.derive"}) {
    if (self.count(layer)) report.Set(std::string(layer) + "_us", self.at(layer).MeanUs());
  }
  report.Set("trace.op_p50_us", Percentile(medians, 0.5) * 1e3);
  if (!WriteSpans(options, logs)) report.Fail("could not write the span file");
}

}  // namespace perfbench
