// frontier-wide: graphs past the exact frontier and past 64 relations,
// routed by the default auction. Narrow graphs go through an
// OptimizationSession, wide ones through OptimizeWideAdaptive. Dispatch, the
// beyond-exact enumerators and the multi-word NodeSet path do their work
// here and nowhere else in the benchmark.
//
// Three inputs fail today, all from cardinalities that overflow to +inf
// (ROADMAP item 1). They do not depend on the seed, fail in every round, and
// are counted as attempted and failed but left out of every timing and cost
// aggregate, so a fix moves the failure count and nothing else.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/goo.h"
#include "core/enumerator.h"
#include "core/wide.h"
#include "core/workspace.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "hypergraph/builder.h"
#include "plan/validate.h"
#include "reference.h"
#include "reorder/ses_tes.h"
#include "service/dispatch.h"
#include "service/session.h"
#include "workload/generators.h"
#include "workload/optree_gen.h"
#include "workload/wide_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Generator seed of the narrow beyond-exact panel.
constexpr uint64_t kPanelSeed = 4;

struct FrontierGraph {
  std::string label;
  /// One of the three overflow inputs.
  bool fault = false;
  bool wide = false;
  dphyp::Hypergraph narrow;
  std::unique_ptr<dphyp::CardinalityEstimator> narrow_est;
  dphyp::WideHypergraph wide_graph;
  std::unique_ptr<dphyp::WideCardinalityEstimator> wide_est;
  RefGraph ref;
  /// Path-shaped graphs the auction routes to exact DPccp: the interval DP
  /// optimum; 0 otherwise.
  double interval_cost = 0.0;
  double goo_cost = 0.0;
  bool have_first = false;
  double first_cost = 0.0;
  /// Timed samples and the one-second window each fell in.
  std::vector<double> samples_ms;
  std::vector<size_t> samples_window;
};

/// What one optimization produced, judged.
struct Outcome {
  /// The operation failed: an error, success=false, a non-finite cost, or a
  /// plan that does not validate.
  bool failed = false;
  std::string error;
  double cost = 0.0;
  std::string algorithm;
  dphyp::OptimizerStats stats;
  double recost = 0.0;
  std::string recost_error;
};

template <typename NS>
void Judge(const dphyp::BasicHypergraph<NS>& graph, const RefGraph& ref,
           const dphyp::BasicOptimizeResult<NS>& result, SpanLog* trace, uint64_t id,
           Outcome& out) {
  out.stats = result.stats;
  out.algorithm = result.stats.algorithm;
  out.cost = result.cost;
  if (!result.success) {
    out.failed = true;
    out.error = result.error;
    return;
  }
  if (!std::isfinite(result.cost)) {
    out.failed = true;
    out.error = "success with a non-finite cost";
  }
  dphyp::BasicPlanTree<NS> plan = [&] {
    ScopedSpan span(trace, "plan.extract", id);
    return result.ExtractPlan(graph);
  }();
  {
    ScopedSpan span(trace, "plan.validate", id);
    auto valid = dphyp::ValidatePlanTree(graph, plan);
    if (!valid.ok()) {
      out.failed = true;
      out.error += (out.error.empty() ? "" : "; ") + ("invalid plan: " + valid.error().message);
    }
  }
  if (out.failed) return;
  const Recost recost = RecostPlan(ref, plan);
  out.recost = recost.cost;
  out.recost_error = recost.error;
}

std::vector<std::unique_ptr<FrontierGraph>> MakeGraphs(const Options& options) {
  std::vector<std::unique_ptr<FrontierGraph>> graphs;
  auto options_for = [&](uint64_t stream) {
    dphyp::WorkloadOptions w;
    w.seed = MixSeed(options.seed, stream);
    return w;
  };
  auto narrow = [&](std::string label, dphyp::Hypergraph graph, bool fault) {
    auto g = std::make_unique<FrontierGraph>();
    g->label = std::move(label);
    g->fault = fault;
    g->narrow = std::move(graph);
    graphs.push_back(std::move(g));
  };
  auto wide = [&](std::string label, dphyp::WideHypergraph graph, bool fault) {
    auto g = std::make_unique<FrontierGraph>();
    g->label = std::move(label);
    g->fault = fault;
    g->wide = true;
    g->wide_graph = std::move(graph);
    graphs.push_back(std::move(g));
  };
  // Narrow, past the exact frontier: routed to idp-k (inner joins) and
  // anneal (a non-inner operator tree). This panel does not follow the run's
  // seed: how much these heuristics beat GOO swings by orders of magnitude
  // from one random graph to the next, so a seeded panel would bury a plan
  // quality change under the spread between seeds.
  auto panel = [](uint64_t stream) {
    dphyp::WorkloadOptions w;
    w.seed = MixSeed(kPanelSeed, stream);
    return w;
  };
  narrow("clique24", dphyp::BuildHypergraphOrDie(dphyp::MakeCliqueQuery(24, panel(1))),
         false);
  narrow("star40", dphyp::BuildHypergraphOrDie(dphyp::MakeStarQuery(39, panel(2))), false);
  for (int n : {24, 40, 60}) {
    narrow("random" + std::to_string(n),
           dphyp::BuildHypergraphOrDie(dphyp::MakeRandomGraphQuery(
               n, 0.1, MixSeed(kPanelSeed, 10 + n), panel(20 + n))),
           false);
  }
  dphyp::RandomTreeOptions tree_options;
  tree_options.workload = panel(3);
  narrow("optree30",
         dphyp::DeriveQuery(
             dphyp::MakeRandomOperatorTree(30, MixSeed(kPanelSeed, 4), tree_options))
             .graph,
         false);
  // Wide, from the run's seed: exact DPccp on the two paths, idp-k on the
  // sparse graph.
  const uint64_t s = options.seed;
  wide("wide-chain72", dphyp::MakeWideChainGraph(72, options_for(5)), false);
  wide("wide-path80", dphyp::MakeWideDegreeBoundedTree(80, 2, MixSeed(s, 6), options_for(7)),
       false);
  wide("wide-sparse80", dphyp::MakeWideSparseGraph(80, 0.02, MixSeed(s, 8), options_for(9)),
       false);
  // The overflow inputs, fixed whatever the seed.
  dphyp::WorkloadOptions huge;
  huge.min_cardinality = huge.max_cardinality = 1e12;
  huge.min_selectivity = huge.max_selectivity = 1.0;
  narrow("overflow-chain40", dphyp::BuildHypergraphOrDie(dphyp::MakeChainQuery(40, huge)),
         true);
  wide("overflow-wide-cycle90", dphyp::MakeWideCycleGraph(90), true);
  wide("overflow-wide-star90", dphyp::MakeWideStarGraph(90), true);

  for (auto& g : graphs) {
    if (g->wide) {
      g->wide_est = std::make_unique<dphyp::WideCardinalityEstimator>(g->wide_graph);
    } else {
      g->narrow_est = std::make_unique<dphyp::CardinalityEstimator>(g->narrow);
    }
  }
  return graphs;
}

void ComputeReferences(std::vector<std::unique_ptr<FrontierGraph>>& graphs, Report& report) {
  const dphyp::CostModel& cost = dphyp::DefaultCostModel();
  for (auto& g : graphs) {
    g->ref = g->wide ? RefGraphFromHypergraph(g->wide_graph) : RefGraphFromHypergraph(g->narrow);
    if (g->fault) continue;
    if (g->wide) {
      auto goo = dphyp::OptimizeGoo(g->wide_graph, *g->wide_est, cost);
      if (goo.success) g->goo_cost = goo.cost;
      if (dphyp::ChooseWideRoute(g->wide_graph).exact) {
        const std::vector<int> path = PathOrder(g->ref);
        if (path.empty()) {
          report.Fail(g->label + ": routed exact but is not a path");
        } else {
          g->interval_cost = IntervalDpOptimum(g->ref, path);
        }
      }
    } else {
      auto goo = dphyp::OptimizeByName("GOO", g->narrow, *g->narrow_est, cost);
      if (goo.ok() && goo.value().success) g->goo_cost = goo.value().cost;
    }
    if (!(g->goo_cost > 0.0) || !std::isfinite(g->goo_cost)) {
      report.Fail(g->label + ": GOO found no finite plan");
    }
  }
}

}  // namespace

void RunFrontierWide(const Options& options, Report& report) {
  SpanLog log;
  SpanLog* trace = options.trace ? &log : nullptr;
  std::vector<std::unique_ptr<FrontierGraph>> graphs = MakeGraphs(options);
  dphyp::OptimizerWorkspace workspace;
  dphyp::WideOptimizerWorkspace wide_workspace;
  dphyp::OptimizationSession session(&workspace);
  const dphyp::CostModel& cost_model = dphyp::DefaultCostModel();
  // Set-up: from the process's start to the graphs built, plus the cold
  // first round's optimizations (not its checks, nor the references).
  double setup_s = SecondsSince(options.process_start);

  const Clock::time_point references_start = Clock::now();
  ComputeReferences(graphs, report);
  std::fprintf(stderr, "perfbench: frontier-wide references took %.2f s\n",
               SecondsSince(references_start));

  std::map<std::string, std::vector<double>> route_ms;
  std::map<std::string, uint64_t> route_count;
  uint64_t ccp = 0, cost_evaluations = 0, pruned = 0, dp_entries = 0, table_bytes = 0;
  uint64_t op_id = 0, rounds = 0;
  // A first round, counted in the set-up, warms the workspaces; then whole
  // rounds until the time is up, so every run fails the same share of its
  // operations.
  bool warm = false;
  Clock::time_point start = Clock::now();
  std::vector<double> window_ms, window_rounds;
  while (!warm || SecondsSince(start) < options.seconds) {
    const size_t window = static_cast<size_t>(SecondsSince(start));
    if (warm && window_ms.size() <= window) {
      window_ms.resize(window + 1, 0.0);
      window_rounds.resize(window + 1, 0.0);
    }
    for (auto& g : graphs) {
      const uint64_t id = op_id++;
      Outcome out;
      double ms = 0.0;
      if (g->wide) {
        if (trace != nullptr) {
          ScopedSpan span(trace, "service.route", id);
          dphyp::WideRouteDecision decision = dphyp::ChooseWideRoute(g->wide_graph);
          (void)decision;
        }
        const Clock::time_point t0 = Clock::now();
        dphyp::WideOptimizeResult result = [&] {
          ScopedSpan span(trace, "core.optimize", id);
          return dphyp::OptimizeWideAdaptive(g->wide_graph, *g->wide_est, cost_model, {},
                                             &wide_workspace);
        }();
        ms = MillisBetween(t0, Clock::now());
        Judge(g->wide_graph, g->ref, result, trace, id, out);
      } else {
        if (trace != nullptr) {
          ScopedSpan span(trace, "service.route", id);
          dphyp::DispatchDecision decision = dphyp::ChooseRoute(g->narrow);
          (void)decision;
        }
        dphyp::OptimizationRequest request;
        request.graph = &g->narrow;
        request.estimator = g->narrow_est.get();
        request.cost_model = &cost_model;
        const Clock::time_point t0 = Clock::now();
        auto result = [&] {
          ScopedSpan span(trace, "core.optimize", id);
          return session.Optimize(request);
        }();
        ms = MillisBetween(t0, Clock::now());
        if (!result.ok()) {
          out.failed = true;
          out.error = result.error().message;
        } else {
          Judge(g->narrow, g->ref, result.value(), trace, id, out);
        }
      }
      if (!warm) {
        if (!g->fault) setup_s += ms / 1e3;
        if (out.failed && g->fault) {
          std::fprintf(stderr, "perfbench: %s fails as known: %s\n", g->label.c_str(),
                       out.error.c_str());
        }
      } else {
        ++report.attempted;
        if (out.failed) ++report.failed;
      }
      if (out.failed) {
        if (!g->fault) report.Fail(g->label + ": " + out.error);
        continue;
      }
      // A successful operation: check it, whether or not it is a fault input
      // that a fix has since mended.
      if (!out.recost_error.empty() || !CostsMatch(out.recost, out.cost)) {
        report.Fail(g->label + ": recomputed C_out differs from the reported cost " +
                    out.recost_error);
      }
      if (!g->fault && out.cost > g->goo_cost * (1.0 + 1e-9)) {
        report.Fail(g->label + ": plan costs more than GOO's");
      }
      if (g->interval_cost != 0.0 && !CostsMatch(out.cost, g->interval_cost)) {
        report.Fail(g->label + ": exact route misses the interval DP optimum");
      }
      if (!g->have_first) {
        g->have_first = true;
        g->first_cost = out.cost;
      } else if (out.cost != g->first_cost) {
        report.Fail(g->label + ": plan cost changed between rounds");
      }
      if (!warm || g->fault) continue;
      g->samples_ms.push_back(ms);
      g->samples_window.push_back(window);
      window_ms[window] += ms;
      route_ms[out.algorithm].push_back(ms);
      ++route_count[out.algorithm];
      ccp += out.stats.ccp_pairs;
      cost_evaluations += out.stats.cost_evaluations;
      pruned += out.stats.pruned + out.stats.dominated;
      dp_entries += out.stats.dp_entries;
      table_bytes = std::max<uint64_t>(table_bytes, out.stats.table_bytes);
    }
    if (warm) {
      ++rounds;
      window_rounds[window] += 1.0;
    } else {
      warm = true;
      if (!options.trace) report.Set("setup_s", setup_s);
      start = Clock::now();
    }
  }

  // Each graph's time: its median over the windows whose rounds ran
  // fastest on average, the faster half.
  std::vector<double> window_cost;
  for (size_t w = 0; w < window_ms.size(); ++w) {
    window_cost.push_back(window_rounds[w] == 0.0 ? 1e300 : window_ms[w] / window_rounds[w]);
  }
  std::vector<bool> kept(window_ms.size(), false);
  for (size_t w : FasterHalf(window_cost)) kept[w] = true;
  std::vector<double> medians, cost_ratios;
  double total_ms = 0.0;
  for (const auto& g : graphs) {
    if (g->fault) continue;
    std::vector<double> samples;
    for (size_t i = 0; i < g->samples_ms.size(); ++i) {
      if (kept[g->samples_window[i]]) samples.push_back(g->samples_ms[i]);
    }
    medians.push_back(Median(samples));
    for (double ms : g->samples_ms) total_ms += ms;
    cost_ratios.push_back(g->first_cost / g->goo_cost);
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
  const double optimize_ns = total_ms * 1e6;
  report.Set("core.ns_per_ccp_pair", ccp == 0 ? 0.0 : optimize_ns / ccp);
  report.Set("core.ccp_pairs", double(ccp) / rounds);
  report.Set("core.cost_evaluations", double(cost_evaluations) / rounds);
  report.Set("core.pruned_share", ccp == 0 ? 0.0 : double(pruned) / ccp);
  for (const auto& [algo, samples] : route_ms) {
    double sum = 0.0;
    for (double v : samples) sum += v;
    report.Set("core.optimize_ms." + algo, sum / samples.size());
    report.Set("service.routes." + algo, double(route_count[algo]) / rounds);
  }
  report.Set("plan.dp_entries", double(dp_entries) / rounds);
  report.Set("plan.table_bytes", double(table_bytes));
  for (const char* layer : {"plan.extract", "plan.validate", "service.route"}) {
    if (self.count(layer)) report.Set(std::string(layer) + "_us", self.at(layer).MeanUs());
  }
  report.Set("trace.op_p50_us", Percentile(medians, 0.5) * 1e3);
  if (!WriteSpans(options, logs)) report.Fail("could not write the span file");
}

}  // namespace perfbench
