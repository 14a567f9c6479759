// serve-zipf: a closed loop of PlanService::Serve calls. The client sends
// its next request when the last returns; requests are Zipf-skewed over a
// pool of GenerateTrafficMix templates, and a small share are one-off
// queries that never repeat, so cache writes and the miss path run beside
// the warm hit path.
//
// There is one client, on the main thread: with two, the hit p50 rose by
// about 1 us and the run-to-run spread of the hit tail tripled.
//
// Serve runs on the caller's thread, and the worker pool only serves
// OptimizeBatch, so the service is built with one worker.
//
// The traced run wraps every sampled Serve call in a span and then replays
// the request through the public functions PlanService::OptimizeInternal
// calls, in the same order, each in its own span (Serve has no hook inside).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/workspace.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "cost/model_registry.h"
#include "hypergraph/builder.h"
#include "plan/validate.h"
#include "reference.h"
#include "service/dispatch.h"
#include "service/fingerprint.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/session.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Workload make-up (README.md gives the reasons). The pool size and the
// skew are those of the repository's load harness (bench/load_harness.h,
// bench/loadgen.cc): 24 templates, Zipf s = 1.1.
constexpr int kPoolSize = 24;
constexpr double kZipfSkew = 1.1;
constexpr double kOneOffShare = 0.005;
/// Seed of the generator that lays out the pool's shapes and sizes.
constexpr uint64_t kScheduleSeed = 512;
/// Every kOneOffCheckEvery-th one-off is kept, up to kOneOffChecks of them,
/// and checked against the subset DP after the timed phase.
constexpr uint64_t kOneOffCheckEvery = 8;
constexpr size_t kOneOffChecks = 32;
/// The traced run traces and replays every miss and every kTraceHitEvery-th
/// hit of a client; the other hits are served untraced, which keeps the span
/// store small.
constexpr uint64_t kTraceHitEvery = 128;

dphyp::TrafficMixOptions MixOptions(uint64_t seed) {
  dphyp::TrafficMixOptions mix;
  mix.seed = seed;
  mix.min_relations = 4;
  mix.max_relations = 14;
  mix.distinct_templates = 0;  // every generated query distinct
  return mix;
}

// The pool template at the next Zipf rank. Its shape and size come from
// `schedule`, a generator with a fixed seed that draws them from the traffic
// mix's own distribution, so every run puts the same shapes and sizes at the
// same ranks; `seed` draws the cardinalities and selectivities. The hot set's
// make-up, and with it the hit latency and where its p99 falls, then does not
// swing with the seed.
dphyp::QuerySpec PoolTemplate(uint64_t seed, dphyp::Rng& schedule) {
  const dphyp::TrafficMixOptions defaults;
  const double weights[4] = {defaults.chain_weight, defaults.star_weight,
                             defaults.cycle_weight, defaults.clique_weight};
  double pick = schedule.UniformDouble(0.0, weights[0] + weights[1] + weights[2] + weights[3]);
  int shape = 0;
  while (shape < 3 && pick >= weights[shape]) pick -= weights[shape++];
  dphyp::TrafficMixOptions mix = MixOptions(seed);
  mix.chain_weight = shape == 0;
  mix.star_weight = shape == 1;
  mix.cycle_weight = shape == 2;
  mix.clique_weight = shape == 3;
  const int n = static_cast<int>(schedule.UniformInt(
      mix.min_relations, shape == 3 ? defaults.clique_max_relations : mix.max_relations));
  mix.min_relations = mix.max_relations = mix.clique_max_relations = n;
  return std::move(dphyp::GenerateTrafficMix(1, mix)[0]);
}

struct Template {
  dphyp::QuerySpec spec;
  double reference_cost = 0.0;
  /// The cost of the plan served cold in the set-up.
  double served_cost = 0.0;
};

/// The one-off query of the given index: a fresh stream per one-off, so its
/// query never repeats in the run. Regenerated for the check, so the kept
/// sample holds only the served results.
dphyp::QuerySpec OneOffSpec(uint64_t seed, uint64_t index) {
  return std::move(
      dphyp::GenerateTrafficMix(1, MixOptions(MixSeed(seed, (uint64_t{1} << 40) | index)))[0]);
}

struct CheckedOneOff {
  uint64_t index;
  dphyp::ServiceResult result;
};

/// What is kept of one second of the timed phase.
struct WindowSummary {
  uint64_t requests = 0;
  double hit_p50_us = 0.0, hit_p99_us = 0.0, miss_p50_us = 0.0;
  /// Per pool rank: the median latency, 0 when the rank was not requested.
  std::vector<double> template_p50_us = std::vector<double>(kPoolSize, 0.0);
};

/// The latencies of the second in progress. Only one is live: each second
/// is summarized when it ends, so the bookkeeping stays small and does not
/// grow with the run.
struct Window {
  LatencyHistogram hit_us;
  LatencyHistogram miss_us;
  /// Per pool rank; hits take 0.5 to 530 us, in buckets 2% wide.
  std::vector<LatencyHistogram> template_us =
      std::vector<LatencyHistogram>(kPoolSize, LatencyHistogram(0.5, 1.02, 350));
  uint64_t requests = 0;

  WindowSummary Summary() const {
    WindowSummary out;
    out.requests = requests;
    out.hit_p50_us = hit_us.Percentile(0.5);
    out.hit_p99_us = hit_us.Percentile(0.99);
    out.miss_p50_us = miss_us.Percentile(0.5);
    for (int r = 0; r < kPoolSize; ++r) out.template_p50_us[r] = template_us[r].Percentile(0.5);
    return out;
  }
};

struct ClientLog {
  /// One per second of the timed phase, and one for the partial last second.
  std::vector<WindowSummary> windows;
  std::vector<CheckedOneOff> one_offs;
  SpanLog spans;
  /// The replay's optimizations run here, as the service's run on its
  /// pooled workspaces.
  dphyp::OptimizerWorkspace workspace;
  /// Replayed misses: counters of the replay's own optimization.
  uint64_t ccp_pairs = 0, cost_evaluations = 0, pruned = 0;
  std::map<std::string, std::vector<double>> optimize_ms;
};

void CheckPlan(const dphyp::QuerySpec& spec, const dphyp::ServiceResult& served,
               double reference_cost, const std::string& label, Report& report) {
  if (!served.success) {
    report.Fail(label + ": not served: " + served.error);
    return;
  }
  if (!CostsMatch(served.cost, reference_cost)) {
    report.Fail(label + ": served cost differs from the reference optimum");
  }
  const dphyp::Hypergraph graph = dphyp::BuildHypergraphOrDie(spec);
  dphyp::PlanTree plan = served.result.ExtractPlan(graph);
  auto valid = dphyp::ValidatePlanTree(graph, plan);
  if (!valid.ok()) report.Fail(label + ": invalid plan: " + valid.error().message);
  const Recost recost = RecostPlan(RefGraphFromSpec(spec), plan);
  if (!recost.ok || !CostsMatch(recost.cost, served.cost)) {
    report.Fail(label + ": recomputed C_out differs from the served cost " + recost.error);
  }
}

// Replays one request through the stages PlanService::OptimizeInternal runs,
// each in its own span. A hit replays the lookup against the service's own
// cache, which Serve has just refreshed for this key; a miss probes and
// fills `shadow`, a cache with the service's budget that sees only misses,
// so the insert pays the same eviction work as the service's.
void Replay(dphyp::PlanService& service, dphyp::PlanCache& shadow,
            const dphyp::QuerySpec& spec, bool hit, uint64_t id, ClientLog& log) {
  SpanLog* trace = &log.spans;
  ScopedSpan replay(trace, "service.replay", id);
  auto built = [&] {
    ScopedSpan span(trace, "hypergraph.build", id);
    return dphyp::BuildHypergraph(spec);
  }();
  if (!built.ok()) return;
  const dphyp::Hypergraph& graph = built.value();
  dphyp::CardinalityModelInputs inputs;
  inputs.graph = &graph;
  inputs.spec = &spec;
  inputs.catalog = spec.catalog.get();
  auto model = [&] {
    ScopedSpan span(trace, "cost.model_create", id);
    return dphyp::CreateCardinalityModel(service.options().cardinality_model, inputs);
  }();
  if (!model.ok()) return;
  const dphyp::CardinalityModel& est = *model.value();
  const dphyp::Fingerprint key = [&] {
    ScopedSpan span(trace, "service.fingerprint", id);
    return dphyp::SaltFingerprint(
        dphyp::SaltFingerprint(dphyp::FingerprintHypergraph(graph), est.Fingerprint()),
        service.stats_version());
  }();
  dphyp::CachedPlan cached;
  if (hit) {
    bool found = false;
    {
      ScopedSpan span(trace, "service.cache_lookup", id);
      found = service.cache().Lookup(key, &cached);
    }
    if (!found) return;
    {
      ScopedSpan span(trace, "service.cache_check", id);
      if (!dphyp::PlanConsistentWithGraph(cached, graph, est)) return;
    }
    // Serve hands its materialized result to the caller, who frees it after
    // Serve returns: so is this one, outside the span.
    dphyp::OptimizeResult materialized = [&] {
      ScopedSpan span(trace, "service.materialize", id);
      return dphyp::MaterializePlan(cached);
    }();
    return;
  }
  {
    ScopedSpan span(trace, "service.cache_lookup", id);
    shadow.Lookup(key, &cached);
  }
  dphyp::DispatchPolicy policy = service.options().dispatch;
  policy.parallel_workers_hint = service.options().parallel_threads;
  {
    ScopedSpan span(trace, "service.route", id);
    dphyp::DispatchDecision decision = dphyp::ChooseRoute(graph, policy);
    (void)decision;
  }
  dphyp::OptimizationSession session(&log.workspace);
  dphyp::OptimizationRequest request;
  request.graph = &graph;
  request.estimator = &est;
  request.cost_model = &dphyp::DefaultCostModel();
  request.policy = service.options().dispatch;
  request.options.parallel_threads = service.options().parallel_threads;
  const Clock::time_point t0 = Clock::now();
  auto optimized = [&] {
    ScopedSpan span(trace, "core.optimize", id);
    return session.Optimize(request);
  }();
  const double ms = MillisBetween(t0, Clock::now());
  if (!optimized.ok() || !optimized.value().success) return;
  const dphyp::OptimizeResult& result = optimized.value();
  log.ccp_pairs += result.stats.ccp_pairs;
  log.cost_evaluations += result.stats.cost_evaluations;
  log.pruned += result.stats.pruned + result.stats.dominated;
  log.optimize_ms[result.stats.algorithm].push_back(ms);
  dphyp::CachedPlan serialized = [&] {
    ScopedSpan span(trace, "service.serialize", id);
    return dphyp::SerializePlan(result);
  }();
  dphyp::OptimizeResult materialized = [&] {
    ScopedSpan span(trace, "service.materialize", id);
    return dphyp::MaterializePlan(serialized);
  }();
  ScopedSpan span(trace, "service.cache_insert", id);
  shadow.Insert(key, std::move(serialized));
}

}  // namespace

void RunServeZipf(const Options& options, Report& report) {
  // --- Set-up: inputs, the service, and a warm cache. ---
  std::vector<Template> pool;
  dphyp::Rng schedule(kScheduleSeed);
  for (int rank = 0; rank < kPoolSize; ++rank) {
    pool.push_back({PoolTemplate(MixSeed(options.seed, rank), schedule)});
  }
  // Serialized plan bytes of the pool: a plan over n relations keeps its
  // 2n - 1 DP entries (n leaves, n - 1 joins).
  size_t working_set_bytes = 0;
  for (const Template& t : pool) {
    working_set_bytes += sizeof(dphyp::CachedPlan) +
                         (2 * t.spec.relations.size() - 1) * sizeof(dphyp::PlanEntry);
  }
  dphyp::ServiceOptions service_options;
  service_options.num_threads = 1;
  // The cache gives each shard an equal slice of its byte budget. With a
  // slice the size of the pool's plans, no template is evicted however the
  // seed spreads the keys over the shards; the one-off plans fill the rest
  // and are what gets evicted.
  service_options.cache_byte_budget = service_options.cache_shards * working_set_bytes;
  dphyp::PlanService service(service_options);
  std::vector<dphyp::ServiceResult> first_served;
  for (const Template& t : pool) {
    dphyp::QueryRequest request;
    request.spec = &t.spec;
    first_served.push_back(service.Serve(request));
  }
  if (!options.trace) report.Set("setup_s", SecondsSince(options.process_start));
  const dphyp::ServiceStats warm = service.LifetimeStats();
  if (warm.cache.evictions == 0 && warm.cache.bytes != working_set_bytes) {
    report.Fail("warm cache holds " + std::to_string(warm.cache.bytes) +
                " plan bytes, the pool's plans take " +
                std::to_string(working_set_bytes));
  }

  // --- References, outside the timed phase. ---
  for (size_t i = 0; i < pool.size(); ++i) {
    Template& t = pool[i];
    t.reference_cost = SubsetDpOptimum(RefGraphFromSpec(t.spec));
    t.served_cost = first_served[i].cost;
    CheckPlan(t.spec, first_served[i], t.reference_cost,
              "template " + std::to_string(i) + " first served plan", report);
  }
  first_served.clear();

  // --- Timed phase: one client in a closed loop, on this thread. ---
  const dphyp::ZipfSampler zipf(kPoolSize, kZipfSkew);
  dphyp::PlanCache shadow(service_options.cache_byte_budget);
  ClientLog log;
  log.windows.resize(static_cast<size_t>(options.seconds) + 1);
  Window window;
  size_t window_index = 0;
  if (options.trace) log.spans.Reserve(1 << 20);
  dphyp::Rng rng(MixSeed(options.seed, 1000));
  uint64_t one_offs = 0;
  const Clock::time_point start = Clock::now();
  for (Clock::time_point t1 = start;
       std::chrono::duration<double>(t1 - start).count() < options.seconds;) {
    const uint64_t id = report.attempted++;
    const bool one_off = rng.UniformDouble() < kOneOffShare;
    int rank = -1;
    dphyp::QuerySpec one_off_spec;
    if (one_off) {
      one_off_spec = OneOffSpec(options.seed, one_offs);
    } else {
      rank = zipf.Sample(rng);
    }
    dphyp::QueryRequest request;
    request.spec = one_off ? &one_off_spec : &pool[rank].spec;
    const Clock::time_point t0 = Clock::now();
    dphyp::ServiceResult served = service.Serve(request);
    t1 = Clock::now();
    const double us = MillisBetween(t0, t1) * 1e3;
    if (!served.success) {
      ++report.failed;
      report.Fail("request not served: " + served.error);
      continue;
    }
    const size_t index = std::min<size_t>(
        log.windows.size() - 1,
        static_cast<size_t>(std::chrono::duration<double>(t0 - start).count()));
    if (index != window_index) {
      log.windows[window_index] = window.Summary();
      window = Window();
      window_index = index;
    }
    ++window.requests;
    (served.cache_hit ? window.hit_us : window.miss_us).Add(us);
    if (one_off) {
      if (one_offs % kOneOffCheckEvery == 0 && log.one_offs.size() < kOneOffChecks) {
        log.one_offs.push_back({one_offs, std::move(served)});
      }
      ++one_offs;
    } else {
      window.template_us[rank].Add(us);
      if (!CostsMatch(served.cost, pool[rank].reference_cost)) {
        report.Fail("template " + std::to_string(rank) +
                    ": served cost differs from the reference optimum");
      }
    }
    if (options.trace && (!served.cache_hit || id % kTraceHitEvery == 0)) {
      log.spans.Record("service.serve", id, t0, t1);
      Replay(service, shadow, *request.spec, served.cache_hit, id, log);
    }
  }
  const double wall_s = SecondsSince(start);
  log.windows[window_index] = window.Summary();
  const dphyp::ServiceStats end = service.LifetimeStats();

  // --- Checks and metrics. ---
  for (const CheckedOneOff& o : log.one_offs) {
    const dphyp::QuerySpec spec = OneOffSpec(options.seed, o.index);
    CheckPlan(spec, o.result, SubsetDpOptimum(RefGraphFromSpec(spec)), "one-off", report);
  }
  // Timings over the faster half of the whole seconds (all of the phase
  // when it is shorter than a second).
  const size_t whole_seconds = static_cast<size_t>(options.seconds);
  std::vector<double> seconds_per_request;
  for (size_t w = 0; w < std::max<size_t>(whole_seconds, 1); ++w) {
    seconds_per_request.push_back(1.0 / std::max<uint64_t>(log.windows[w].requests, 1));
  }
  const std::vector<size_t> kept_seconds = FasterHalf(seconds_per_request);
  // A latency percentile: its median over the kept seconds, so that one
  // slow second among them cannot carry the tail.
  auto per_window = [&](double WindowSummary::*latency) {
    std::vector<double> values;
    for (size_t w : kept_seconds) values.push_back(log.windows[w].*latency);
    return Median(values);
  };
  const double kept_s = whole_seconds == 0 ? wall_s : double(kept_seconds.size());
  uint64_t kept_requests = 0;
  for (size_t w : kept_seconds) kept_requests += log.windows[w].requests;
  std::vector<double> template_medians, cost_ratios;
  for (int r = 0; r < kPoolSize; ++r) {
    std::vector<double> values;
    for (size_t w : kept_seconds) {
      const double us = log.windows[w].template_p50_us[r];
      if (us != 0.0) values.push_back(us);
    }
    if (!values.empty()) template_medians.push_back(Median(values) / 1e3);
    // The served plan against the optimum: 1 on correct code.
    cost_ratios.push_back(pool[r].served_cost / pool[r].reference_cost);
  }

  if (!options.trace) {
    double sweep = 0.0;
    for (double m : template_medians) sweep += m;
    report.Set("optimize_ms_geomean", GeoMean(template_medians));
    report.Set("sweep_ms", sweep);
    report.Set("plans_per_s", kept_requests / kept_s);
    report.Set("p50_us", per_window(&WindowSummary::hit_p50_us));
    report.Set("p99_us", per_window(&WindowSummary::hit_p99_us));
    report.Set("miss_p50_ms", per_window(&WindowSummary::miss_p50_us) / 1e3);
    report.Set("plan_cost_geomean", GeoMean(cost_ratios));
    report.Set("peak_rss_mb", PeakRssMb());
    return;
  }

  const std::vector<const SpanLog*> span_logs{&log.spans};
  // Per-layer metrics from the replayed stages. Replay stages are leaf
  // spans, so a stage's duration is its self time.
  auto stage_us = [&](const char* name) { return Median(SpanDurationsUs(span_logs, name)); };
  for (const char* stage :
       {"hypergraph.build", "cost.model_create", "service.fingerprint",
        "service.cache_lookup", "service.cache_check", "service.materialize",
        "service.serialize", "service.cache_insert", "service.route"}) {
    report.Set(std::string(stage) + "_us", stage_us(stage));
  }
  // Serve's own hit latency against the sum of its replayed hit stages, per
  // traced request.
  std::vector<double> serve_hit_us, replay_hit_us;
  const std::vector<Span>& spans = log.spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "service.serve") continue;
    const double serve_us = (spans[i].end_ns - spans[i].start_ns) / 1e3;
    double stages_us = 0.0;
    bool hit = false;
    size_t j = i + 1;
    for (; j < spans.size() && spans[j].id == spans[i].id; ++j) {
      if (std::string(spans[j].name) == "service.cache_check") hit = true;
      if (spans[j].parent >= 0 && std::string(spans[spans[j].parent].name) == "service.replay") {
        stages_us += (spans[j].end_ns - spans[j].start_ns) / 1e3;
      }
    }
    if (hit) {
      serve_hit_us.push_back(serve_us);
      replay_hit_us.push_back(stages_us);
    }
    i = j - 1;
  }
  const double serve_p50 = Median(serve_hit_us);
  const double replay_p50 = Median(replay_hit_us);
  if (replay_p50 > serve_p50 * (1.0 + kHitBound)) {
    report.Fail("replayed hit stages take " + std::to_string(replay_p50) +
                " us at p50, Serve's own hit takes " + std::to_string(serve_p50) +
                " us: the replay does work Serve does not");
  }
  report.Set("service.serve_unattributed_us", serve_p50 - replay_p50);
  report.Set("trace.op_p50_us", per_window(&WindowSummary::hit_p50_us));

  const uint64_t ccp = log.ccp_pairs;
  uint64_t replayed_misses = 0;
  for (const auto& [algo, ms] : log.optimize_ms) replayed_misses += ms.size();
  double optimize_total_ns = 0.0;
  for (double us : SpanDurationsUs(span_logs, "core.optimize")) optimize_total_ns += us * 1e3;
  report.Set("core.ns_per_ccp_pair", ccp == 0 ? 0.0 : optimize_total_ns / ccp);
  if (replayed_misses != 0) {
    report.Set("core.ccp_pairs", double(ccp) / replayed_misses);
    report.Set("core.cost_evaluations", double(log.cost_evaluations) / replayed_misses);
  }
  report.Set("core.pruned_share", ccp == 0 ? 0.0 : double(log.pruned) / ccp);
  for (const auto& [algo, ms] : log.optimize_ms) {
    double sum = 0.0;
    for (double v : ms) sum += v;
    report.Set("core.optimize_ms." + algo, sum / ms.size());
  }
  const uint64_t timed_queries = end.queries - warm.queries;
  report.Set("service.cache_hit_rate",
             timed_queries == 0
                 ? 0.0
                 : double(end.cache_hits - warm.cache_hits) / timed_queries);
  report.Set("service.cache_evictions", double(end.cache.evictions - warm.cache.evictions));
  report.Set("service.cache_bytes", double(end.cache.bytes));
  for (const auto& [algo, count] : end.route_counts) {
    const auto it = warm.route_counts.find(algo);
    report.Set("service.routes." + algo,
               double(count - (it == warm.route_counts.end() ? 0 : it->second)));
  }
  if (!WriteSpans(options, span_logs)) report.Fail("could not write the span file");
}

}  // namespace perfbench
