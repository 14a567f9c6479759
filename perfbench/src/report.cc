#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors "end_to_end" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"optimize_ms_geomean", "ms"},
    {"sweep_ms", "ms"},
    {"plans_per_s", "1/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"miss_p50_ms", "ms"},
    {"plan_cost_geomean", "ratio"},
};

// Mirrors "per_layer" in BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"core.ns_per_ccp_pair", "ns"},
    {"core.ccp_pairs", "count"},
    {"core.cost_evaluations", "count"},
    {"core.pruned_share", "ratio"},
    {"core.optimize_ms.DPhyp", "ms"},
    {"core.optimize_ms.DPccp", "ms"},
    {"core.optimize_ms.DPsub", "ms"},
    {"core.optimize_ms.idp-k", "ms"},
    {"core.optimize_ms.anneal", "ms"},
    {"plan.dp_entries", "count"},
    {"plan.table_bytes", "B"},
    {"plan.extract_us", "us"},
    {"plan.validate_us", "us"},
    {"hypergraph.build_us", "us"},
    {"cost.model_create_us", "us"},
    {"service.fingerprint_us", "us"},
    {"service.cache_lookup_us", "us"},
    {"service.cache_check_us", "us"},
    {"service.materialize_us", "us"},
    {"service.serialize_us", "us"},
    {"service.cache_insert_us", "us"},
    {"service.cache_hit_rate", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.cache_bytes", "B"},
    {"service.route_us", "us"},
    {"service.routes.DPhyp", "count"},
    {"service.routes.DPccp", "count"},
    {"service.routes.DPsub", "count"},
    {"service.routes.idp-k", "count"},
    {"service.routes.anneal", "count"},
    {"service.serve_unattributed_us", "us"},
    {"reorder.derive_us", "us"},
    {"trace.op_p50_us", "us"},
};

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / values.size());
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would not do: it keeps the peak of the process image before exec, the
  // launcher's copy of itself, which is larger than this whole program.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void LatencyHistogram::Add(double us) {
  const int last = static_cast<int>(counts_.size()) - 1;
  int bucket = 0;
  if (us > floor_us_) {
    bucket = static_cast<int>(std::min<double>(last, std::log(us / floor_us_) / log_growth_));
  }
  ++counts_[bucket];
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * count_)));
  uint64_t below = 0;
  size_t bucket = 0;
  for (; bucket + 1 < counts_.size(); ++bucket) {
    if (below + counts_[bucket] >= rank) break;
    below += counts_[bucket];
  }
  // Spread the bucket's samples evenly over its (logarithmic) width.
  const double within =
      counts_[bucket] == 0 ? 0.5 : (rank - below - 0.5) / counts_[bucket];
  return floor_us_ * std::exp((bucket + within) * log_growth_);
}

std::vector<size_t> FasterHalf(const std::vector<double>& cost) {
  std::vector<size_t> order(cost.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost[a] < cost[b]; });
  order.resize((order.size() + 1) / 2);
  return order;
}

void Report::Fail(const std::string& why) {
  // The first failures say what went wrong; a systematic fault would
  // otherwise flood stderr once per operation.
  if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  ++failures_;
}

void Report::Set(const std::string& name, double value) { values_[name] = value; }

void Report::Print() {
  std::vector<std::pair<const MetricDef*, double>> out;
  const MetricDef* begin = traced_ ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = traced_ ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* m = begin; m != end; ++m) {
    auto it = values_.find(m->name);
    if (it == values_.end()) {
      if (!traced_) Fail(std::string("metric not measured: ") + m->name);
      out.emplace_back(m, 0.0);
      continue;
    }
    if (!std::isfinite(it->second) || (!traced_ && it->second <= 0.0)) {
      Fail(std::string("metric out of range: ") + m->name);
    }
    out.emplace_back(m, it->second);
    values_.erase(it);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!traced_) {
      Fail("metric outside the end-to-end list: " + name);
    } else {
      // A route or enumerator the per-layer list does not name yet.
      std::fprintf(stderr, "perfbench: %s is not a per-layer metric; dropped\n",
                   name.c_str());
    }
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", out[i].first->name);
    PrintNumber(out[i].second);
    std::printf(", \"unit\": \"%s\"}", out[i].first->unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int SpanLog::Begin(const char* name, uint64_t id) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({name, id, current_, 0, 0});
  current_ = index;
  // Stamp last, so the bookkeeping above stays outside the span.
  spans_.back().start_ns = Clock::now().time_since_epoch().count();
  return index;
}

void SpanLog::End(int index) {
  const int64_t now = Clock::now().time_since_epoch().count();
  spans_[index].end_ns = now;
  current_ = spans_[index].parent;
}

void SpanLog::Record(const char* name, uint64_t id, Clock::time_point start,
                     Clock::time_point end) {
  spans_.push_back({name, id, current_, start.time_since_epoch().count(),
                    end.time_since_epoch().count()});
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      t.self_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]);
      ++t.count;
    }
  }
  return out;
}

std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const Options& options, const std::vector<const SpanLog*>& logs) {
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  if (ec) return false;
  std::ofstream out(options.trace_dir + "/" + options.workload + ".spans.csv");
  out << "thread,id,name,parent,start_ns,end_ns\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << t << ',' << s.id << ',' << s.name << ',' << s.parent << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
