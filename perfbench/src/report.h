// Shared pieces of the benchmark program: command-line options, sample
// statistics, the per-run report and its JSON line, and the span recorder of
// the traced run.
#ifndef DPHYP_PERFBENCH_REPORT_H_
#define DPHYP_PERFBENCH_REPORT_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (one CSV per workload).
  std::string trace_dir = ".bench_build/traces";
  /// Taken at the top of main: set-up time counts from here.
  Clock::time_point process_start;
};

/// Mirrors the bound of `p50_us` in BENCHMARK.json, as the metric lists in
/// report.cc mirror its names: the traced serve-zipf run fails when its
/// replayed hit stages sum to more than Serve's own hit latency by more than
/// this share.
constexpr double kHitBound = 0.25;

double MillisBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point t);

/// Mixes the run's seed with a stream index (splitmix64), so each generated
/// input draws from its own stream.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);
double PeakRssMb();

/// Latency histogram with logarithmic buckets: fixed memory however long the
/// run. The default buckets are 1% wide, from 0.01 us to about 100 s.
class LatencyHistogram {
 public:
  LatencyHistogram(double floor_us = 0.01, double growth = 1.01, int buckets = 2400)
      : floor_us_(floor_us), log_growth_(std::log(growth)), counts_(buckets, 0) {}
  void Add(double us);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile (p in [0, 1]), interpolated within its
  /// bucket; 0 when empty.
  double Percentile(double p) const;

 private:
  double floor_us_;
  double log_growth_;
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

/// A shared machine's speed can swing by tens of percent within seconds
/// under other tenants' load. A timed phase is therefore cut into windows (a
/// fig-exact pass; one second of frontier-wide rounds or of serve-zipf
/// requests), and its timings are taken over the faster half of the
/// windows. Returns the indices of the ceil(n/2) windows of lowest `cost`.
std::vector<size_t> FasterHalf(const std::vector<double>& cost);

/// One run's outcome. The metric names a run may set are fixed: the
/// end-to-end list (untraced runs) and the per-layer list (traced runs),
/// mirrored by BENCHMARK.json. Print() emits every metric of its list; a
/// per-layer metric that the workload never set reads 0, since that layer
/// did no work on this workload.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// A correctness failure: logged to stderr, and the run reports
  /// `correct: false`.
  void Fail(const std::string& why);
  bool correct() const { return failures_ == 0; }

  void Set(const std::string& name, double value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints the result object as the last line of standard output.
  void Print();

 private:
  bool traced_;
  int failures_ = 0;
  std::map<std::string, double> values_;
};

/// One timed interval of the traced run, recorded around a call into the
/// library. Spans of one graph or request share `id`; `parent` indexes the
/// enclosing span in the same log (-1 for none).
struct Span {
  const char* name;
  uint64_t id;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-thread span store: spans stay in memory until the run ends.
class SpanLog {
 public:
  int Begin(const char* name, uint64_t id);
  void End(int index);
  /// Adds a span timed by the caller, as a child of the open span.
  void Record(const char* name, uint64_t id, Clock::time_point start,
              Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// Records a span for its scope when `log` is non-null (the traced run);
/// does nothing otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id)
      : log_(log), index_(log != nullptr ? log->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Self time per span name (duration minus the time its child spans cover)
/// and the number of spans, summed over `logs`.
struct LayerTime {
  double self_ns = 0.0;
  uint64_t count = 0;
  double MeanUs() const { return count == 0 ? 0.0 : self_ns / count / 1e3; }
};
std::map<std::string, LayerTime> SelfTimes(const std::vector<const SpanLog*>& logs);

/// Durations in microseconds of every span named `name`.
std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    const std::string& name);

/// Writes every span as CSV (thread,id,name,parent,start_ns,end_ns) to
/// `<dir>/<workload>.spans.csv`. Returns false on I/O failure.
bool WriteSpans(const Options& options, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // DPHYP_PERFBENCH_REPORT_H_
