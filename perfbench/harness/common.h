#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark harness: clocks, process resource
// readings, quantiles, the result record printed as the last stdout line,
// and the in-memory span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// User + system CPU time of this process so far.
double ProcessCpuSeconds();

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Writes each set-up's seconds to standard error, for diagnosis.
void LogSetups(const std::vector<double>& setups);

/// 64-bit FNV-1a over answer lines (each followed by '\n'), so a stored
/// fingerprint stands for a whole answer.
uint64_t HashLines(const std::vector<std::string>& lines);

/// Rates of a timed phase over slices that last at least kSliceSeconds
/// and end on round boundaries, so every slice holds whole rounds of the
/// same operations. The result reports the medians of the slice rates: a
/// neighbour's burst that slows a minority of slices does not move them,
/// a change that slows every slice does.
class Slices {
 public:
  static constexpr double kSliceSeconds = 0.5;

  /// At the start of the timed phase, with the operations done so far.
  void Start(uint64_t done);
  /// After each whole round.
  void RoundEnd(uint64_t done);
  /// At the end; closes a last slice if it holds any operation.
  void Finish(uint64_t done);

  double MedianOpsPerSecond() const { return Median(ops_per_s_); }
  double MedianCpuMsPerOp() const { return Median(cpu_ms_per_op_); }
  /// The median over slices of each slice's q-quantile of `values`, where
  /// values[i] belongs to the i-th operation done.
  double MedianQuantile(const std::vector<double>& values, double q) const;
  /// Writes each slice's rate and CPU per operation to standard error, for
  /// diagnosis.
  void LogRates() const;
  size_t count() const { return ops_per_s_.size(); }

 private:
  void Close(uint64_t done);

  Clock::time_point start_{};
  double cpu_ = 0;
  uint64_t done_ = 0;
  std::vector<uint64_t> ends_;  // operations done at the close of each slice
  std::vector<double> ops_per_s_;
  std::vector<double> cpu_ms_per_op_;
};

/// What one invocation was asked to do.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads of a serving workload; 0 = the workload's own count.
  /// For core-scaling measurements by hand; the benchmark never sets it.
  size_t workers = 0;
  /// Scratch directory inside the checkout for generated documents and
  /// the on-disk cache; removed at exit.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_file;
};

/// The result line: correctness, operation counts and named metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;  // why `correct` is false; to stderr

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  void Fail(std::string why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
  std::string Json() const;
};

/// Span recorder of the traced run. Spans are kept in memory (name, start,
/// duration, parent span, request id, units of work) and written out as
/// JSON lines at the end; per-layer metrics are sums over them. A disabled
/// recorder runs the timed callable and records nothing, which is how the
/// untraced half of the overhead comparison is made.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_request(uint64_t id) { request_ = id; }

  /// Runs `fn` inside a span named `name` that did `work` units of work
  /// (nodes, calls, ...).
  template <typename Fn>
  decltype(auto) Time(std::string_view name, double work, Fn&& fn) {
    if (!enabled_) return fn();
    const int id = Open(name);
    struct Closer {
      Trace* trace;
      int id;
      double work;
      ~Closer() { trace->Close(id, work); }
    } closer{this, id, work};
    return fn();
  }

  /// Records a span measured elsewhere (e.g. across a cache hook's
  /// lookup-miss and store callbacks).
  void Record(std::string_view name, Clock::time_point start,
              Clock::time_point end, double work);

  /// Records a count with no duration (states, classes, hits).
  void Count(std::string_view name, double value);

  double TotalNs(std::string_view name) const;
  double TotalWork(std::string_view name) const;
  size_t Spans(std::string_view name) const;
  /// Sum of durations per unit of work, in ns; 0 when no span was recorded.
  double NsPerWork(std::string_view name) const;
  /// Mean of the values recorded with Count; 0 when none was.
  double MeanCount(std::string_view name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t dur_ns = -1;  // -1 while open; counts have dur_ns == 0
    int parent = -1;
    uint64_t request = 0;
    double work = 0;
  };
  int Open(std::string_view name);
  void Close(int id, double work);
  int64_t NsSinceEpoch(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, std::vector<size_t>, std::less<>> by_name_;
};

/// Fills `out` with every per-layer metric, in BENCHMARK.json order, from
/// the spans of `trace` and the values in `extra`, plus the tracing
/// overhead measured by the caller. A layer the workload does not exercise
/// reads 0.
void AddPerLayerMetrics(const Trace& trace,
                        const std::map<std::string, double>& extra,
                        double overhead_pct, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
