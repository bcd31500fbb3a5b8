#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void LogSetups(const std::vector<double>& setups) {
  std::cerr << "set-ups (s):";
  for (double s : setups) std::cerr << " " << s;
  std::cerr << "\n";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t HashLines(const std::vector<std::string>& lines) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const std::string& line : lines) {
    for (char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

void Slices::Start(uint64_t done) {
  start_ = Clock::now();
  cpu_ = ProcessCpuSeconds();
  done_ = done;
  ends_ = {done};
}

void Slices::RoundEnd(uint64_t done) {
  if (SecondsBetween(start_, Clock::now()) >= kSliceSeconds) Close(done);
}

void Slices::Finish(uint64_t done) {
  if (done > done_) Close(done);
}

void Slices::Close(uint64_t done) {
  const Clock::time_point now = Clock::now();
  const double cpu = ProcessCpuSeconds();
  const double ops = static_cast<double>(done - done_);
  if (ops > 0) {
    ops_per_s_.push_back(ops / SecondsBetween(start_, now));
    cpu_ms_per_op_.push_back((cpu - cpu_) * 1e3 / ops);
    ends_.push_back(done);
  }
  start_ = now;
  cpu_ = cpu;
  done_ = done;
}

void Slices::LogRates() const {
  std::cerr << "slices (ops/s, CPU ms/op):";
  for (size_t i = 0; i < ops_per_s_.size(); ++i) {
    std::cerr << " " << ops_per_s_[i] << "/" << cpu_ms_per_op_[i];
  }
  std::cerr << "\n";
}

double Slices::MedianQuantile(const std::vector<double>& values,
                              double q) const {
  std::vector<double> per_slice;
  for (size_t i = 1; i < ends_.size(); ++i) {
    const size_t from = std::min<size_t>(ends_[i - 1], values.size());
    const size_t to = std::min<size_t>(ends_[i], values.size());
    if (from < to) {
      per_slice.push_back(Quantile(
          std::vector<double>(values.begin() + from, values.begin() + to), q));
    }
  }
  return Median(per_slice);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Outcome::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics[i].first)
        << ": {\"value\": " << JsonNumber(metrics[i].second.first)
        << ", \"unit\": " << JsonString(metrics[i].second.second) << "}";
  }
  out << "}}";
  return out.str();
}

int64_t Trace::NsSinceEpoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Trace::Open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_[id].start_ns = NsSinceEpoch(Clock::now());
  return id;
}

void Trace::Close(int id, double work) {
  const int64_t end = NsSinceEpoch(Clock::now());
  Span& span = spans_[id];
  span.dur_ns = end - span.start_ns;
  span.work = work;
  open_.pop_back();
  by_name_[span.name].push_back(static_cast<size_t>(id));
}

void Trace::Record(std::string_view name, Clock::time_point start,
                   Clock::time_point end, double work) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NsSinceEpoch(start);
  span.dur_ns = NsSinceEpoch(end) - span.start_ns;
  span.work = work;
  by_name_[span.name].push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void Trace::Count(std::string_view name, double value) {
  const Clock::time_point now = Clock::now();
  Record(name, now, now, value);
}

double Trace::TotalNs(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0;
  double total = 0;
  for (size_t i : it->second) total += static_cast<double>(spans_[i].dur_ns);
  return total;
}

double Trace::TotalWork(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0;
  double total = 0;
  for (size_t i : it->second) total += spans_[i].work;
  return total;
}

size_t Trace::Spans(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.size();
}

double Trace::NsPerWork(std::string_view name) const {
  const double work = TotalWork(name);
  return work > 0 ? TotalNs(name) / work : 0;
}

double Trace::MeanCount(std::string_view name) const {
  const size_t n = Spans(name);
  return n > 0 ? TotalWork(name) / static_cast<double>(n) : 0;
}

bool Trace::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"dur_ns\": " << s.dur_ns
        << ", \"work\": " << JsonNumber(s.work) << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

// How a per-layer metric is read off the spans of the same name (minus
// the unit suffix): per unit of work, per span, a recorded count, or a
// value the workload measured itself.
enum class Derive { kNsPerWork, kUsPerSpan, kMsPerSpan, kCount, kExtra };

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;
  Derive derive;
};

const LayerMetric kLayerMetrics[] = {
    {"xml.parse_ns_per_node", "ns", "xml.parse", Derive::kNsPerWork},
    {"hedge.dewey_ns_per_node", "ns", "hedge.dewey", Derive::kNsPerWork},
    {"automata.dha_run_ns_per_node", "ns", "automata.dha_run",
     Derive::kNsPerWork},
    {"automata.determinize_ms", "ms", "automata.determinize",
     Derive::kMsPerSpan},
    {"automata.dha_states", "count", "automata.dha_states", Derive::kCount},
    {"hre.compile_us", "us", "hre.compile", Derive::kUsPerSpan},
    {"query.sibling_classes_ns_per_node", "ns", "query.sibling_classes",
     Derive::kNsPerWork},
    {"query.locate_ns_per_node", "ns", "query.locate", Derive::kNsPerWork},
    {"query.located_nodes_ns_per_node", "ns", "query.located_nodes",
     Derive::kNsPerWork},
    {"query.phr_classes", "count", "query.phr_classes", Derive::kCount},
    {"query.parse_us", "us", "query.parse", Derive::kUsPerSpan},
    {"query.compile_phr_ms", "ms", "query.compile_phr", Derive::kMsPerSpan},
    {"query.create_ms", "ms", "query.create", Derive::kMsPerSpan},
    {"cache.lookup_us", "us", "cache.lookup", Derive::kUsPerSpan},
    {"cache.store_us", "us", "cache.store", Derive::kUsPerSpan},
    {"cache.hit_ratio", "ratio", "cache.hit_ratio", Derive::kExtra},
    {"serve.queue_wait_us_p50", "us", "serve.queue_wait_us_p50",
     Derive::kExtra},
    {"serve.request_overhead_us", "us", "serve.request_overhead_us",
     Derive::kExtra},
    {"serve.load_ms", "ms", "serve.load", Derive::kMsPerSpan},
    {"schema.select_output_ms", "ms", "schema.select_output",
     Derive::kMsPerSpan},
    {"schema.delete_output_ms", "ms", "schema.delete_output",
     Derive::kMsPerSpan},
    {"schema.containment_ms", "ms", "schema.containment", Derive::kMsPerSpan},
    {"schema.match_identify_ms", "ms", "schema.match_identify",
     Derive::kMsPerSpan},
    {"schema.sibling_select_output_ms", "ms", "schema.sibling_select_output",
     Derive::kMsPerSpan},
    {"schema.output_states", "count", "schema.output_states", Derive::kCount},
};

}  // namespace

void AddPerLayerMetrics(const Trace& trace,
                        const std::map<std::string, double>& extra,
                        double overhead_pct, Outcome* out) {
  for (const LayerMetric& m : kLayerMetrics) {
    const size_t spans = trace.Spans(m.span);
    double value = 0;
    switch (m.derive) {
      case Derive::kNsPerWork:
        value = trace.NsPerWork(m.span);
        break;
      case Derive::kUsPerSpan:
        value = spans > 0 ? trace.TotalNs(m.span) / spans / 1e3 : 0;
        break;
      case Derive::kMsPerSpan:
        value = spans > 0 ? trace.TotalNs(m.span) / spans / 1e6 : 0;
        break;
      case Derive::kCount:
        value = trace.MeanCount(m.span);
        break;
      case Derive::kExtra: {
        auto it = extra.find(m.span);
        value = it == extra.end() ? 0 : it->second;
        break;
      }
    }
    out->Add(m.name, value, m.unit);
  }
  out->Add("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace perfbench
