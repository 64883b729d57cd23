#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double rusage_cpu_s(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

}  // namespace

std::string render_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // Finite JSON numbers only; every digit the double carries.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + json_escape(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
           json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) - 1;
  return sorted[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double merged_mean(const std::vector<mahimahi::obs::MetricsSnapshot>& dumps,
                   const std::string& name) {
  mahimahi::obs::HistogramSnapshot merged;
  for (const auto& dump : dumps) merged.merge(dump.histogram(name));
  return merged.mean();
}

std::uint64_t summed_counter(const std::vector<mahimahi::obs::MetricsSnapshot>& dumps,
                             const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& dump : dumps) total += dump.counter_value(name);
  return total;
}

int SpanRecorder::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int span, std::uint64_t items) {
  spans_[span].end_ns = now_ns();
  spans_[span].items = items;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[span.parent] += static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    Totals& t = out[span.name];
    t.self_us += us - child_us[i];
    t.items += span.items;
  }
  return out;
}

CoreRotator::CoreRotator() : target_(pthread_self()) {
  CPU_ZERO(&allowed_);
  pthread_getaffinity_np(target_, sizeof(allowed_), &allowed_);
  thread_ = std::thread([this] { rotate(); });
}

CoreRotator::~CoreRotator() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  pthread_setaffinity_np(target_, sizeof(allowed_), &allowed_);
}

void CoreRotator::rotate() {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  std::size_t next = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    pthread_setaffinity_np(target_, sizeof(one), &one);
  }
}

}  // namespace perfbench
