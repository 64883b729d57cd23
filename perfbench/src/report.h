// Shared plumbing of the benchmark: options, the result object and its JSON
// line, process/thread resource readings, percentile helpers, and the
// in-memory span recorder the traced run uses for layer self times.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch directory for WAL segments and checkpoints (inside the checkout).
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Every failed correctness check, one line each. Empty = correct.
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const { return check_failures.empty(); }
};

// The result as the one-line JSON object the benchmark ends its output with.
std::string render_json(const Result& result);

// Monotonic wall clock in seconds / nanoseconds.
double now_s();
std::int64_t now_ns();
// User+sys CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();
// Peak resident set of the process, MiB.
double peak_rss_mb();

// num / den, or 0 when den is 0.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p);
double median(std::vector<double> values);

// Mean of a registry histogram merged across validators (0 when empty).
double merged_mean(const std::vector<mahimahi::obs::MetricsSnapshot>& dumps,
                   const std::string& name);
std::uint64_t summed_counter(const std::vector<mahimahi::obs::MetricsSnapshot>& dumps,
                             const std::string& name);

// Spans around calls into the program's layers: name, start, end and the
// enclosing span. Single-threaded (one recorder per thread); spans stay in
// memory and are folded into per-name totals at the end of the run.
class SpanRecorder {
 public:
  struct Totals {
    double self_us = 0;  // durations minus the time covered by child spans
    std::uint64_t items = 0;  // work units the spans covered (blocks, txs, ...)
    double self_us_per_item() const { return items == 0 ? 0 : self_us / items; }
  };

  int begin(const char* name);
  void end(int span, std::uint64_t items);
  std::map<std::string, Totals> totals() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t items;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t items = 1)
      : recorder_(recorder), span_(recorder.begin(name)), items_(items) {}
  ~ScopedSpan() { recorder_.end(span_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(std::uint64_t items) { items_ = items; }

 private:
  SpanRecorder& recorder_;
  int span_;
  std::uint64_t items_;
};

// Moves the constructing thread round-robin over every CPU it may run on,
// one every 50 ms, until destroyed; then restores its affinity. The cores of
// a shared host can run at clearly different speeds, so a single-threaded
// measurement that stays on whichever core the scheduler picked inherits
// that core's speed as run-to-run noise. Rotating averages over all cores.
class CoreRotator {
 public:
  CoreRotator();
  ~CoreRotator();
  CoreRotator(const CoreRotator&) = delete;
  CoreRotator& operator=(const CoreRotator&) = delete;

 private:
  void rotate();

  pthread_t target_;
  cpu_set_t allowed_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

// Workload entry points.
Result run_runtime_workload(const Options& options);
Result run_sim_workload(const Options& options);
bool is_runtime_workload(const std::string& name);

}  // namespace perfbench
