// Shared pieces of the workload benchmark: command-line arguments, the
// result report, order statistics, and the in-memory span recorder of
// the traced mode.
//
// The benchmark drives the library only through its public functions
// and times the calls into each layer from outside. A workload fills a
// Report; main.cpp prints it as the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event file of a traced run
};

// One run's outcome: correctness verdict, operation counts and the
// metrics (end-to-end ones untraced, per-layer ones traced).
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a wrong output; the run then reports correct=false.
  void wrong(const std::string& what);
};

// -- Order statistics ---------------------------------------------------

// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double now_s();  // steady clock, seconds
double peak_rss_mb();

// Runs `setup` `times` times, timing each, and returns the median time.
// The workload keeps the state of the last call.
template <typename F>
double timed_setups(int times, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < times; ++i) {
    double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// Passes in a run: a fixed count, so that every run of the same length
// does the same work (and reaches the same memory high-water mark); the
// rate is set so a run measures about `seconds` on the reference machine.
inline int pass_count(double seconds, double passes_per_second,
                      int min_passes) {
  int n = static_cast<int>(seconds * passes_per_second + 0.5);
  return n > min_passes ? n : min_passes;
}

// Fails the run (std::runtime_error) when a count that must repeat from
// pass to pass moved: the workload's work is no longer fixed.
void require_same(const char* what, std::uint64_t first, std::uint64_t now);

// -- Span recorder (traced mode) ------------------------------------------
//
// Spans are recorded in memory around each call into a layer and written
// as Chrome trace-event JSON when the run ends. A span has a name, a
// start, an end, the span open on the same thread when it began (its
// parent) and an operation id shared by every span of one operation.
// A disabled tracer records nothing and never reads the clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: top level
    std::uint64_t op = 0;
    int tid = 0;
    double t0 = 0.0;  // seconds since the tracer started
    double t1 = 0.0;
    double dur() const { return t1 - t0; }
  };

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* t, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_ = nullptr;
    std::size_t slot_ = 0;
  };

  explicit Tracer(bool on) : on_(on), origin_(now_s()) {}
  // Switches recording on or off between passes (traced runs alternate
  // recorded and unrecorded passes to measure the tracing overhead).
  void set_recording(bool r) { recording_ = r; }
  bool recording() const { return on_ && recording_; }

  Scope span(const char* name, std::uint64_t op = 0) {
    return recording() ? Scope(this, name, op) : Scope();
  }

  // Sum of the durations of spans called `name`, in seconds.
  double total(const std::string& name) const;
  // Durations of the spans called `name`, in seconds.
  std::vector<double> durations(const std::string& name) const;
  // Share of the time of the spans called `op_name` that their direct
  // children cover.
  double coverage(const std::string& op_name) const;

  bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  bool recording_ = true;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// Reports trace.coverage (share of the time of the `op_span` spans that
// their direct children cover) and trace.overhead_pct (median recorded
// pass against the median unrecorded pass of the same traced run).
void report_trace_summary(const Tracer& tr, const char* op_span,
                          const std::vector<double>& recorded_pass_s,
                          const std::vector<double>& plain_pass_s,
                          Report& r);

}  // namespace perfbench
