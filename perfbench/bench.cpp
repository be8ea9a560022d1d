#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

void Report::wrong(const std::string& what) {
  if (correct) std::fprintf(stderr, "perfbench: wrong output: %s\n", what.c_str());
  correct = false;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void require_same(const char* what, std::uint64_t first, std::uint64_t now) {
  if (first != now)
    throw std::runtime_error(std::string("deterministic count moved: ") +
                             what + " " + std::to_string(first) + " -> " +
                             std::to_string(now));
}

// -- Tracer ---------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> open_spans;
std::atomic<int> next_tid{1};
int thread_id() {
  thread_local int tid = next_tid.fetch_add(1);
  return tid;
}
}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t op) : t_(t) {
  double t0 = now_s() - t->origin_;
  std::lock_guard<std::mutex> lk(t->mu_);
  Span s;
  s.name = name;
  s.id = t->next_id_++;
  s.parent = open_spans.empty() ? 0 : open_spans.back();
  s.op = op;
  s.tid = thread_id();
  s.t0 = t0;
  slot_ = t->spans_.size();
  open_spans.push_back(s.id);
  t->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  double t1 = now_s() - t_->origin_;
  std::lock_guard<std::mutex> lk(t_->mu_);
  t_->spans_[slot_].t1 = t1;
  open_spans.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.dur());
  return out;
}

double Tracer::coverage(const std::string& op_name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::uint64_t, double> child_time;  // op span id -> children
  double op_time = 0.0;
  for (const Span& s : spans_)
    if (s.name == op_name) {
      child_time[s.id] = 0.0;
      op_time += s.dur();
    }
  double covered = 0.0;
  for (const Span& s : spans_) {
    auto it = child_time.find(s.parent);
    if (it != child_time.end()) covered += s.dur();
  }
  return op_time > 0.0 ? covered / op_time : 0.0;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%llu}}",
                  i ? "," : "", s.name.c_str(), s.tid, s.t0 * 1e6,
                  s.dur() * 1e6, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void report_trace_summary(const Tracer& tr, const char* op_span,
                          const std::vector<double>& recorded_pass_s,
                          const std::vector<double>& plain_pass_s,
                          Report& r) {
  r.metric("trace.coverage", tr.coverage(op_span), "ratio");
  double plain = median(plain_pass_s);
  r.metric("trace.overhead_pct",
           plain > 0.0 ? (median(recorded_pass_s) / plain - 1.0) * 100.0 : 0.0,
           "%");
}

}  // namespace perfbench
