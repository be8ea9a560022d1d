// perfbench: one workload of the benchmark per process.
//
//   perfbench --workload <rewrite|serve|execute|attack> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics and, with
// --trace-out, write the spans as Chrome trace-event JSON. Exits 1 (and
// prints no result) when the run itself breaks down.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rewrite|serve|execute|attack> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

void print_result(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Report::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--trace-out") a.trace_path = v;
    else return usage();
  }
  if (a.seconds <= 0.0) return usage();

  Tracer tracer(a.trace);
  Report report;
  try {
    if (a.workload == "rewrite") run_rewrite(a, tracer, report);
    else if (a.workload == "serve") run_serve(a, tracer, report);
    else if (a.workload == "execute") run_execute(a, tracer, report);
    else if (a.workload == "attack") run_attack(a, tracer, report);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n",
                 a.workload.c_str(), e.what());
    return 1;
  }
  if (a.trace && !a.trace_path.empty() && !tracer.write_chrome(a.trace_path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_path.c_str());
  std::fflush(stderr);
  print_result(report);
  return 0;
}
