// The four workloads. Each builds its inputs from Args::seed, times a
// fixed number of whole passes of a fixed set of operations (the count
// sized by Args::seconds, see pass_count), checks every output against
// an oracle computed apart from the code under test and fills the
// report: end-to-end metrics untraced, per-layer metrics (from the
// tracer's spans) traced.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// Setups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

void run_rewrite(const Args& a, Tracer& tr, Report& r);
void run_serve(const Args& a, Tracer& tr, Report& r);
void run_execute(const Args& a, Tracer& tr, Report& r);
void run_attack(const Args& a, Tracer& tr, Report& r);

// Small seeded generator for the benchmark's own choices (input values,
// orders, samples); the library's own Rng stays out of the inputs.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
  }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench
