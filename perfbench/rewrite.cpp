// rewrite: cold batch rewriting of the coreutils-like corpus under three
// Table II ROPk configurations (P1 + P3 variant 1, §VII-B). Every module
// is compiled afresh and rewritten by a fresh engine with a fresh
// AnalysisCache, driving the three engine stages directly, so no pass
// reuses another's analyses. This is the developer's build: the time
// goes to analysis, craft, gadget harvest/plan and materialize, none to
// the CPU.
//
// The corpus and the configurations are fixed, so the emitted .ropdata
// and the refused-function counts repeat exactly; the seed orders the
// configurations inside each pass and draws the oracle's sample.
#include <array>
#include <memory>

#include "analysis/disasm.hpp"
#include "analysis/liveness.hpp"
#include "analysis/taintreg.hpp"
#include "engine/engine.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "workload/corpus.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace raindrop;

constexpr int kCorpusSize = 300;
constexpr std::uint64_t kCorpusSeed = 1;
constexpr int kCraftThreads = 1;
constexpr std::size_t kOracleSample = 24;  // runnable functions per config
constexpr double kPassesPerSecond = 1.2;    // a pass takes ~0.8 s

struct Config {
  double k;
  std::uint64_t seed;
};
constexpr std::array<Config, 3> kConfigs{{{0.25, 1001}, {0.50, 1002}, {1.00, 1003}}};

// The Table II ROP row (§VII-B): P1 + P3 variant 1 at fraction k, P2 and
// gadget confusion off.
rop::ObfConfig table2_config(const Config& c) {
  rop::ObfConfig o;
  o.seed = c.seed;
  o.p1 = true;
  o.p2 = false;
  o.p3_fraction = c.k;
  o.p3_variant = 1;
  o.gadget_confusion = false;
  return o;
}

// Refused functions per failure class, in the corpus generator's order:
// too short, register pressure, unsupported instruction, CFG incomplete.
using Refused = std::array<int, 4>;

Refused refused_of(const engine::ModuleResult& mr) {
  Refused r{};
  for (const rop::RewriteResult& x : mr.results) {
    switch (x.failure) {
      case rop::RewriteFailure::TooShort: ++r[0]; break;
      case rop::RewriteFailure::RegisterPressure: ++r[1]; break;
      case rop::RewriteFailure::UnsupportedInsn: ++r[2]; break;
      case rop::RewriteFailure::CfgIncomplete: ++r[3]; break;
      case rop::RewriteFailure::None: break;
    }
  }
  return r;
}

// Oracle: the refusals are exactly the populations the generator planted.
bool refusals_match(const workload::Corpus& cp, const Refused& got) {
  return got == Refused{cp.expected_too_short, cp.expected_pressure,
                        cp.expected_unsupported, cp.expected_cfg_fail};
}

struct Rewritten {
  Image img;
  engine::ModuleResult result;
  engine::ObfuscationEngine::Aggregate agg;
  double seconds = 0.0;
};

// One configuration: compile, build the engine (gadget harvest), craft,
// resolve, materialize.
Rewritten rewrite_module(const workload::Corpus& cp, const Config& c, Tracer& tr) {
  Rewritten m;
  double t0 = now_s();
  {
    auto s = tr.span("minic.compile");
    m.img = minic::compile(cp.module);
  }
  std::unique_ptr<engine::ObfuscationEngine> eng;
  {
    auto s = tr.span("gadgets.harvest");
    eng = std::make_unique<engine::ObfuscationEngine>(
        &m.img, table2_config(c), std::make_shared<analysis::AnalysisCache>());
  }
  engine::CraftedModule cm;
  {
    auto s = tr.span("engine.craft");
    cm = eng->craft_module(cp.functions, kCraftThreads);
  }
  engine::ResolvedModule rm;
  {
    auto s = tr.span("engine.resolve");
    rm = eng->resolve_module(std::move(cm), kCraftThreads);
  }
  {
    auto s = tr.span("engine.materialize");
    m.result = eng->materialize_module(std::move(rm));
  }
  m.agg = eng->aggregate();
  {
    auto s = tr.span("engine.teardown");
    eng.reset();
  }
  m.seconds = now_s() - t0;
  return m;
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> module_s;
  std::uint64_t ropdata_bytes = 0;
  std::uint64_t slots = 0, unique = 0;
  std::vector<Refused> refused;  // in kConfigs order
  std::vector<Image> images;     // in kConfigs order
};

Pass run_pass(const workload::Corpus& cp, SeedRng& rng, Tracer& tr) {
  std::vector<std::size_t> order{0, 1, 2};
  rng.shuffle(order);
  Pass p;
  p.refused.resize(kConfigs.size());
  p.images.resize(kConfigs.size());
  double t0 = now_s();
  {
    auto s = tr.span("rewrite.pass");
    for (std::size_t ci : order) {
      Rewritten m = rewrite_module(cp, kConfigs[ci], tr);
      p.module_s.push_back(m.seconds);
      p.ropdata_bytes +=
          m.img.section_end(".ropdata") - m.img.section_base(".ropdata");
      p.slots += m.agg.gadget_slots;
      p.unique += m.agg.unique_gadgets;
      p.refused[ci] = refused_of(m.result);
      p.images[ci] = std::move(m.img);
    }
  }
  p.seconds = now_s() - t0;
  return p;
}

// Oracle: a seeded sample of rewritten runnable functions returns what
// minic::Interp computes on the unobfuscated module.
bool sample_matches(const workload::Corpus& cp, const Image& obf,
                    SeedRng& rng, std::uint64_t flip, std::size_t* checked) {
  std::vector<std::string> names = cp.runnable;
  rng.shuffle(names);
  Memory mem = obf.load();
  *checked = 0;
  for (const std::string& name : names) {
    if (*checked >= kOracleSample) break;
    const FunctionSym* f = obf.function(name);
    if (!f || !f->rop_rewritten) continue;
    std::vector<std::int64_t> iargs(static_cast<std::size_t>(f->arg_count));
    for (auto& x : iargs) x = static_cast<std::int64_t>(rng.below(64));
    minic::Interp in(cp.module);
    minic::InterpResult want = in.call(name, iargs);
    if (!want.ok) continue;  // deliberate traps and budget stops
    std::vector<std::uint64_t> args(iargs.begin(), iargs.end());
    CallResult got = call_function(mem, f->addr, args);
    ++*checked;
    if (got.status != CpuStatus::kHalted ||
        (got.rax ^ flip) != static_cast<std::uint64_t>(want.value))
      return false;
  }
  return *checked == kOracleSample;
}

// Traced mode only: the analysis entry points timed per corpus function
// on a freshly compiled corpus image.
void time_analyses(const workload::Corpus& cp, Tracer& tr) {
  Image img = minic::compile(cp.module);
  for (const std::string& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    analysis::Cfg cfg;
    {
      auto s = tr.span("analysis.cfg");
      cfg = analysis::build_cfg(img, f->addr, f->size);
    }
    {
      auto s = tr.span("analysis.liveness");
      analysis::compute_liveness(cfg, &img);
    }
    {
      auto s = tr.span("analysis.taint");
      analysis::compute_taint(cfg, f->arg_count);
    }
  }
}

}  // namespace

void run_rewrite(const Args& a, Tracer& tr, Report& r) {
  SeedRng rng(a.seed);
  workload::Corpus cp;
  // Setup: generate the corpus and warm the process up with one module
  // rewrite (the first rewrite in a process is the slowest).
  tr.set_recording(false);
  double setup_s = timed_setups(kSetupRepeats, [&] {
    cp = workload::make_corpus(kCorpusSeed, kCorpusSize);
    rewrite_module(cp, kConfigs[0], tr);
  });

  std::vector<Pass> passes;
  std::vector<double> recorded, plain;
  const int n_passes = pass_count(a.seconds, kPassesPerSecond, 2);
  while (static_cast<int>(passes.size()) < n_passes) {
    bool rec = a.trace && passes.size() % 2 == 0;
    tr.set_recording(rec);
    Pass p = run_pass(cp, rng, tr);
    (rec ? recorded : plain).push_back(p.seconds);
    if (!passes.empty()) {
      require_same("ropdata bytes", passes[0].ropdata_bytes, p.ropdata_bytes);
      require_same("gadget slots", passes[0].slots, p.slots);
      require_same("unique gadgets", passes[0].unique, p.unique);
    }
    for (const Refused& x : p.refused)
      if (!refusals_match(cp, x)) r.wrong("refused functions per class");
    r.attempted += cp.functions.size() * kConfigs.size();
    if (!passes.empty()) p.images.clear();  // the oracles read the first
    passes.push_back(std::move(p));
  }
  tr.set_recording(false);

  // Oracles on the first pass's images, then once on a wrong output each.
  const Pass& first = passes.front();
  for (std::size_t ci = 0; ci < kConfigs.size(); ++ci) {
    std::size_t checked = 0;
    SeedRng orng(a.seed * 31 + ci);
    if (!sample_matches(cp, first.images[ci], orng, 0, &checked))
      r.wrong("rewritten function differs from minic::Interp");
  }
  {
    std::size_t checked = 0;
    SeedRng orng(a.seed * 31);
    if (sample_matches(cp, first.images[0], orng, 1, &checked))
      r.wrong("interpreter oracle accepted a flipped return value");
    Refused off = first.refused[0];
    off[0] += 1;
    if (refusals_match(cp, off))
      r.wrong("refusal oracle accepted a wrong count");
  }

  std::vector<double> pass_s, module_s;
  for (const Pass& p : passes) {
    pass_s.push_back(p.seconds);
    module_s.insert(module_s.end(), p.module_s.begin(), p.module_s.end());
  }
  if (!a.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("pass_s", median(pass_s), "s");
    r.metric("op_p50_ms", median(module_s) * 1e3, "ms");
    r.metric("ropdata_kib", static_cast<double>(first.ropdata_bytes) / 1024.0,
             "KiB");
    return;
  }

  tr.set_recording(true);
  time_analyses(cp, tr);
  tr.set_recording(false);
  const double n = static_cast<double>(recorded.size());
  r.metric("minic.compile_ms", tr.total("minic.compile") / n * 1e3, "ms");
  r.metric("gadgets.harvest_ms", tr.total("gadgets.harvest") / n * 1e3, "ms");
  r.metric("gadgets.slots", static_cast<double>(first.slots), "count");
  r.metric("gadgets.unique", static_cast<double>(first.unique), "count");
  r.metric("analysis.cfg_ms", tr.total("analysis.cfg") * 1e3, "ms");
  r.metric("analysis.liveness_ms", tr.total("analysis.liveness") * 1e3, "ms");
  r.metric("analysis.taint_ms", tr.total("analysis.taint") * 1e3, "ms");
  r.metric("engine.craft_s", tr.total("engine.craft") / n, "s");
  r.metric("engine.resolve_s", tr.total("engine.resolve") / n, "s");
  r.metric("engine.materialize_s", tr.total("engine.materialize") / n, "s");
  r.metric("engine.teardown_s", tr.total("engine.teardown") / n, "s");
  report_trace_summary(tr, "rewrite.pass", recorded, plain, r);
}

}  // namespace perfbench
