// execute: calls into obfuscated code from frozen LoadedImages.
//
//   Long calls: the Figure 5 clbg kernels rewritten with ROP1.00 (P1-P3)
//   and their 2VM-IMPlast counterparts, at reduced arguments.
//   Short calls: base64 b64_hash and RandomFuns targets (controls 0 and 5,
//   1- and 2-byte inputs) rewritten with ROP0.05, on seeded inputs; a
//   batch of them follows every long call, so machine drift hits both
//   alike.
//
// cpu/mem/image do nearly all the work. ROP chains dispatch through ret
// and the return-target cache; the VM code is interpreter loops with
// static branches that reach the trace arena and macro-op fusion; every
// short call pays a Memory::clone + cache import and decodes the gadget
// blocks the frozen cache does not hold.
//
// Kernels and arguments are fixed, so the simulated instructions of a
// pass repeat exactly; the seed draws the short calls' inputs and order.
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cpu/cpu.hpp"
#include "engine/engine.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "vmobf/vmobf.hpp"
#include "workload/base64.hpp"
#include "workload/clbg.hpp"
#include "workload/randomfuns.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace raindrop;

constexpr double kRopK = 1.00;       // long calls
constexpr double kShortRopK = 0.05;  // short calls
constexpr std::uint64_t kRopSeed = 7;
constexpr std::uint64_t kVmSeed = 3;
constexpr std::uint64_t kBudget = 2'000'000'000ull;
constexpr std::size_t kInputsPerShortFn = 256;
constexpr int kShortPerBatch = 60;   // short calls after every long call
constexpr double kPassesPerSecond = 0.4;  // a pass takes ~2.5 s
constexpr std::size_t kProbeShortCalls = 2000;  // traced own-Cpu calls

// Reduced arguments per kernel: ROP at roughly a tenth of Figure 5's
// instruction counts, 2VM-IMPlast lower still (its slowdown is larger;
// fannkuch's VM code costs ~30M instructions even at argument 1).
struct KernelArgs {
  const char* name;
  std::int64_t rop_arg;
  std::int64_t vm_arg;
};
constexpr KernelArgs kKernelArgs[] = {
    {"b-trees", 6, 3},      {"fannkuch", 6, 1},   {"fasta", 150, 50},
    {"fasta-redux", 150, 50}, {"mandelbrot", 3, 2}, {"n-body", 300, 5},
    {"pidigits", 24, 12},   {"regex", 120, 20},   {"rev-comp", 150, 25},
    {"sp-norm", 6, 4},
};

// One callable target: a frozen image, the function and the module its
// oracle interprets.
struct Target {
  std::string label;
  const minic::Module* source = nullptr;  // unobfuscated
  std::string fn;
  LoadedImage li;
  std::uint64_t addr = 0;
  std::uint64_t ropdata_bytes = 0;
};

struct LongCall {
  Target t;
  std::int64_t arg = 0;
  bool rop = false;
};

struct State {
  std::vector<workload::ClbgBench> kernels;
  workload::Base64Workload b64;
  std::vector<workload::RandomFun> funs;
  std::vector<LongCall> longs;   // ROP and VM interleaved
  std::vector<Target> shorts;
};


Target make_target(std::string label, const minic::Module* source,
                   std::string fn, Image img, Tracer& tr) {
  Target t;
  t.label = std::move(label);
  t.source = source;
  t.fn = std::move(fn);
  t.addr = img.function(t.fn)->addr;
  t.ropdata_bytes = img.section_bytes(".ropdata").size();
  auto s = tr.span("image.load_shared");
  t.li = img.load_shared();
  return t;
}

Image rop_image(const minic::Module& m, const std::vector<std::string>& fns,
                double k) {
  Image img = minic::compile(m);
  engine::ObfuscationEngine eng(&img, rop::rop_k(k, kRopSeed),
                                std::make_shared<analysis::AnalysisCache>());
  if (eng.obfuscate_module(fns, 1).ok_count != fns.size())
    throw std::runtime_error("ROP rewrite refused a function");
  return img;
}

void build(State& st, Tracer& tr) {
  st = State{};
  st.kernels = workload::clbg_suite();
  for (const KernelArgs& ka : kKernelArgs) {
    const workload::ClbgBench* b = nullptr;
    for (const auto& k : st.kernels)
      if (k.name == ka.name) b = &k;
    if (!b) throw std::runtime_error(std::string("no clbg kernel ") + ka.name);
    LongCall rop{make_target(b->name + "/ROP", &b->module, b->entry,
                             rop_image(b->module, b->obfuscate, kRopK), tr),
                 ka.rop_arg, true};
    minic::Module vm = b->module;
    for (const auto& f : b->obfuscate)
      if (!vmobf::virtualize_layers(vm, f, 2, vmobf::ImpWhere::Last, kVmSeed))
        throw std::runtime_error("virtualize_layers failed on " + f);
    LongCall vmc{make_target(b->name + "/2VM-IMPlast", &b->module, b->entry,
                             minic::compile(vm), tr),
                 ka.vm_arg, false};
    st.longs.push_back(std::move(rop));
    st.longs.push_back(std::move(vmc));
  }
  st.b64 = workload::make_base64(1);
  st.funs.clear();
  for (minic::Type t : {minic::Type::I8, minic::Type::I16})
    for (int control : {0, 5})
      st.funs.push_back(workload::make_random_fun(
          {control, t, 1, /*point_test=*/false, /*probes=*/false}));
  st.shorts.push_back(make_target(
      "b64_hash", &st.b64.module, st.b64.hash_fn,
      rop_image(st.b64.module, {st.b64.hash_fn}, kShortRopK), tr));
  for (const auto& rf : st.funs)
    st.shorts.push_back(make_target(
        "randomfun" + std::to_string(rf.spec.control) + "/" +
            std::to_string(minic::type_size(rf.spec.type)) + "B",
        &rf.module, rf.name, rop_image(rf.module, {rf.name}, kShortRopK), tr));
}

struct ShortObs {
  std::uint32_t fn = 0, input = 0;
  std::uint64_t rax = 0;
};

struct Pass {
  double seconds = 0.0;
  std::uint64_t rop_insns = 0, vm_insns = 0;
  double rop_s = 0.0, vm_s = 0.0;
  std::vector<std::uint64_t> long_rax;
  std::vector<double> short_s;
  std::vector<ShortObs> shorts;
  std::uint64_t failed = 0, attempted = 0;
};

Pass run_pass(const State& st, const std::vector<std::vector<std::uint64_t>>& inputs,
              SeedRng& rng, Tracer& tr) {
  Pass p;
  double t0 = now_s();
  auto ps = tr.span("execute.pass");
  for (const LongCall& lc : st.longs) {
    std::uint64_t arg = static_cast<std::uint64_t>(lc.arg);
    double c0 = now_s();
    CallResult res;
    {
      auto s = tr.span(lc.rop ? "image.call_rop_kernel" : "image.call_vm_kernel");
      res = call_function(lc.t.li, lc.t.addr, {&arg, 1}, kBudget);
    }
    double c1 = now_s();
    ++p.attempted;
    if (res.status != CpuStatus::kHalted) ++p.failed;
    (lc.rop ? p.rop_insns : p.vm_insns) += res.insns;
    (lc.rop ? p.rop_s : p.vm_s) += c1 - c0;
    p.long_rax.push_back(res.rax);
    for (int k = 0; k < kShortPerBatch; ++k) {
      ShortObs o;
      o.fn = static_cast<std::uint32_t>(rng.below(st.shorts.size()));
      o.input = static_cast<std::uint32_t>(rng.below(kInputsPerShortFn));
      const Target& t = st.shorts[o.fn];
      std::uint64_t x = inputs[o.fn][o.input];
      double s0 = now_s();
      {
        auto s = tr.span("image.call_short");
        res = call_function(t.li, t.addr, {&x, 1}, kBudget);
      }
      p.short_s.push_back(now_s() - s0);
      ++p.attempted;
      if (res.status != CpuStatus::kHalted) ++p.failed;
      o.rax = res.rax;
      p.shorts.push_back(o);
    }
  }
  p.seconds = now_s() - t0;
  return p;
}

std::int64_t interp(const minic::Module& m, const std::string& fn,
                    std::int64_t arg) {
  minic::Interp in(m, kBudget);
  minic::InterpResult r = in.call(fn, {&arg, 1});
  if (!r.ok) throw std::runtime_error("interpreter failed on " + fn + ": " + r.error);
  return r.value;
}

// Dispatch counters summed over a set of runs, one Cpu each, reported as
// shares.
struct Shares {
  std::uint64_t insns = 0, dispatches = 0, lowered = 0, chain = 0,
                central = 0, arena = 0, fused = 0;
  void add(const Cpu& cpu) {
    const Cpu::CacheStats& cs = cpu.cache_stats();
    insns += cpu.insn_count();
    dispatches += cs.dispatches;
    lowered += cs.lowered_dispatches;
    chain += cs.chain_hits;
    central += cs.central_dispatches;
    arena += cs.arena_dispatches;
    fused += cs.fused_execs;
  }
  void report(const std::string& prefix, Report& r) const {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    r.metric(prefix + ".lowered_share", ratio(lowered, dispatches), "ratio");
    r.metric(prefix + ".chain_hit_rate", ratio(chain, chain + central), "ratio");
    r.metric(prefix + ".central_share", ratio(central, dispatches), "ratio");
    r.metric(prefix + ".arena_share", ratio(arena, lowered), "ratio");
    r.metric(prefix + ".fused_share", ratio(2.0 * fused, insns), "ratio");
  }
};

// A call the way call_function makes it, on a Cpu the benchmark owns:
// clone the frozen snapshot, import its code cache, set up the ABI frame,
// run. Returns false when the result differs from call_function's.
bool own_call(const Target& t, std::uint64_t arg, const CallResult& want,
              Tracer& tr, Shares* shares, Cpu::CacheStats* stats) {
  std::unique_ptr<Memory> mem;
  std::unique_ptr<Cpu> cpu;
  {
    auto s = tr.span("cpu.setup");
    mem = std::make_unique<Memory>(t.li.mem.clone());
    cpu = std::make_unique<Cpu>(mem.get());
    cpu->import_cache(t.li.cache);
  }
  CpuStatus st;
  {
    auto s = tr.span("cpu.exec");
    cpu->set_reg(isa::Reg::RDI, arg);
    std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
    mem->write_u64(rsp, kHltPad);
    cpu->set_reg(isa::Reg::RSP, rsp);
    cpu->set_rip(t.addr);
    st = cpu->run(kBudget);
  }
  if (shares) shares->add(*cpu);
  if (stats) *stats = cpu->cache_stats();
  return st == want.status && cpu->reg(isa::Reg::RAX) == want.rax &&
         cpu->insn_count() == want.insns;
}

}  // namespace

void run_execute(const Args& a, Tracer& tr, Report& r) {
  SeedRng rng(a.seed);
  State st;
  // Setup: compile, rewrite / virtualize and freeze every image.
  tr.set_recording(a.trace);
  double setup_s = timed_setups(kSetupRepeats, [&] { build(st, tr); });
  tr.set_recording(false);
  std::vector<std::vector<std::uint64_t>> inputs(st.shorts.size());
  for (std::size_t f = 0; f < st.shorts.size(); ++f) {
    // b64_hash reads 6 input bytes; a RandomFuns target its type's width.
    int bytes = f == 0 ? 6 : minic::type_size(st.funs[f - 1].spec.type);
    for (std::size_t i = 0; i < kInputsPerShortFn; ++i)
      inputs[f].push_back(rng.next() & ((1ull << (8 * bytes)) - 1));
  }

  std::vector<Pass> passes;
  std::vector<double> recorded, plain;
  const int n_passes = pass_count(a.seconds, kPassesPerSecond, 2);
  while (static_cast<int>(passes.size()) < n_passes) {
    bool rec = a.trace && passes.size() % 2 == 0;
    tr.set_recording(rec);
    Pass p = run_pass(st, inputs, rng, tr);
    tr.set_recording(false);
    (rec ? recorded : plain).push_back(p.seconds);
    if (!passes.empty()) {
      require_same("ROP simulated insns", passes[0].rop_insns, p.rop_insns);
      require_same("VM simulated insns", passes[0].vm_insns, p.vm_insns);
    }
    r.attempted += p.attempted;
    r.failed += p.failed;
    passes.push_back(std::move(p));
  }

  // Oracles: every call's return value equals minic::Interp on the
  // unobfuscated module.
  std::vector<std::int64_t> long_want;
  for (const LongCall& lc : st.longs)
    long_want.push_back(interp(*lc.t.source, lc.t.fn, lc.arg));
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> short_want;
  auto want_short = [&](const ShortObs& o) {
    auto key = std::make_pair(o.fn, o.input);
    auto it = short_want.find(key);
    if (it == short_want.end()) {
      const Target& t = st.shorts[o.fn];
      std::uint64_t v = static_cast<std::uint64_t>(interp(
          *t.source, t.fn, static_cast<std::int64_t>(inputs[o.fn][o.input])));
      it = short_want.emplace(key, v).first;
    }
    return it->second;
  };
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < st.longs.size(); ++i)
      if (p.long_rax[i] != static_cast<std::uint64_t>(long_want[i]))
        r.wrong(st.longs[i].t.label + " returned a wrong value");
    for (const ShortObs& o : p.shorts)
      if (o.rax != want_short(o))
        r.wrong(st.shorts[o.fn].label + " returned a wrong value");
  }
  {
    const Pass& p = passes.front();
    if ((p.long_rax[0] ^ 1) == static_cast<std::uint64_t>(long_want[0]))
      r.wrong("long-call oracle accepted a flipped return value");
    if ((p.shorts[0].rax ^ 1) == want_short(p.shorts[0]))
      r.wrong("short-call oracle accepted a flipped return value");
  }

  std::vector<double> pass_s, short_s, rop_rate, vm_rate;
  for (const Pass& p : passes) {
    pass_s.push_back(p.seconds);
    short_s.insert(short_s.end(), p.short_s.begin(), p.short_s.end());
    rop_rate.push_back(static_cast<double>(p.rop_insns) / p.rop_s / 1e6);
    vm_rate.push_back(static_cast<double>(p.vm_insns) / p.vm_s / 1e6);
  }
  std::uint64_t ropdata = 0;
  for (const LongCall& lc : st.longs) ropdata += lc.t.ropdata_bytes;
  for (const Target& t : st.shorts) ropdata += t.ropdata_bytes;
  if (!a.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("pass_s", median(pass_s), "s");
    r.metric("op_p50_ms", median(short_s) * 1e3, "ms");
    r.metric("ropdata_kib", static_cast<double>(ropdata) / 1024.0, "KiB");
    return;
  }

  // Per-layer: dispatch shares of the long calls and the per-call cost
  // split of short calls, on Cpus the benchmark drives itself, each
  // checked against call_function's return value and instruction count.
  tr.set_recording(true);
  Shares rop_sh, vm_sh;
  for (const LongCall& lc : st.longs) {
    std::uint64_t arg = static_cast<std::uint64_t>(lc.arg);
    CallResult want = call_function(lc.t.li, lc.t.addr, {&arg, 1}, kBudget);
    if (!own_call(lc.t, arg, want, tr, lc.rop ? &rop_sh : &vm_sh, nullptr))
      r.wrong(lc.t.label + ": own Cpu run differs from call_function");
  }
  std::vector<double> imports, decoded;
  for (std::size_t k = 0; k < kProbeShortCalls; ++k) {
    std::size_t f = k % st.shorts.size();
    std::uint64_t x = inputs[f][k % kInputsPerShortFn];
    CallResult want = call_function(st.shorts[f].li, st.shorts[f].addr, {&x, 1});
    Cpu::CacheStats cs;
    if (!own_call(st.shorts[f], x, want, tr, nullptr, &cs))
      r.wrong(st.shorts[f].label + ": own Cpu run differs from call_function");
    imports.push_back(static_cast<double>(cs.import_hits));
    decoded.push_back(static_cast<double>(cs.blocks_built));
  }
  tr.set_recording(false);

  r.metric("image.load_shared_ms",
           tr.total("image.load_shared") / kSetupRepeats * 1e3, "ms");
  // The long calls' own-Cpu setup/exec spans come first; the per-call
  // figures read the short calls only.
  std::vector<double> setup = tr.durations("cpu.setup");
  std::vector<double> exec = tr.durations("cpu.exec");
  setup.erase(setup.begin(), setup.begin() + static_cast<long>(st.longs.size()));
  exec.erase(exec.begin(), exec.begin() + static_cast<long>(st.longs.size()));
  r.metric("cpu.setup_us", median(setup) * 1e6, "us");
  r.metric("cpu.exec_us", median(exec) * 1e6, "us");
  r.metric("cpu.import_hits", median(imports), "count");
  r.metric("cpu.blocks_built", median(decoded), "count");
  r.metric("cpu.call_p99_us", quantile(short_s, 0.99) * 1e6, "us");
  r.metric("cpu.short_calls", static_cast<double>(short_s.size()), "count");
  r.metric("cpu.rop_minsns_per_s", median(rop_rate), "Minsns/s");
  r.metric("cpu.vm_minsns_per_s", median(vm_rate), "Minsns/s");
  r.metric("cpu.sim_minsns",
           static_cast<double>(passes[0].rop_insns + passes[0].vm_insns) / 1e6,
           "Minsns");
  rop_sh.report("cpu.rop", r);
  vm_sh.report("cpu.vm", r);
  report_trace_summary(tr, "execute.pass", recorded, plain, r);
}

}  // namespace perfbench
