// serve: the streaming ObfuscationService restarted over a persistent
// artifact store. Setup populates a store directory with eight client
// modules, from a child process. The timed phase opens a fresh cache and
// service on that directory; one closed-loop client then submits rounds
// of jobs, one session per job, waiting for each result before taking
// the next job. A round is the eight returning modules three times each
// plus one 10-function module never seen before, in a seeded order.
//
// Returning modules read their analyses, craft memos, harvest layers and
// resolved plans from disk, then from memory; new modules craft cold and
// spill. This is the only workload that reaches the service scheduler
// and the store's disk tier.
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/service.hpp"
#include "minic/codegen.hpp"
#include "store/store.hpp"
#include "workload/corpus.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace raindrop;
namespace fs = std::filesystem;

constexpr int kDistinct = 8;          // returning client modules
constexpr int kRepeatsPerRound = 3;   // each returning module per round
constexpr int kModuleFunctions = 40;
constexpr int kFreshFunctions = 10;   // never-seen module per round
// One client and one craft thread: with two of each, two CPU-bound
// processes alongside on a 4-core host slowed a round by 36%; with one
// job in flight at a time, by 3%.
constexpr int kClients = 1;
constexpr int kCraftThreads = 1;  // the service's shared pool
constexpr double kRoundsPerSecond = 4.5;
constexpr int kMinRounds = 40;          // >= 1000 jobs
constexpr std::size_t kStoreProbeRecords = 256;

// The Table II ROP row at a mid k; one seed per module, so a returning
// module is the same (module, config, seed) job every time.
rop::ObfConfig job_config(std::uint64_t module_seed) {
  rop::ObfConfig c;
  c.seed = 7000 + module_seed;
  c.p1 = true;
  c.p2 = false;
  c.p3_fraction = 0.5;
  c.p3_variant = 1;
  c.gadget_confusion = false;
  return c;
}

struct ClientModule {
  std::uint64_t corpus_seed = 0;
  workload::Corpus corpus;
  Image pristine;
  rop::ObfConfig cfg;
};

ClientModule make_module(std::uint64_t corpus_seed, int functions) {
  ClientModule m;
  m.corpus_seed = corpus_seed;
  m.corpus = workload::make_corpus(corpus_seed, functions);
  m.pristine = minic::compile(m.corpus.module);
  m.cfg = job_config(corpus_seed);
  return m;
}

// Corpus seed of the never-seen module of round `round`.
std::uint64_t fresh_seed(const Args& a, std::size_t round) {
  return 1'000'000 + a.seed * 10'000 + round;
}

std::uint64_t image_digest(const Image& img) {
  std::vector<std::uint8_t> b = img.serialize();
  return analysis::AnalysisCache::hash_bytes(b.data(), b.size());
}

// One job: its input while the round runs, then only what the oracles
// and metrics read (a run keeps thousands of these).
struct JobRecord {
  const ClientModule* module = nullptr;  // valid during its round only
  std::uint64_t module_seed = 0;
  Image img;
  double latency_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t ok_count = 0;
  std::uint64_t ropdata_bytes = 0;
  bool failed = false;
  // Cache, craft-memo and store hits/misses from the job's ModuleResult.
  std::uint64_t ah = 0, am = 0, mh = 0, mm = 0, sh = 0, sm = 0;
};

JobRecord job_for(const ClientModule& m) {
  JobRecord j;
  j.module = &m;
  j.module_seed = m.corpus_seed;
  j.img = m.pristine;
  return j;
}

// Runs one round's jobs through the service with kClients closed-loop
// clients. Returns the round's wall time.
double run_round(engine::ObfuscationService& svc, std::vector<JobRecord>& jobs,
                 Tracer& tr, std::uint64_t op_base) {
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (;;) {
      std::size_t j = next.fetch_add(1);
      if (j >= jobs.size()) return;
      JobRecord& job = jobs[j];
      double t0 = now_s();
      engine::ModuleResult res;
      try {
        auto js = tr.span("serve.job", op_base + j);
        std::shared_ptr<engine::Session> session;
        {
          auto s = tr.span("service.open_session", op_base + j);
          session = svc.open_session(&job.img, job.module->cfg);
        }
        engine::JobHandle h;
        {
          auto s = tr.span("service.submit", op_base + j);
          h = session->submit(job.module->corpus.functions);
        }
        auto s = tr.span("service.wait", op_base + j);
        res = std::move(h).wait();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: serve job failed: %s\n", e.what());
        job.failed = true;
      }
      job.latency_s = now_s() - t0;
      job.failed = job.failed || res.error || res.rejected || res.cancelled;
      job.ok_count = res.ok_count;
      job.digest = image_digest(job.img);
      job.ropdata_bytes = job.img.section_bytes(".ropdata").size();
      job.ah = res.analysis_cache_hits;
      job.am = res.analysis_cache_misses;
      job.mh = res.craft_memo_hits;
      job.mm = res.craft_memo_misses;
      job.sh = res.store_hits;
      job.sm = res.store_misses;
      job.img = Image();
      job.module = nullptr;
    }
  };
  double t0 = now_s();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  return now_s() - t0;
}

// Oracle reference: the job rewritten standalone by obfuscate_module on
// a fresh engine with a private, store-less cache.
struct Reference {
  std::uint64_t digest = 0;
  std::size_t ok_count = 0;
};
Reference standalone(const ClientModule& m, std::uint64_t corrupt_byte = 0) {
  Image img = m.pristine;
  engine::ObfuscationEngine eng(&img, m.cfg,
                                std::make_shared<analysis::AnalysisCache>());
  Reference ref;
  ref.ok_count = eng.obfuscate_module(m.corpus.functions, 1).ok_count;
  if (corrupt_byte) {
    std::uint64_t base = img.section_base(".ropdata");
    img.patch(base, std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>(img.byte_at(base) ^ 0xff)});
  }
  ref.digest = image_digest(img);
  return ref;
}

std::string store_dir(const Args& a, const char* what) {
  return (fs::path(".bench_build") / "tmp" /
          ("serve-" + std::string(what) + "-" + std::to_string(a.seed) + "-" +
           std::to_string(getpid())))
      .string();
}

// Traced mode only: get/put latency on the records the run left behind.
void time_store(const std::string& dir, const std::string& scratch,
                Tracer& tr) {
  auto recs = store::ArtifactStore::scan(dir, false);
  if (recs.size() > kStoreProbeRecords) recs.resize(kStoreProbeRecords);
  store::ArtifactStore src(dir, /*async_spill=*/false);
  store::ArtifactStore dst(scratch, /*async_spill=*/false);
  for (const auto& e : recs) {
    std::optional<std::vector<std::uint8_t>> got;
    {
      auto s = tr.span("store.get");
      got = src.get(e.kind, e.key);
    }
    if (!got) continue;
    auto s = tr.span("store.put");
    dst.put(e.kind, e.key, std::move(*got));
  }
}

// Populates `dir` with one rewrite of each returning module through a
// service of its own, in a child process: the timed service is then a
// restart over a store that another process wrote, and the heap the
// populating service leaves behind (which varies by tens of MB with the
// allocator's per-thread arenas) stays out of the measured peak RSS.
void populate_store(const std::string& dir,
                    const std::vector<ClientModule>& returning) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      auto cache = std::make_shared<analysis::AnalysisCache>();
      engine::ServiceConfig sc;
      sc.craft_threads = kCraftThreads;
      sc.cache = cache;
      sc.store_dir = dir;
      std::vector<Image> imgs;
      for (const ClientModule& m : returning) imgs.push_back(m.pristine);
      {
        engine::ObfuscationService svc(sc);
        std::vector<engine::JobHandle> hs;
        for (std::size_t d = 0; d < returning.size(); ++d)
          hs.push_back(svc.open_session(&imgs[d], returning[d].cfg)
                           ->submit(returning[d].corpus.functions));
        for (auto& h : hs)
          if (h.wait().error) rc = 1;
      }
      cache->store()->flush();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: populating the store failed: %s\n",
                   e.what());
      rc = 1;
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("populating the store failed");
}

}  // namespace

void run_serve(const Args& a, Tracer& tr, Report& r) {
  SeedRng rng(a.seed);
  const std::string dir = store_dir(a, "store");
  std::vector<ClientModule> returning;
  std::error_code ec;

  // Setup: compile the client modules and populate the store with one
  // rewrite of each through a service, in a child process (see
  // populate_store).
  tr.set_recording(false);
  double setup_s = timed_setups(kSetupRepeats, [&] {
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    returning.clear();
    for (int d = 0; d < kDistinct; ++d)
      returning.push_back(make_module(100 + d, kModuleFunctions));
    populate_store(dir, returning);
  });

  // Timed phase: a fresh cache and service on the populated directory.
  std::vector<double> round_s, recorded, plain, latencies;
  std::vector<std::vector<JobRecord>> rounds;
  std::size_t jobs_done = 0;
  engine::ObfuscationService::Stats svc_stats;
  auto cache = std::make_shared<analysis::AnalysisCache>();
  {
    engine::ServiceConfig sc;
    sc.craft_threads = kCraftThreads;
    sc.cache = cache;
    sc.store_dir = dir;
    engine::ObfuscationService svc(sc);
    const int n_rounds = pass_count(a.seconds, kRoundsPerSecond, kMinRounds);
    while (static_cast<int>(rounds.size()) < n_rounds) {
      const ClientModule fresh =
          make_module(fresh_seed(a, rounds.size()), kFreshFunctions);
      std::vector<JobRecord> jobs;
      for (int rep = 0; rep < kRepeatsPerRound; ++rep)
        for (const ClientModule& m : returning) jobs.push_back(job_for(m));
      jobs.push_back(job_for(fresh));
      rng.shuffle(jobs);
      bool rec = a.trace && rounds.size() % 2 == 0;
      tr.set_recording(rec);
      double s = run_round(svc, jobs, tr, jobs_done);
      tr.set_recording(false);
      round_s.push_back(s);
      (rec ? recorded : plain).push_back(s);
      for (const JobRecord& j : jobs) latencies.push_back(j.latency_s);
      jobs_done += jobs.size();
      rounds.push_back(std::move(jobs));
    }
    svc_stats = svc.stats();
  }
  cache->store()->flush();

  // Oracle: every job's image equals its standalone rewrite. Never-seen
  // modules are generated again from their seeds.
  std::map<std::uint64_t, Reference> refs;  // by module seed
  std::map<std::uint64_t, const JobRecord*> served;
  for (const ClientModule& m : returning) refs.emplace(m.corpus_seed, standalone(m));
  for (const auto& jobs : rounds)
    for (const JobRecord& j : jobs) {
      ++r.attempted;
      if (j.failed) {
        ++r.failed;
        continue;
      }
      auto it = refs.find(j.module_seed);
      if (it == refs.end())
        it = refs.emplace(j.module_seed,
                          standalone(make_module(j.module_seed, kFreshFunctions)))
                 .first;
      if (j.digest != it->second.digest || j.ok_count != it->second.ok_count)
        r.wrong("served image differs from its standalone rewrite");
      served[j.module_seed] = &j;
    }
  std::uint64_t returning_ropdata = 0;
  for (const ClientModule& m : returning)
    if (served.count(m.corpus_seed))
      returning_ropdata += served[m.corpus_seed]->ropdata_bytes;
  if (served.count(returning[0].corpus_seed) &&
      standalone(returning[0], /*corrupt_byte=*/1).digest ==
          served[returning[0].corpus_seed]->digest)
    r.wrong("image oracle accepted a corrupted image");

  if (!a.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("pass_s", median(round_s), "s");
    r.metric("op_p50_ms", median(latencies) * 1e3, "ms");
    r.metric("ropdata_kib", static_cast<double>(returning_ropdata) / 1024.0,
             "KiB");
    fs::remove_all(dir, ec);
    return;
  }

  // Per-layer metrics. Cache, memo and store counters come from every
  // job's ModuleResult.
  std::uint64_t ah = 0, am = 0, mh = 0, mm = 0, sh = 0, sm = 0;
  for (const auto& jobs : rounds)
    for (const JobRecord& j : jobs) {
      ah += j.ah;
      am += j.am;
      mh += j.mh;
      mm += j.mm;
      sh += j.sh;
      sm += j.sm;
    }
  auto rate = [](std::uint64_t h, std::uint64_t m) {
    return h + m ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
  };
  r.metric("analysis.cache_hit_rate", rate(ah, am), "ratio");
  r.metric("analysis.craft_memo_hit_rate", rate(mh, mm), "ratio");
  r.metric("store.hit_rate", rate(sh, sm), "ratio");
  r.metric("store.spills_per_round",
           static_cast<double>(svc_stats.store_spills) /
               static_cast<double>(rounds.size()),
           "count");
  r.metric("service.submit_us", median(tr.durations("service.submit")) * 1e6,
           "us");
  r.metric("service.lat_p99_ms", quantile(latencies, 0.99) * 1e3, "ms");
  r.metric("service.jobs", static_cast<double>(latencies.size()), "count");

  // Replay the last round's job sequence through the stage functions on
  // the same warm cache: the stage time a job needs without the service.
  const std::vector<JobRecord>& last = rounds.back();
  std::vector<double> craft, resolve, mat, overhead;
  tr.set_recording(true);
  const ClientModule last_fresh =
      make_module(fresh_seed(a, rounds.size() - 1), kFreshFunctions);
  for (const JobRecord& j : last) {
    const ClientModule* m = &last_fresh;
    for (const ClientModule& x : returning)
      if (x.corpus_seed == j.module_seed) m = &x;
    Image img = m->pristine;
    engine::ObfuscationEngine eng(&img, m->cfg, cache);
    double t0 = now_s();
    engine::CraftedModule cm;
    {
      auto s = tr.span("engine.warm_craft");
      cm = eng.craft_module(m->corpus.functions, kCraftThreads);
    }
    double t1 = now_s();
    engine::ResolvedModule rm;
    {
      auto s = tr.span("engine.warm_resolve");
      rm = eng.resolve_module(std::move(cm), kCraftThreads);
    }
    double t2 = now_s();
    {
      auto s = tr.span("engine.warm_materialize");
      eng.materialize_module(std::move(rm));
    }
    double t3 = now_s();
    craft.push_back(t1 - t0);
    resolve.push_back(t2 - t1);
    mat.push_back(t3 - t2);
    overhead.push_back(j.latency_s - (t3 - t0));
  }
  const std::string scratch = store_dir(a, "probe");
  time_store(dir, scratch, tr);
  tr.set_recording(false);
  fs::remove_all(dir, ec);
  fs::remove_all(scratch, ec);

  r.metric("engine.warm_craft_ms", median(craft) * 1e3, "ms");
  r.metric("engine.warm_resolve_ms", median(resolve) * 1e3, "ms");
  r.metric("engine.warm_materialize_ms", median(mat) * 1e3, "ms");
  r.metric("service.overhead_ms", median(overhead) * 1e3, "ms");
  r.metric("store.get_us", median(tr.durations("store.get")) * 1e6, "us");
  r.metric("store.put_us", median(tr.durations("store.put")) * 1e6, "us");
  report_trace_summary(tr, "serve.job", recorded, plain, r);
}

}  // namespace perfbench
