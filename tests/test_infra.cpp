// Infrastructure units: sparse memory (copy-on-write semantics), image
// building/loading, chain materialization, and the gadget pool's
// diversification contract.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "gadgets/catalog.hpp"
#include "gadgets/scanner.hpp"
#include "image/image.hpp"
#include "isa/encode.hpp"
#include "mem/memory.hpp"
#include "rop/chain.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace raindrop {
namespace {

TEST(Memory, ReadWriteRoundTripAllSizes) {
  Memory m;
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    std::uint64_t v = 0x1122334455667788ull &
                      (size == 8 ? ~0ull : ((1ull << (size * 8)) - 1));
    m.write(0x1000, v, size);
    EXPECT_EQ(m.read(0x1000, size), v) << size;
  }
}

TEST(Memory, UnmappedReadsZero) {
  Memory m;
  EXPECT_EQ(m.read_u64(0xdeadbeef000), 0u);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  std::uint64_t addr = Memory::kPageSize - 3;
  m.write_u64(addr, 0x0123456789abcdefull);
  EXPECT_EQ(m.read_u64(addr), 0x0123456789abcdefull);
}

TEST(Memory, CloneIsCopyOnWrite) {
  Memory a;
  a.write_u64(0x100, 42);
  Memory b = a.clone();
  b.write_u64(0x100, 99);
  EXPECT_EQ(a.read_u64(0x100), 42u);
  EXPECT_EQ(b.read_u64(0x100), 99u);
  a.write_u64(0x108, 7);
  EXPECT_EQ(b.read_u64(0x108), 0u);
}

TEST(Memory, PageGenerationsAdvanceOnWrite) {
  Memory m;
  EXPECT_EQ(m.page_gen(0x1000), 0u);  // never-written page
  m.write_u8(0x1000, 1);
  std::uint32_t g1 = m.page_gen(0x1000);
  EXPECT_GT(g1, 0u);
  // Same-page address maps to the same generation counter.
  EXPECT_EQ(m.page_gen(0x1fff), g1);
  // A write to a different page leaves this one's generation alone.
  m.write_u64(0x5000, 7);
  EXPECT_EQ(m.page_gen(0x1000), g1);
  // Any mutation path bumps: scalar writes, bulk writes.
  m.write_u64(0x1008, 9);
  std::uint32_t g2 = m.page_gen(0x1000);
  EXPECT_GT(g2, g1);
  std::vector<std::uint8_t> blob(Memory::kPageSize + 100, 0xab);
  m.write_bytes(0x1800, blob);  // straddles into the next page
  EXPECT_GT(m.page_gen(0x1000), g2);
  EXPECT_GT(m.page_gen(0x2000), 0u);
}

TEST(Memory, PageGenerationsAreCowIsolated) {
  Memory a;
  a.write_u64(0x100, 42);
  std::uint32_t ga = a.page_gen(0x100);
  Memory b = a.clone();
  EXPECT_EQ(b.page_gen(0x100), ga);  // snapshot shared at clone time
  b.write_u64(0x100, 99);
  EXPECT_GT(b.page_gen(0x100), ga);
  EXPECT_EQ(a.page_gen(0x100), ga);  // the source is untouched
}

TEST(ThreadPool, SingleThreadRunsInlineWithoutWorkers) {
  ThreadPool tp(1);
  EXPECT_EQ(tp.thread_count(), 0);  // no workers spawned, no churn
  std::thread::id caller = std::this_thread::get_id();
  bool inline_submit = false;
  tp.submit([&] { inline_submit = std::this_thread::get_id() == caller; });
  EXPECT_TRUE(inline_submit);  // submit() ran before returning
  std::vector<std::size_t> order;
  tp.parallel_for(4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  tp.wait_idle();  // trivially idle; must not deadlock
}

TEST(ThreadPool, MultiThreadCompletesAllTasks) {
  ThreadPool tp(4);
  EXPECT_EQ(tp.thread_count(), 4);
  std::vector<int> hits(64, 0);
  tp.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionAndSurvives) {
  // A throwing body must not bring a worker down (or deadlock the
  // latch): parallel_for captures the first exception, finishes the
  // remaining indices, rethrows on the calling thread, and the pool
  // stays fully usable afterwards.
  ThreadPool tp(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(tp.parallel_for(64,
                               [&](std::size_t i) {
                                 if (i % 7 == 3)
                                   throw std::runtime_error("task boom");
                                 ran.fetch_add(1, std::memory_order_relaxed);
                               }),
               std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool survived: every worker still drains new work.
  std::vector<int> hits(64, 0);
  tp.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  tp.wait_idle();

  // Inline (single-thread) flavour: same contract, immediate propagation.
  ThreadPool inline_tp(1);
  int before = 0;
  EXPECT_THROW(inline_tp.parallel_for(8,
                                      [&](std::size_t i) {
                                        if (i == 2)
                                          throw std::runtime_error("boom");
                                        ++before;
                                      }),
               std::runtime_error);
  EXPECT_EQ(before, 2);  // indices 0,1 ran; 2 threw; 3.. skipped
}

TEST(Memory, RegionsAndPermissions) {
  Memory m;
  m.map_region(0x1000, 0x1000, kPermRX, ".text");
  m.map_region(0x3000, 0x1000, kPermRW, ".data");
  EXPECT_EQ(m.perm_at(0x1800), kPermRX);
  EXPECT_EQ(m.perm_at(0x3800), kPermRW);
  EXPECT_EQ(m.perm_at(0x9999), kPermNone);
  ASSERT_NE(m.region_name(0x1000), nullptr);
  EXPECT_EQ(*m.region_name(0x1000), ".text");
  EXPECT_NE(m.find_region(".data"), nullptr);
}

// Containment lookups run over a start-sorted index (not a linear region
// scan); the index must stay exact across out-of-order appends, gaps,
// boundary addresses, and appends made after earlier lookups -- and an
// overlapping append must fall back to the documented first-mapped-wins
// precedence.
TEST(Memory, RegionLookupIndexExactAcrossAppendsAndOverlap) {
  Memory m;
  m.map_region(0x3000, 0x1000, kPermRX, "c");
  m.map_region(0x1000, 0x1000, kPermRW, "a");
  m.map_region(0x5000, 0x1000, kPermR, "e");
  EXPECT_EQ(m.perm_at(0x1000), kPermRW);   // first byte
  EXPECT_EQ(m.perm_at(0x1fff), kPermRW);   // last byte
  EXPECT_EQ(m.perm_at(0x2000), kPermNone); // gap between a and c
  EXPECT_EQ(m.perm_at(0x2fff), kPermNone);
  ASSERT_NE(m.region_name(0x3fff), nullptr);
  EXPECT_EQ(*m.region_name(0x3fff), "c");
  EXPECT_EQ(m.perm_at(0x4000), kPermNone); // gap between c and e
  EXPECT_EQ(m.perm_at(0x0), kPermNone);    // below every region
  EXPECT_TRUE(m.is_mapped(0x5fff));
  EXPECT_FALSE(m.is_mapped(0x6000));       // above every region

  // Append into a gap after lookups ran: the index must pick it up.
  m.map_region(0x2000, 0x800, kPermW, "b");
  EXPECT_EQ(m.perm_at(0x2400), kPermW);
  EXPECT_EQ(m.perm_at(0x2900), kPermNone);

  // Overlapping append: earlier-mapped regions keep precedence where
  // they cover, and the new region answers only where they do not.
  m.map_region(0x1800, 0x1800, kPermRX, "overlay");  // spans a, b, gap
  EXPECT_EQ(m.perm_at(0x1900), kPermRW);  // still "a" (mapped first)
  EXPECT_EQ(m.perm_at(0x2100), kPermW);   // still "b"
  EXPECT_EQ(m.perm_at(0x2900), kPermRX);  // only the overlay covers this
  ASSERT_NE(m.region_at(0x2900), nullptr);
  EXPECT_EQ(m.region_at(0x2900)->name, "overlay");
}

TEST(Memory, WriteEpochAdvancesOnAnyMutation) {
  Memory m;
  m.map_region(0x1000, 0x2000, kPermRW, "d");
  std::uint64_t e0 = m.write_epoch();
  m.write_u8(0x1000, 1);
  std::uint64_t e1 = m.write_epoch();
  EXPECT_GT(e1, e0);
  (void)m.read_u64(0x1000);
  EXPECT_EQ(m.write_epoch(), e1);  // reads never move the epoch
  m.write_bytes(0x1ff0, std::vector<std::uint8_t>(32, 0xcc));
  EXPECT_GT(m.write_epoch(), e1);  // one bump per page touched
  std::uint64_t e2 = m.write_epoch();
  m.map_region(0x9000, 0x1000, kPermR, "r");
  EXPECT_GT(m.write_epoch(), e2);  // region appends count as mutations
}

TEST(Memory, FreezeLineageAndImmutability) {
  Memory m;
  m.map_region(0x1000, 0x1000, kPermRW, "d");
  m.write_u64(0x1000, 42);
  EXPECT_FALSE(m.frozen());
  EXPECT_EQ(m.lineage(), 0u);  // no frozen ancestor yet

  m.freeze();
  EXPECT_TRUE(m.frozen());
  std::uint64_t id = m.lineage();
  EXPECT_NE(id, 0u);
  m.freeze();                    // idempotent: the id must not change
  EXPECT_EQ(m.lineage(), id);
  EXPECT_THROW(m.write_u64(0x1000, 1), std::logic_error);
  EXPECT_THROW(m.write_bytes(0x1000, std::vector<std::uint8_t>{1}),
               std::logic_error);
  EXPECT_THROW(m.map_region(0x9000, 0x1000, kPermRW, "x"), std::logic_error);
  EXPECT_EQ(m.read_u64(0x1000), 42u);  // reads still fine

  // Clones are writable descendants carrying the ancestor's lineage.
  Memory c = m.clone();
  EXPECT_FALSE(c.frozen());
  EXPECT_EQ(c.lineage(), id);
  c.write_u64(0x1000, 7);
  EXPECT_EQ(c.read_u64(0x1000), 7u);
  EXPECT_EQ(m.read_u64(0x1000), 42u);
  Memory g = c.clone();  // grandchildren keep the same anchor
  EXPECT_EQ(g.lineage(), id);

  // A different frozen snapshot gets a process-unique id.
  Memory other;
  other.map_region(0x1000, 0x1000, kPermRW, "d");
  other.freeze();
  EXPECT_NE(other.lineage(), id);
}

TEST(Memory, ResetToRestoresFrozenBytesAndNeverLowersGenerations) {
  Memory m;
  m.map_region(0x1000, 0x3000, kPermRW, "d");
  m.map_region(0x10000, 0x2000, kPermRW, "stack");
  m.write_u64(0x1000, 42);
  m.write_u64(0x2000, 43);
  m.write_u64(0x3000, 44);
  m.freeze();

  Memory c = m.clone();
  std::uint32_t untouched_gen = c.page_gen(0x3000);
  // Dirty an ancestor page, an absent page (stack), twice each, so the
  // generations they reached are above the ancestor's.
  c.write_u64(0x1000, 7);
  c.write_u64(0x1008, 8);
  c.write_u64(0x10000, 9);
  c.write_u64(0x10ff8, 10);
  c.write_u64(0x2000 - 4, 0xffffffffffffffffull);  // straddles 0x1000/0x2000
  std::uint32_t g1 = c.page_gen(0x1000);
  std::uint32_t g2 = c.page_gen(0x2000);
  std::uint32_t gs = c.page_gen(0x10000);
  EXPECT_GT(g1, m.page_gen(0x1000));
  EXPECT_GT(gs, 0u);
  std::uint64_t e0 = c.write_epoch();

  ASSERT_TRUE(c.reset_to(m));
  EXPECT_EQ(c.read_u64(0x1000), 42u);
  EXPECT_EQ(c.read_u64(0x1008), 0u);
  EXPECT_EQ(c.read_u64(0x2000), 43u);
  EXPECT_EQ(c.read_u64(0x3000), 44u);
  EXPECT_EQ(c.read_u64(0x10000), 0u);  // the ancestor never had the page
  EXPECT_EQ(c.read_u64(0x10ff8), 0u);
  EXPECT_EQ(c.read_bytes(0x1000, 0x3000), m.read_bytes(0x1000, 0x3000));
  EXPECT_GT(c.page_gen(0x1000), g1);  // strictly above, never rolled back
  EXPECT_GT(c.page_gen(0x2000), g2);
  EXPECT_GT(c.page_gen(0x10000), gs);
  EXPECT_EQ(c.page_gen(0x3000), untouched_gen);
  EXPECT_GT(c.write_epoch(), e0);
  EXPECT_EQ(m.read_u64(0x1000), 42u);  // the ancestor is untouched

  // A second round: a restored page is written again, and the next
  // restore still lands above everything the page reached.
  std::uint32_t r1 = c.page_gen(0x1000);
  std::uint32_t rs = c.page_gen(0x10000);
  c.write_u64(0x1000, 99);
  EXPECT_GT(c.page_gen(0x1000), r1);
  std::uint32_t w1 = c.page_gen(0x1000);
  ASSERT_TRUE(c.reset_to(m));
  EXPECT_EQ(c.read_u64(0x1000), 42u);
  EXPECT_GT(c.page_gen(0x1000), w1);
  EXPECT_EQ(c.page_gen(0x10000), rs);  // restored earlier, untouched since
  EXPECT_EQ(c.page_gen(0x3000), untouched_gen);

  // A restored page must not alias the ancestor's storage on write.
  c.write_u64(0x2000, 5);
  EXPECT_EQ(m.read_u64(0x2000), 43u);
  ASSERT_TRUE(c.reset_to(m));

  // Refusals leave the Memory unchanged.
  Memory other;
  other.map_region(0x1000, 0x3000, kPermRW, "d");
  other.map_region(0x10000, 0x2000, kPermRW, "stack");
  other.freeze();
  c.write_u64(0x1000, 1);
  std::uint32_t before = c.page_gen(0x1000);
  EXPECT_FALSE(c.reset_to(other));  // different lineage
  EXPECT_FALSE(c.reset_to(c));      // not a frozen ancestor
  Memory unfrozen;
  EXPECT_FALSE(unfrozen.reset_to(m));
  EXPECT_EQ(c.read_u64(0x1000), 1u);
  EXPECT_EQ(c.page_gen(0x1000), before);

  Memory mapped = m.clone();
  mapped.map_region(0x20000, 0x1000, kPermRW, "late");
  mapped.write_u64(0x1000, 3);
  EXPECT_FALSE(mapped.reset_to(m));  // a region was mapped since the clone
  EXPECT_EQ(mapped.read_u64(0x1000), 3u);

  // Grandchildren descend from the same snapshot and restore to it.
  Memory g = c.clone();
  g.write_u64(0x3000, 2);
  ASSERT_TRUE(g.reset_to(m));
  EXPECT_EQ(g.read_u64(0x1000), 42u);
  EXPECT_EQ(g.read_u64(0x3000), 44u);
}

TEST(Image, AppendPatchAndLoad) {
  Image img;
  std::uint8_t data[] = {1, 2, 3, 4};
  std::uint64_t a = img.append(".data", data);
  EXPECT_EQ(a, kDataBase);
  img.patch_u32(a, 0xaabbccdd);
  EXPECT_EQ(img.byte_at(a), 0xdd);
  std::uint64_t b = img.reserve(".data", 8);
  img.patch_u64(b, 0x1122334455667788ull);
  EXPECT_EQ(img.u64_at(b), 0x1122334455667788ull);
  Memory mem = img.load();
  EXPECT_EQ(mem.read_u64(b), 0x1122334455667788ull);
  EXPECT_TRUE(mem.perm_at(kTextBase) == kPermNone ||
              (mem.perm_at(kTextBase) & kPermX));
}

TEST(Image, FunctionLookup) {
  Image img;
  img.add_function(FunctionSym{"f", 0x400000, 32, false, 2});
  img.add_function(FunctionSym{"g", 0x400020, 16, false, 1});
  EXPECT_EQ(img.function("g")->addr, 0x400020u);
  EXPECT_EQ(img.function_at(0x400025)->name, "g");
  EXPECT_EQ(img.function_at(0x40001f)->name, "f");
  EXPECT_EQ(img.function("missing"), nullptr);
}

TEST(Chain, MaterializeDeltasAndLabels) {
  rop::Chain ch;
  int l1 = ch.new_label(), anchor = ch.new_label();
  ch.g(0x400100);
  ch.delta(l1, anchor, -3);
  ch.g(0x400200);
  ch.bind(anchor);
  ch.imm(7);
  ch.bind(l1);
  ch.g(0x400300);
  auto mat = ch.materialize();
  ASSERT_EQ(mat.bytes.size(), 5u * 8);
  // items: g(8) delta(8) g(8) [anchor] imm(8) [l1] g(8)
  EXPECT_EQ(mat.label_offsets.at(anchor), 24u);
  EXPECT_EQ(mat.label_offsets.at(l1), 32u);
  // delta value = 32 - 24 - 3 = 5
  std::uint64_t delta = 0;
  for (int i = 0; i < 8; ++i)
    delta |= std::uint64_t(mat.bytes[8 + i]) << (8 * i);
  EXPECT_EQ(delta, 5u);
}

TEST(Chain, AbsolutePositionsUseChainBase) {
  rop::Chain ch;
  int l = ch.new_label();
  ch.abs_pos(l);
  ch.bind(l);
  ch.g(0x400100);
  auto mat = ch.materialize(0x3000000);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(mat.bytes[i]) << (8 * i);
  EXPECT_EQ(v, 0x3000000u + 8);
}

TEST(Chain, RawBytesShiftLayout) {
  rop::Chain ch;
  ch.g(0x400100);
  ch.raw({0xaa, 0xbb, 0xcc});
  int l = ch.new_label();
  ch.bind(l);
  ch.imm(1);
  auto mat = ch.materialize();
  EXPECT_EQ(mat.label_offsets.at(l), 11u);
  EXPECT_EQ(mat.bytes.size(), 19u);
}

TEST(Chain, UnboundLabelThrows) {
  rop::Chain ch;
  int l = ch.new_label(), a = ch.new_label();
  ch.delta(l, a);
  ch.bind(a);
  EXPECT_THROW(ch.materialize(), std::runtime_error);
}

TEST(GadgetPool, SynthesizesAndReuses) {
  Image img;
  gadgets::GadgetPool pool(&img, 1, 4);
  std::vector<isa::Insn> core = {isa::ib::pop(isa::Reg::RDI)};
  std::uint64_t a1 = pool.want(core, analysis::RegSet());
  // With no junk allowed, variants are identical cores; the pool may
  // still synthesize a couple for diversity but must stay bounded.
  std::set<std::uint64_t> addrs;
  for (int i = 0; i < 50; ++i) addrs.insert(pool.want(core, analysis::RegSet()));
  EXPECT_LE(addrs.size(), 4u);
  EXPECT_TRUE(addrs.count(a1));
  const gadgets::Gadget* g = pool.at(a1);
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->jop);
}

TEST(GadgetPool, JunkRespectsClobberSet) {
  Image img;
  gadgets::GadgetPool pool(&img, 2, 8);
  std::vector<isa::Insn> core = {isa::ib::mov(isa::Reg::RAX, isa::Reg::RBX)};
  analysis::RegSet allowed;
  allowed.add(isa::Reg::R9);
  for (int i = 0; i < 40; ++i) {
    std::uint64_t a = pool.want(core, allowed);
    const gadgets::Gadget* g = pool.at(a);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->extra_clobbers.minus(allowed).empty());
    for (const auto& insn : g->body) {
      // Junk must never touch flags (mov-only) nor the core registers.
      EXPECT_FALSE(isa::writes_flags(insn.op));
    }
  }
}

TEST(GadgetPool, JopGadgetTerminatesWithJump) {
  Image img;
  gadgets::GadgetPool pool(&img, 3, 4);
  std::vector<isa::Insn> core = {
      isa::ib::xchg_m(isa::Reg::RSP, isa::MemRef::base_disp(isa::Reg::RAX))};
  std::uint64_t a = pool.want_jop(core, isa::Reg::RCX, analysis::RegSet());
  const gadgets::Gadget* g = pool.at(a);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->jop);
  EXPECT_EQ(g->jop_target, isa::Reg::RCX);
}

TEST(GadgetScanner, FindsPlantedGadgets) {
  Image img;
  std::vector<std::uint8_t> bytes;
  isa::encode(isa::ib::pop(isa::Reg::RDI), bytes);
  isa::encode(isa::ib::ret(), bytes);
  isa::encode(isa::ib::add(isa::Reg::RAX, isa::Reg::RBX), bytes);
  isa::encode(isa::ib::ret(), bytes);
  std::uint64_t base = img.append(".text", bytes);
  auto found = gadgets::scan(img, base, base + bytes.size());
  // Both planted gadgets plus suffixes ending at the same rets.
  bool pop_found = false, add_found = false;
  for (auto& g : found) {
    if (g.insns.size() == 1 && g.insns[0].op == isa::Op::POP_R)
      pop_found = true;
    if (g.insns.size() == 1 && g.insns[0].op == isa::Op::ADD_RR)
      add_found = true;
  }
  EXPECT_TRUE(pop_found);
  EXPECT_TRUE(add_found);
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(8);
  int buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[c.below(8)];
  for (int k = 0; k < 8; ++k) EXPECT_GT(buckets[k], 700);
}

}  // namespace
}  // namespace raindrop
