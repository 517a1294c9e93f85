/**
 * @file
 * Tests for the ISS profiling layer (src/avr/profiler.{hh,cc}): the
 * call-graph profiler must observe identical events whichever backend
 * is selected (an attached sink routes the run through the step()
 * reference path), attribute every cycle and
 * instruction exactly once, keep Chrome-trace begin/end events
 * properly nested, and leave the machine's statistics bit-identical
 * to an unprofiled run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "avr/machine.hh"
#include "avr/profiler.hh"
#include "avrasm/assembler.hh"
#include "avrasm/symbol_table.hh"
#include "avrgen/opf_harness.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/*
 * Three-level nested-call program: main calls outer twice, outer
 * calls inner and leaf, inner calls leaf.  Call counts: outer 2,
 * inner 2, leaf 4.
 */
const char *kNested = R"(
main:   rcall outer
        rcall outer
        ret
outer:  rcall inner
        call  leaf
        ret
inner:  call  leaf
        nop
        ret
leaf:   nop
        nop
        ret
)";

void
expectSameProfile(const CallGraphProfiler &a, const CallGraphProfiler &b)
{
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    auto ib = b.nodes().begin();
    for (const auto &[addr, na] : a.nodes()) {
        const auto &[addr_b, nb] = *ib++;
        ASSERT_EQ(addr, addr_b);
        EXPECT_EQ(na.calls, nb.calls) << a.name(addr);
        EXPECT_EQ(na.inclusiveCycles, nb.inclusiveCycles) << a.name(addr);
        EXPECT_EQ(na.exclusiveCycles, nb.exclusiveCycles) << a.name(addr);
        EXPECT_EQ(na.instructions, nb.instructions) << a.name(addr);
        EXPECT_EQ(na.loads, nb.loads) << a.name(addr);
        EXPECT_EQ(na.stores, nb.stores) << a.name(addr);
        EXPECT_EQ(na.opCount, nb.opCount) << a.name(addr);
        EXPECT_EQ(na.opCycles, nb.opCycles) << a.name(addr);
    }
    EXPECT_EQ(a.traceEvents(), b.traceEvents());
    EXPECT_EQ(a.spLowWater(), b.spLowWater());
    EXPECT_EQ(a.spHighWater(), b.spHighWater());
}

/** Begin/end events must pair up like well-nested parentheses. */
void
expectWellNested(const std::vector<CallGraphProfiler::TraceEvent> &evs)
{
    std::vector<uint32_t> stack;
    uint64_t last_ts = 0;
    for (const auto &e : evs) {
        EXPECT_GE(e.ts, last_ts);
        last_ts = e.ts;
        if (e.begin) {
            stack.push_back(e.addr);
        } else {
            ASSERT_FALSE(stack.empty()) << "end event without begin";
            EXPECT_EQ(stack.back(), e.addr) << "mismatched CALL/RET pair";
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty()) << "unterminated begin events";
}

} // anonymous namespace

TEST(Profiler, NestedCallAttribution)
{
    Program prog = assemble(kNested, "nested");
    SymbolTable syms;
    syms.addProgram("main", prog, 0);

    Machine m(CpuMode::CA);
    m.loadProgram(prog.words);
    CallGraphProfiler prof(m, syms, /*histograms=*/true,
                           /*record_trace=*/true);
    m.call(0);

    EXPECT_EQ(prof.depth(), 0u);
    EXPECT_EQ(prof.spuriousRets(), 0u);

    const auto *main_n = prof.nodeByName("main");
    const auto *outer = prof.nodeByName("main.outer");
    const auto *inner = prof.nodeByName("main.inner");
    const auto *leaf = prof.nodeByName("main.leaf");
    ASSERT_TRUE(main_n && outer && inner && leaf);
    EXPECT_EQ(main_n->calls, 1u);
    EXPECT_EQ(outer->calls, 2u);
    EXPECT_EQ(inner->calls, 2u);
    EXPECT_EQ(leaf->calls, 4u);

    // The program is deterministic, so each leaf call costs the same.
    uint64_t leaf_each = leaf->inclusiveCycles / 4;
    EXPECT_EQ(leaf->inclusiveCycles % 4, 0u);
    EXPECT_EQ(leaf->exclusiveCycles, leaf->inclusiveCycles);
    EXPECT_EQ(inner->exclusiveCycles,
              inner->inclusiveCycles - 2 * leaf_each);
    EXPECT_EQ(outer->exclusiveCycles,
              outer->inclusiveCycles - inner->inclusiveCycles -
                  2 * leaf_each);
    EXPECT_EQ(main_n->exclusiveCycles,
              main_n->inclusiveCycles - outer->inclusiveCycles);

    // Every cycle and instruction is attributed to exactly one node,
    // and the synthetic top-level frame spans the whole run.
    uint64_t excl_sum = 0, inst_sum = 0;
    for (const auto &[addr, n] : prof.nodes()) {
        excl_sum += n.exclusiveCycles;
        inst_sum += n.instructions;
    }
    EXPECT_EQ(excl_sum, m.stats().cycles);
    EXPECT_EQ(inst_sum, m.stats().instructions);
    EXPECT_EQ(main_n->inclusiveCycles, m.stats().cycles);

    // 9 events: 1 synthetic + 8 real calls, each with a matching end.
    EXPECT_EQ(prof.traceEvents().size(), 18u);
    expectWellNested(prof.traceEvents());

    // Stack: sentinel + 3 nesting levels of 2-byte return addresses,
    // with the high mark sampled after the final RET pops everything.
    EXPECT_EQ(prof.stackHighWaterBytes(), 8u);
}

TEST(Profiler, FastAndReferencePathsObserveIdenticalEvents)
{
    Program prog = assemble(kNested, "nested");
    SymbolTable syms;
    syms.addProgram("main", prog, 0);

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Machine fast(mode), ref(mode);
        fast.loadProgram(prog.words);
        ref.loadProgram(prog.words);
        ref.setBackend(IssBackend::Reference);
        CallGraphProfiler pf(fast, syms, true, true);
        CallGraphProfiler pr(ref, syms, true, true);
        fast.call(0);
        ref.call(0);
        expectSameProfile(pf, pr);
    }
}

/*
 * The OPF field routines (including the MAC-ISE multiplication and
 * the subroutine-heavy inversion) must profile identically on both
 * execution paths across field sizes.
 */
class ProfilerOpfEquivalence : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ProfilerOpfEquivalence, MulAndInvProfileIdentically)
{
    const unsigned k = GetParam();
    OpfPrime prime = makeOpf(0xff4c, k);
    OpfField field(prime);
    Rng rng(k);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        OpfAvrLibrary lib(prime, mode);

        lib.machine().setBackend(IssBackend::Superblock);
        lib.machine().resetStats();
        CallGraphProfiler pf(lib.machine(), lib.symbols(), true, true);
        lib.mul(a, b);
        lib.inv(a);
        lib.machine().setProfiler(nullptr);

        lib.machine().setBackend(IssBackend::Reference);
        lib.machine().resetStats();
        CallGraphProfiler pr(lib.machine(), lib.symbols(), true, true);
        lib.mul(a, b);
        lib.inv(a);
        lib.machine().setProfiler(nullptr);

        expectSameProfile(pf, pr);
        expectWellNested(pf.traceEvents());

        // Attribution is complete: per-node sums equal the machine's
        // global statistics for the profiled (reference) run.
        uint64_t excl_sum = 0, inst_sum = 0;
        for (const auto &[addr, n] : pr.nodes()) {
            excl_sum += n.exclusiveCycles;
            inst_sum += n.instructions;
        }
        EXPECT_EQ(excl_sum, lib.machine().stats().cycles);
        EXPECT_EQ(inst_sum, lib.machine().stats().instructions);
    }
}

INSTANTIATE_TEST_SUITE_P(FieldSizes, ProfilerOpfEquivalence,
                         ::testing::Values(144u, 176u, 240u));

/*
 * Attaching (and detaching) a sink must not perturb execution: the
 * machine statistics of a profiled run are bit-identical to an
 * unprofiled run of the same workload.
 */
TEST(Profiler, SinkDoesNotPerturbExecution)
{
    OpfPrime prime = paperOpfPrime();
    OpfField field(prime);
    Rng rng(42);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    OpfAvrLibrary plain(prime, CpuMode::ISE);
    plain.machine().resetStats();
    OpfRun r0 = plain.mul(a, b);

    OpfAvrLibrary profiled(prime, CpuMode::ISE);
    CallGraphProfiler prof(profiled.machine(), profiled.symbols(), true,
                           true);
    profiled.machine().resetStats();
    OpfRun r1 = profiled.mul(a, b);

    EXPECT_EQ(r0.result, r1.result);
    EXPECT_EQ(r0.cycles, r1.cycles);
    const ExecStats &s0 = plain.machine().stats();
    const ExecStats &s1 = profiled.machine().stats();
    EXPECT_EQ(s0.instructions, s1.instructions);
    EXPECT_EQ(s0.cycles, s1.cycles);
    EXPECT_EQ(s0.macStallNops, s1.macStallNops);
    EXPECT_EQ(s0.opCount, s1.opCount);
    EXPECT_EQ(s0.opCycles, s1.opCycles);

    // And the profiler saw everything the statistics saw.
    const auto *mul = prof.nodeByName("opf_mul");
    ASSERT_TRUE(mul);
    EXPECT_EQ(mul->instructions, s1.instructions);
    EXPECT_EQ(mul->inclusiveCycles, s1.cycles);
    EXPECT_EQ(mul->count(Op::NOP), s1.macStallNops);
}

TEST(Profiler, TraceSinkFormatIdenticalOnBothPaths)
{
    Program prog = assemble("ldi r16, 0x2a\nnop\nret\n", "t");

    auto capture = [&](bool reference) {
        std::FILE *f = std::tmpfile();
        Machine m(CpuMode::CA);
        m.loadProgram(prog.words);
        m.setBackend(reference ? IssBackend::Reference
                               : IssBackend::Superblock);
        TraceSink sink(f);
        m.setProfiler(&sink);
        m.call(0);
        m.setProfiler(nullptr);
        std::string out;
        std::rewind(f);
        char buf[256];
        while (std::fgets(buf, sizeof buf, f))
            out += buf;
        std::fclose(f);
        return out;
    };

    std::string fast = capture(false);
    std::string ref = capture(true);
    EXPECT_EQ(fast, ref);
    EXPECT_NE(fast.find("     0  0000: ldi r16, 0x2a"),
              std::string::npos);
    EXPECT_NE(fast.find("nop"), std::string::npos);
    EXPECT_NE(fast.find("ret"), std::string::npos);
}

/* The legacy trace flag still produces `info: `-prefixed stderr. */
TEST(Profiler, LegacyTraceFlagPrintsToStderr)
{
    Machine m(CpuMode::CA);
    m.loadProgram(assemble("nop\nret\n", "t").words);
    m.trace = true;
    testing::internal::CaptureStderr();
    m.call(0);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("info:      0  0000: nop"), std::string::npos);
    EXPECT_NE(err.find("ret"), std::string::npos);
}

/* Structured export: JSON-lines records and a nested Chrome trace. */
TEST(Profiler, ExportsParseAndNest)
{
    Program prog = assemble(kNested, "nested");
    SymbolTable syms;
    syms.addProgram("main", prog, 0);
    Machine m(CpuMode::CA);
    m.loadProgram(prog.words);
    CallGraphProfiler prof(m, syms, true, true);
    m.call(0);

    std::string report = prof.textReport();
    EXPECT_NE(report.find("main.leaf"), std::string::npos);
    EXPECT_NE(report.find("routine"), std::string::npos);

    std::string dir = ::testing::TempDir();
    std::string jl = dir + "/prof.json";
    std::string ct = dir + "/trace.json";
    std::remove(jl.c_str());
    ASSERT_TRUE(prof.writeJsonLines(jl, "test", "nested"));
    ASSERT_TRUE(prof.writeChromeTrace(ct));

    // Spot-check the emitted documents without a JSON parser: every
    // profile line is one {...} object, and the trace pairs B/E phases.
    std::FILE *f = std::fopen(jl.c_str(), "r");
    ASSERT_TRUE(f);
    char buf[1024];
    int lines = 0;
    while (std::fgets(buf, sizeof buf, f)) {
        std::string line(buf);
        EXPECT_EQ(line.front(), '{');
        EXPECT_NE(line.find("\"symbol\""), std::string::npos);
        lines++;
    }
    std::fclose(f);
    EXPECT_EQ(lines, 4); // main, outer, inner, leaf

    f = std::fopen(ct.c_str(), "r");
    ASSERT_TRUE(f);
    std::string doc;
    while (std::fgets(buf, sizeof buf, f))
        doc += buf;
    std::fclose(f);
    size_t begins = 0, ends = 0, pos = 0;
    while ((pos = doc.find("\"ph\":\"B\"", pos)) != std::string::npos)
        begins++, pos++;
    pos = 0;
    while ((pos = doc.find("\"ph\":\"E\"", pos)) != std::string::npos)
        ends++, pos++;
    EXPECT_EQ(begins, 9u);
    EXPECT_EQ(begins, ends);
}
