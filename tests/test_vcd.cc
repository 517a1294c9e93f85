/**
 * @file
 * VCD waveform writer tests: an attached-but-idle writer adds exactly
 * zero cycles on both backends (mirroring
 * DebugHookAddsZeroCyclesWhenNotStopping for the WaveSink observer),
 * recording does not perturb timing, emitted dumps parse back
 * (header, declarations, change records), are cycle-accurate and
 * byte-identical across identical runs, and trap/call-depth events
 * land on the right wires. Also covers Machine::publishMetrics(),
 * which shares the retired-statistics plumbing.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "avr/machine.hh"
#include "avr/vcd.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/metrics.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

void
expectSameState(const Machine &a, const Machine &b)
{
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(a.reg(i), b.reg(i)) << "r" << i;
    EXPECT_EQ(a.sreg(), b.sreg());
    EXPECT_EQ(a.sp(), b.sp());
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.mac().totalMacs(), b.mac().totalMacs());
}

/** One parsed value change: (time, signal name, bit string). */
struct VcdChange
{
    uint64_t time;
    std::string name;
    std::string bits;
};

struct VcdData
{
    std::map<std::string, unsigned> widths; ///< by signal name
    std::vector<VcdChange> changes;         ///< includes $dumpvars
    uint64_t finalTime = 0;

    /** Last value of @p name at or before the end, as an integer. */
    uint64_t
    lastValue(const std::string &name) const
    {
        uint64_t v = 0;
        for (const VcdChange &c : changes)
            if (c.name == name)
                v = std::stoull(c.bits, nullptr, 2);
        return v;
    }

    uint64_t
    maxValue(const std::string &name) const
    {
        uint64_t best = 0;
        for (const VcdChange &c : changes)
            if (c.name == name)
                best = std::max<uint64_t>(
                    best, std::stoull(c.bits, nullptr, 2));
        return best;
    }
};

/** Minimal VCD reader for what VcdWriter emits; fails the test on
 *  undeclared identifiers, bad values or time going backwards.
 *  (void return so gtest's fatal ASSERT macros are usable.) */
void
parseVcd(const std::string &path, VcdData &out)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::map<char, std::string> byId;
    std::string line;
    uint64_t now = 0;
    bool sawTimescale = false, sawEnd = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line.rfind("$var", 0) == 0) {
            std::istringstream tok(line);
            std::string var, wire, id, name, end;
            unsigned width;
            tok >> var >> wire >> width >> id >> name >> end;
            EXPECT_EQ(wire, "wire");
            EXPECT_EQ(end, "$end");
            ASSERT_EQ(id.size(), 1u);
            EXPECT_EQ(byId.count(id[0]), 0u) << "duplicate id";
            byId[id[0]] = name;
            out.widths[name] = width;
            continue;
        }
        if (line.rfind("$timescale", 0) == 0) {
            sawTimescale = true;
            continue;
        }
        if (line.rfind("$enddefinitions", 0) == 0) {
            sawEnd = true;
            continue;
        }
        if (line[0] == '$') // $comment/$scope/$upscope/$dumpvars/$end
            continue;
        if (line[0] == '#') {
            uint64_t t = std::stoull(line.substr(1));
            EXPECT_GE(t, now) << "time went backwards";
            now = t;
            out.finalTime = t;
            continue;
        }
        ASSERT_TRUE(sawEnd) << "value change before $enddefinitions";
        std::string bits;
        char id;
        if (line[0] == 'b') {
            size_t sp = line.find(' ');
            ASSERT_NE(sp, std::string::npos) << line;
            ASSERT_EQ(line.size(), sp + 2) << line;
            bits = line.substr(1, sp - 1);
            id = line[sp + 1];
        } else {
            ASSERT_EQ(line.size(), 2u) << line;
            ASSERT_TRUE(line[0] == '0' || line[0] == '1') << line;
            bits = line.substr(0, 1);
            id = line[1];
        }
        ASSERT_TRUE(byId.count(id)) << "undeclared id " << id;
        const std::string &name = byId[id];
        ASSERT_LE(bits.size(), out.widths[name]);
        for (char b : bits)
            ASSERT_TRUE(b == '0' || b == '1') << line;
        out.changes.push_back({now, name, bits});
    }
    EXPECT_TRUE(sawTimescale);
    EXPECT_TRUE(sawEnd);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "/" + leaf;
}

} // anonymous namespace

/*
 * The WaveSink pinning contract: a VcdWriter that is attached but not
 * recording must leave both backends (all modes, superblock and
 * reference, profiled or not) with bit-identical results, cycles
 * and architectural state — the same discipline
 * DebugHookAddsZeroCyclesWhenNotStopping pins for the debug hook.
 */
TEST(Vcd, AttachedButIdleAddsZeroCycles)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x5cd);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        for (bool reference : {false, true}) {
            OpfAvrLibrary base(prime, mode);
            base.machine().setBackend(reference ? IssBackend::Reference
                                                : IssBackend::Superblock);
            OpfRun r0 = base.mul(a, b);

            OpfAvrLibrary idle(prime, mode);
            idle.machine().setBackend(reference ? IssBackend::Reference
                                                : IssBackend::Superblock);
            VcdWriter vcd; // attached, never opened
            idle.machine().setWaveSink(&vcd);
            EXPECT_FALSE(vcd.active());
            OpfRun r1 = idle.mul(a, b);
            EXPECT_EQ(r1.result, r0.result);
            EXPECT_EQ(r1.cycles, r0.cycles);
            EXPECT_EQ(r1.instructions, r0.instructions);
            expectSameState(idle.machine(), base.machine());
            EXPECT_EQ(vcd.samples(), 0u);
        }
    }
}

/** Recording routes through the reference loop, whose timing is
 *  pinned to the superblock backend — so the dump is free of time
 *  skew. */
TEST(Vcd, RecordingDoesNotPerturbTimingOrResults)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x7a1);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    OpfAvrLibrary base(prime, CpuMode::ISE);
    OpfRun r0 = base.mul(a, b);

    OpfAvrLibrary rec(prime, CpuMode::ISE);
    VcdWriter vcd;
    rec.machine().setWaveSink(&vcd);
    std::string path = tmpPath("jaavr_vcd_mul.vcd");
    ASSERT_TRUE(vcd.open(path, rec.machine()));
    EXPECT_TRUE(vcd.active());
    OpfRun r1 = rec.mul(a, b);
    vcd.close();

    EXPECT_EQ(r1.result, r0.result);
    EXPECT_EQ(r1.cycles, r0.cycles);
    EXPECT_EQ(r1.instructions, r0.instructions);
    EXPECT_EQ(vcd.samples(), r0.instructions);
    EXPECT_EQ(vcd.time(), r0.cycles);

    VcdData dump;
    parseVcd(path, dump);
    EXPECT_EQ(dump.finalTime, r0.cycles);
    // The ISE multiplication exercises the MAC accumulator.
    EXPECT_GT(dump.maxValue("mac_cnt"), 0u);
    std::remove(path.c_str());
}

TEST(Vcd, DumpIsCycleAccurateAndByteIdenticalAcrossRuns)
{
    Program prog = assemble(R"(
            call sub1
            nop
            ret
        sub1:
            ldi r16, 7
            ret
    )",
                            "vcd_calls");

    std::string paths[2] = {tmpPath("jaavr_vcd_a.vcd"),
                            tmpPath("jaavr_vcd_b.vcd")};
    uint64_t cycles[2];
    for (int i = 0; i < 2; i++) {
        Machine m(CpuMode::ISE);
        m.loadProgram(prog.words, 0);
        VcdWriter vcd;
        m.setWaveSink(&vcd);
        ASSERT_TRUE(vcd.open(paths[i], m));
        RunResult r = m.call(0);
        ASSERT_TRUE(r.ok());
        cycles[i] = r.cycles;
        vcd.close();
    }
    EXPECT_EQ(cycles[0], cycles[1]);

    std::string a = slurp(paths[0]), b = slurp(paths[1]);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "identical runs must dump identical bytes";

    VcdData dump;
    parseVcd(paths[0], dump);
    EXPECT_EQ(dump.finalTime, cycles[0]);
    // CALL enters sub1 (depth 1), both RETs unwind back to 0.
    EXPECT_EQ(dump.maxValue("call_depth"), 1u);
    EXPECT_EQ(dump.lastValue("call_depth"), 0u);
    EXPECT_EQ(dump.lastValue("trap"), 0u);
    // r16 <- 7 retires, so the declared wires carry real traffic.
    ASSERT_EQ(dump.widths.at("pc"), 16u);
    ASSERT_EQ(dump.widths.at("mac_acc"), 72u);
    std::remove(paths[0].c_str());
    std::remove(paths[1].c_str());
}

TEST(Vcd, TrapLandsOnTheTrapWire)
{
    Program prog = assemble("nop\nnop\nnop\nret\n", "vcd_trap");
    Machine m(CpuMode::CA);
    m.loadProgram(prog.words, 0);
    uint64_t full = m.call(0);

    Machine t(CpuMode::CA);
    t.loadProgram(prog.words, 0);
    VcdWriter vcd;
    t.setWaveSink(&vcd);
    std::string path = tmpPath("jaavr_vcd_trap.vcd");
    ASSERT_TRUE(vcd.open(path, t));
    RunResult r = t.call(0, full); // budget == consumption traps
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::CycleBudget);
    vcd.close();

    VcdData dump;
    parseVcd(path, dump);
    EXPECT_EQ(dump.lastValue("trap"),
              static_cast<uint64_t>(TrapKind::CycleBudget));
    EXPECT_EQ(dump.finalTime, r.cycles);
}

TEST(Vcd, PublishMetricsExportsRetiredStatistics)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x91f);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    OpfAvrLibrary lib(prime, CpuMode::ISE);
    OpfRun r = lib.mul(a, b);
    ASSERT_EQ(r.trap.kind, TrapKind::None);

    MetricsRegistry reg;
    lib.machine().publishMetrics(reg);
    const ExecStats &st = lib.machine().stats();
    EXPECT_EQ(reg.counter("iss_instructions").value(), st.instructions);
    EXPECT_EQ(reg.counter("iss_cycles").value(), st.cycles);
    EXPECT_EQ(reg.counter("iss_mac_stall_nops").value(),
              st.macStallNops);
    EXPECT_EQ(reg.counter("mac_ops_total").value(),
              lib.machine().mac().totalMacs());
    // The generated ISE multiplication uses the Algorithm-2 (load)
    // trigger exclusively; both nibbles of each byte count.
    EXPECT_EQ(reg.counter("mac_triggers", {{"alg", "2"}}).value(),
              lib.machine().mac().alg2Macs());
    EXPECT_GT(lib.machine().mac().alg2Macs(), 0u);
    EXPECT_EQ(reg.counter("mac_triggers", {{"alg", "1"}}).value() +
                  reg.counter("mac_triggers", {{"alg", "2"}}).value(),
              lib.machine().mac().totalMacs());
    // Per-op counters carry only retired mnemonics.
    EXPECT_EQ(reg.counter("iss_op_retired", {{"op", "ret"}}).value(),
              st.count(Op::RET));
    EXPECT_GT(st.count(Op::RET), 0u);

    // Trap telemetry: a budget trap shows up under its kind label.
    Machine m(CpuMode::CA);
    Program prog = assemble("nop\nnop\nret\n", "vcd_metrics_trap");
    m.loadProgram(prog.words, 0);
    RunResult rr = m.call(0, 1);
    ASSERT_EQ(rr.trap.kind, TrapKind::CycleBudget);
    EXPECT_EQ(m.stats().traps(TrapKind::CycleBudget), 1u);
    MetricsRegistry treg;
    m.publishMetrics(treg);
    EXPECT_EQ(
        treg.counter("iss_traps", {{"kind", "cycle_budget"}}).value(),
        1u);
}
