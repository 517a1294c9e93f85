/**
 * @file
 * LeakTracer tests: an attached-but-idle tracer adds exactly zero
 * simulated cycles on both backends (the same pinning
 * contract tests/test_vcd.cc holds the VCD writer to), recording does
 * not perturb timing or results, the synthesized samples match the
 * documented Hamming-weight/Hamming-distance model exactly when the
 * noise is off, the seeded noise stream is deterministic, the
 * CSV/NPY/meta exports are byte-identical across identical runs, and
 * traps land as markers. Also pins the p50/p99 cycles-per-instruction
 * gauges Machine::publishMetrics derives from the retired statistics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "avr/leakage.hh"
#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/json.hh"
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
 * The WaveSink pinning contract: a LeakTracer that is attached but
 * never armed must leave both backends (all modes, superblock and
 * reference) with bit-identical results, cycles and
 * architectural state, and must synthesize no samples.
 */
TEST(Leakage, AttachedButIdleAddsZeroCycles)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x1ea4);
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
            LeakTracer leak; // attached, never armed
            idle.machine().setLeakSink(&leak);
            EXPECT_FALSE(leak.active());
            OpfRun r1 = idle.mul(a, b);
            EXPECT_EQ(r1.result, r0.result);
            EXPECT_EQ(r1.cycles, r0.cycles);
            EXPECT_EQ(r1.instructions, r0.instructions);
            expectSameState(idle.machine(), base.machine());
            EXPECT_TRUE(leak.samples().empty());
        }
    }
}

/** An armed tracer routes through the reference loop, whose timing is
 *  pinned to the superblock backend — recording is observation, not
 *  physics. */
TEST(Leakage, RecordingDoesNotPerturbTimingOrResults)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x7ace);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    OpfAvrLibrary base(prime, CpuMode::ISE);
    OpfRun r0 = base.mul(a, b);

    OpfAvrLibrary rec(prime, CpuMode::ISE);
    LeakTracer leak;
    rec.machine().setLeakSink(&leak);
    leak.begin(rec.machine());
    OpfRun r1 = rec.mul(a, b);
    leak.end();

    EXPECT_EQ(r1.result, r0.result);
    EXPECT_EQ(r1.cycles, r0.cycles);
    EXPECT_EQ(r1.instructions, r0.instructions);
    // One sample per retired instruction, stamped monotonically up to
    // the run's cycle count.
    EXPECT_EQ(leak.samples().size(), r0.instructions);
    ASSERT_EQ(leak.stamps().size(), leak.samples().size());
    EXPECT_EQ(leak.time(), r0.cycles);
    EXPECT_EQ(leak.stamps().back(), r0.cycles);
    for (size_t i = 1; i < leak.stamps().size(); i++)
        EXPECT_GE(leak.stamps()[i], leak.stamps()[i - 1]);
    // The ISE multiplication steps the MAC, so some samples carry the
    // accumulator term and the trace is not flat.
    EXPECT_GT(rec.machine().mac().totalMacs(), 0u);
    float mx = 0;
    for (float s : leak.samples())
        mx = std::max(mx, s);
    EXPECT_GT(mx, 0.0f);
}

/** With the noise off, every sample is the documented model exactly:
 *  register-file HD + bus value/address HW for loads and stores. */
TEST(Leakage, SamplesMatchTheHammingModelExactly)
{
    Program prog = assemble(R"(
            ldi r16, 0xff
            ldi r16, 0x00
            ldi r17, 0x0f
            sts 0x0123, r17
            ret
    )",
                            "leak_fixture");

    Machine m(CpuMode::CA);
    m.loadProgram(prog.words, 0);
    LeakTracer leak; // default model: noiseSigma = 0
    m.setLeakSink(&leak);
    leak.begin(m);
    leak.mark("pre");
    unsigned r16_0 = m.reg(16), r17_0 = m.reg(17);
    RunResult r = m.call(0);
    ASSERT_TRUE(r.ok());
    leak.mark("post");
    leak.end();

    ASSERT_EQ(leak.samples().size(), m.stats().instructions);
    ASSERT_EQ(leak.samples().size(), 5u);
    // ldi r16, 0xff: register-file switching only.
    EXPECT_FLOAT_EQ(leak.samples()[0],
                    float(std::popcount(0xffu ^ r16_0)));
    // ldi r16, 0x00 undoes all eight bits.
    EXPECT_FLOAT_EQ(leak.samples()[1], 8.0f);
    EXPECT_FLOAT_EQ(leak.samples()[2],
                    float(std::popcount(0x0fu ^ r17_0)));
    // sts 0x0123, r17: no register changes; the bus term prices
    // HW(value 0x0f) + HW(address 0x0123) = 4 + 4.
    EXPECT_FLOAT_EQ(leak.samples()[3], 8.0f);
    // ret touches neither the register file nor the data bus.
    EXPECT_FLOAT_EQ(leak.samples()[4], 0.0f);
    EXPECT_EQ(leak.time(), r.cycles);

    // Markers bracket the recording at the right sample indices.
    ASSERT_EQ(leak.markers().size(), 2u);
    EXPECT_EQ(leak.markers()[0].first, "pre");
    EXPECT_EQ(leak.markers()[0].second, 0u);
    EXPECT_EQ(leak.markers()[1].first, "post");
    EXPECT_EQ(leak.markers()[1].second, 5u);
}

/** The Irwin-Hall noise stream is a pure function of the seed. */
TEST(Leakage, NoiseIsSeededAndDeterministic)
{
    Program prog = assemble("ldi r20, 0xaa\nldi r21, 0x55\nret\n",
                            "leak_noise");
    LeakModel noisy;
    noisy.noiseSigma = 1.5;

    auto run = [&](uint64_t seed) {
        Machine m(CpuMode::CA);
        m.loadProgram(prog.words, 0);
        LeakTracer leak(noisy);
        m.setLeakSink(&leak);
        leak.begin(m, seed);
        RunResult r = m.call(0);
        EXPECT_TRUE(r.ok());
        leak.end();
        return leak.samples();
    };

    auto a = run(42), b = run(42), c = run(43);
    EXPECT_EQ(a, b) << "same seed must synthesize identical traces";
    EXPECT_NE(a, c) << "different seeds must decorrelate the noise";
}

TEST(Leakage, ExportsAreByteIdenticalAcrossIdenticalRuns)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0xd0d0);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    std::string csv[2] = {tmpPath("jaavr_leak_a.csv"),
                          tmpPath("jaavr_leak_b.csv")};
    std::string npy[2] = {tmpPath("jaavr_leak_a.npy"),
                          tmpPath("jaavr_leak_b.npy")};
    std::string meta[2] = {tmpPath("jaavr_leak_a.json"),
                           tmpPath("jaavr_leak_b.json")};
    size_t samples = 0;
    for (int i = 0; i < 2; i++) {
        std::remove(meta[i].c_str()); // writeMeta appends
        OpfAvrLibrary lib(prime, CpuMode::ISE);
        LeakTracer leak;
        lib.machine().setLeakSink(&leak);
        leak.begin(lib.machine(), 0x5eed);
        leak.mark("mul");
        OpfRun r = lib.mul(a, b);
        ASSERT_EQ(r.trap.kind, TrapKind::None);
        leak.end();
        samples = leak.samples().size();
        ASSERT_TRUE(leak.writeCsv(csv[i]));
        ASSERT_TRUE(leak.writeNpy(npy[i]));
        JsonLine stamp;
        stamp.str("bench", "unit");
        ASSERT_TRUE(leak.writeMeta(meta[i], stamp));
    }

    std::string ca = slurp(csv[0]);
    ASSERT_FALSE(ca.empty());
    EXPECT_EQ(ca.substr(0, ca.find('\n')), "sample,cycle,power");
    EXPECT_EQ(ca, slurp(csv[1]));

    std::string na = slurp(npy[0]);
    EXPECT_EQ(na, slurp(npy[1]));
    // NPY format 1.0: magic, little-endian header length, a '<f4'
    // dict padded so the payload starts 64-byte aligned, then one
    // float32 per sample.
    ASSERT_GT(na.size(), 10u);
    EXPECT_EQ(na.substr(0, 8), std::string("\x93NUMPY\x01\x00", 8));
    size_t hlen = uint8_t(na[8]) | (uint8_t(na[9]) << 8);
    EXPECT_EQ((10 + hlen) % 64, 0u);
    EXPECT_NE(na.find("'descr': '<f4'"), std::string::npos);
    EXPECT_EQ(na.size(), 10 + hlen + 4 * samples);

    // The metadata is parsable JSON-lines carrying the stamp, the
    // model and the marker.
    std::string ma = slurp(meta[0]);
    EXPECT_EQ(ma, slurp(meta[1]));
    std::istringstream lines(ma);
    std::string line;
    bool sawTrace = false, sawMarker = false;
    while (std::getline(lines, line)) {
        JsonObject obj;
        std::string err;
        ASSERT_TRUE(parseJsonLine(line, obj, &err)) << err;
        EXPECT_EQ(obj.at("bench").str, "unit");
        if (obj.at("kind").str == "trace") {
            sawTrace = true;
            EXPECT_EQ(obj.at("samples").num, double(samples));
            EXPECT_EQ(obj.at("noise_seed").num, 0x5eed);
        } else if (obj.at("kind").str == "marker") {
            sawMarker = true;
            EXPECT_EQ(obj.at("label").str, "mul");
            EXPECT_EQ(obj.at("sample").num, 0);
        }
    }
    EXPECT_TRUE(sawTrace && sawMarker);

    for (int i = 0; i < 2; i++) {
        std::remove(csv[i].c_str());
        std::remove(npy[i].c_str());
        std::remove(meta[i].c_str());
    }
}

TEST(Leakage, TrapLandsAsAMarker)
{
    Program prog = assemble("nop\nnop\nnop\nret\n", "leak_trap");
    Machine full(CpuMode::CA);
    full.loadProgram(prog.words, 0);
    RunResult whole = full.call(0);
    ASSERT_TRUE(whole.ok());

    Machine m(CpuMode::CA);
    m.loadProgram(prog.words, 0);
    LeakTracer leak;
    m.setLeakSink(&leak);
    leak.begin(m);
    RunResult r = m.call(0, whole.cycles); // budget == consumption
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::CycleBudget);
    leak.end();

    ASSERT_EQ(leak.markers().size(), 1u);
    EXPECT_EQ(leak.markers()[0].first, "trap:cycle_budget");
    EXPECT_EQ(leak.markers()[0].second, leak.samples().size());
}

/** publishMetrics derives tail-latency gauges from the per-op retired
 *  statistics via Histogram::percentile. */
TEST(Leakage, PublishMetricsExportsPercentileGauges)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x99);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    OpfAvrLibrary lib(prime, CpuMode::ISE);
    OpfRun r = lib.mul(a, b);
    ASSERT_EQ(r.trap.kind, TrapKind::None);

    MetricsRegistry reg;
    lib.machine().publishMetrics(reg);
    double p50 = reg.gauge("iss_cycles_per_inst_p50").value();
    double p99 = reg.gauge("iss_cycles_per_inst_p99").value();
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    // Single-cycle ALU ops dominate the OPF multiply; CALL/RET-class
    // retirements put the p99 tail strictly above the median.
    EXPECT_LT(p50, 2.0);
    EXPECT_GT(p99, p50 * 1.0 - 1e-9);
    // The gauges summarize the same histogram the registry publishes.
    Histogram &cyc = reg.histogram("iss_cycles_per_inst", {});
    EXPECT_GT(cyc.count(), 0u);
    EXPECT_DOUBLE_EQ(cyc.percentile(50), p50);
    EXPECT_DOUBLE_EQ(cyc.percentile(99), p99);
}
