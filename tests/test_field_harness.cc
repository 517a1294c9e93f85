/**
 * @file
 * Tests of the shared ISS field-routine harness and the x-only ladder
 * built on it (avrgen/opf_harness.hh, avrgen/x_ladder.hh): the ISS
 * ladder against the independent MontgomeryCurve::ladder, the host
 * model's per-step Z2 against the ISS word for word, and a
 * constant-time contract for every routine the harness loads.
 */

#include <gtest/gtest.h>

#include "avrgen/x_ladder.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

constexpr CpuMode kModes[] = {CpuMode::CA, CpuMode::FAST, CpuMode::ISE};

} // anonymous namespace

TEST(XLadder, IssMatchesMontgomeryCurveLadder)
{
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    const BigUInt x1 = montgomeryOpfBasePoint().x;
    Rng rng(0x1add3);
    std::vector<BigUInt> scalars = {
        BigUInt(1),
        BigUInt(2),
        BigUInt::randomBits(rng, 160),
        BigUInt::randomBits(rng, 159) + BigUInt::powerOfTwo(159),
        BigUInt::randomBits(rng, 97), // >= 63 leading zero bits
    };
    for (CpuMode mode : {CpuMode::CA, CpuMode::ISE}) {
        OpfAvrLibrary lib(paperOpfPrime(), mode);
        const OpfField &fm = lib.field();
        OpfField::Words x1m = fm.toMont(x1);
        OpfField::Words a24m = fm.toMont(BigUInt(mc.a24()));
        for (const BigUInt &k : scalars) {
            IssLadderX r = issLadderX(lib, a24m, x1m,
                                      xLadderStart(fm, x1m), k, 160);
            auto host = mc.ladder(k, x1);
            ASSERT_FALSE(r.trap) << cpuModeName(mode);
            ASSERT_TRUE(host.has_value());
            EXPECT_FALSE(r.infinity);
            EXPECT_EQ(r.x, *host)
                << cpuModeName(mode) << " k=" << k.toHex();
        }
    }
}

TEST(XLadder, HostZ2MatchesIssWordForWord)
{
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    OpfAvrLibrary lib(paperOpfPrime(), CpuMode::ISE);
    const OpfField &fm = lib.field();
    Rng rng(0x22);
    BigUInt x1;
    do
        x1 = mc.field().random(rng);
    while (!validateX(mc, x1));
    OpfField::Words x1m = fm.toMont(x1);
    OpfField::Words a24m = fm.toMont(BigUInt(mc.a24()));

    IssLadderOps iss{lib, {}};
    HostLadderOps host{fm};
    XLadderState si = xLadderStart(fm, x1m), sh = si;
    uint64_t k = rng.next64();
    for (int i = 63; i >= 0; i--) {
        unsigned bit = unsigned(k >> i) & 1;
        xLadderStep(iss, si, x1m, a24m, bit);
        xLadderStep(host, sh, x1m, a24m, bit);
        ASSERT_FALSE(iss.trap);
        ASSERT_EQ(si.z2, sh.z2) << "step " << 63 - i;
        ASSERT_EQ(si.x2, sh.x2) << "step " << 63 - i;
        ASSERT_EQ(si.x3, sh.x3) << "step " << 63 - i;
        ASSERT_EQ(si.z3, sh.z3) << "step " << 63 - i;
    }
}

TEST(FieldHarness, EveryRoutineHasACtContract)
{
    for (CpuMode mode : kModes) {
        for (const OpfPrime &p : {paperOpfPrime(), makeOpf(0xff4c, 240)}) {
            for (const FieldRoutine &r : opfRoutines(p, mode))
                EXPECT_TRUE(fieldRoutineCtSpec(r, p.k / 32 + 1))
                    << r.name << " " << cpuModeName(mode);
        }
        for (const FieldRoutine &r : secp160Routines(mode))
            EXPECT_TRUE(fieldRoutineCtSpec(r, 5))
                << r.name << " " << cpuModeName(mode);
    }
}

TEST(FieldHarness, TableDrivesLoadingSymbolsAndRom)
{
    Secp160AvrLibrary ise(CpuMode::ISE);
    Secp160AvrLibrary ca(CpuMode::CA);
    ASSERT_EQ(ise.routines().size(), 5u);
    ASSERT_EQ(ca.routines().size(), 4u);
    // The MAC-product row is loaded and named, but is an alternative
    // multiplication, not extra field-library ROM.
    EXPECT_EQ(ise.romBytes(), ca.romBytes());
    SymbolTable st = ise.symbols();
    for (const FieldRoutine &r : ise.routines()) {
        const std::string *name = st.exact(r.entry);
        ASSERT_NE(name, nullptr) << r.name;
        EXPECT_EQ(*name, r.name);
        EXPECT_EQ(ise.machine().flashWord(r.entry), r.program.words[0])
            << r.name;
    }
}
