/**
 * @file
 * Manual-derived oracle for the AVR datapath. Every datapath
 * instruction the ISS implements is checked against a bit-level
 * reference written from the AVR instruction-set manual, not from
 * the machine's code (this file includes neither avr/datapath.hh,
 * which both backends execute, nor avr/flags.hh):
 * the add/sub/compare family, logic, shifts, INC/DEC/COM/NEG/SWAP,
 * the multiplier family, MOV/LDI/MOVW/ADIW/SBIW, the SREG bit
 * operations, branches, skips over one- and two-word successors,
 * loads and stores in every pointer form, PUSH/POP, LPM and the
 * I/O-space operations. Each case compares the result, all eight
 * SREG bits, pointer and stack updates, the watched data bytes, the
 * next PC and the ATmega128 cycle count.
 *
 * Every case runs three ways from the same architectural state: one
 * bare Machine::step(), and Machine::call() on the reference and on
 * the superblock backend, so the superblock handler executes inside
 * a translated trace. tests/test_superblock.cc compares the two
 * backends with each other; this oracle ties both to the manual.
 */

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <sstream>
#include <string>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "support/logging.hh"

using namespace jaavr;

namespace
{

constexpr uint8_t fC = 0x01, fZ = 0x02, fN = 0x04, fV = 0x08,
                  fS = 0x10, fH = 0x20, fT = 0x40, fI = 0x80;

/**
 * SREG inputs: every flag both clear and set across the four, and
 * every (C, Z) combination (the carry-in and sticky-Z inputs).
 */
constexpr std::array<uint8_t, 4> kSregIn = {0x00, 0xff, 0x55, 0xaa};

/** ATmega128 cycles of the `jmp 0xffff` that ends every program. */
constexpr unsigned kJmpCycles = 3;

/** Default stack pointer; call() parks its exit frame at sp+1..sp+2. */
constexpr uint16_t kSp = 0x0d00;

/** Data bytes seeded and read back per case. */
constexpr size_t kWatch = 4;
/** Filler watch addresses, used by no case's pointer. */
constexpr uint16_t kScratch = 0x0e00;

/** The architectural state the oracle compares. */
struct Arch
{
    std::array<uint8_t, 32> r{};
    uint8_t sreg = 0;
    uint16_t sp = kSp;
    std::array<uint16_t, kWatch> addr = {kScratch, kScratch + 1,
                                         kScratch + 2, kScratch + 3};
    std::array<uint8_t, kWatch> mem{};

    bool operator==(const Arch &) const = default;

    uint16_t pair(unsigned i) const
    {
        return static_cast<uint16_t>(r[i] | r[i + 1] << 8);
    }
    void setPair(unsigned i, uint16_t v)
    {
        r[i] = static_cast<uint8_t>(v);
        r[i + 1] = static_cast<uint8_t>(v >> 8);
    }

    /** The watched data byte at @p a. */
    uint8_t &at(uint16_t a)
    {
        for (size_t i = 0; i < kWatch; i++)
            if (addr[i] == a)
                return mem[i];
        ADD_FAILURE() << "0x" << std::hex << a << " is not watched";
        return mem[0];
    }

    /** Watch the distinct addresses of @p list, seeded with a pattern. */
    void watch(std::initializer_list<uint16_t> list)
    {
        size_t n = 0;
        for (uint16_t a : list) {
            bool dup = false;
            for (size_t i = 0; i < n; i++)
                dup |= addr[i] == a;
            if (!dup)
                addr[n++] = a;
        }
        for (size_t i = n; i < kWatch; i++)
            addr[i] = static_cast<uint16_t>(kScratch + i);
        for (size_t i = 0; i < kWatch; i++)
            mem[i] = static_cast<uint8_t>(addr[i] * 13 + 0x5b);
    }
};

/** Every register distinct and salted, so a stray write shows. */
Arch
baseState(unsigned salt, uint8_t sreg)
{
    Arch s;
    for (unsigned i = 0; i < 32; i++)
        s.r[i] = static_cast<uint8_t>(i * 29 + salt);
    s.sreg = sreg;
    return s;
}

/** Where a path ended: state, cycles and PC. */
struct Outcome
{
    Arch arch;
    uint64_t cycles = 0;
    uint32_t pc = 0;

    bool operator==(const Outcome &) const = default;
};

std::string
show(const Outcome &o)
{
    std::ostringstream os;
    os << std::hex;
    for (unsigned i = 0; i < 32; i++)
        os << (i ? " " : "r=") << int(o.arch.r[i]);
    os << " sreg=" << int(o.arch.sreg) << " sp=" << o.arch.sp;
    for (size_t i = 0; i < kWatch; i++)
        os << " [" << o.arch.addr[i] << "]=" << int(o.arch.mem[i]);
    os << std::dec << " cycles=" << o.cycles << " pc=" << o.pc;
    return os.str();
}

/**
 * Three CA machines over one program: one driven by bare step(), two
 * by call(0) on the reference and the superblock backend. Programs
 * put the instruction under test at word 0 and leave through
 * `jmp 0xffff` (the exit sentinel), which load() appends.
 */
class Oracle
{
  public:
    Oracle() : stepM(CpuMode::CA), refM(CpuMode::CA), sbM(CpuMode::CA)
    {
        refM.setBackend(IssBackend::Reference);
        sbM.setBackend(IssBackend::Superblock);
    }

    void load(const std::string &src)
    {
        const Program p = assemble(src + "\njmp 0xffff", "oracle");
        for (Machine *m : {&stepM, &refM, &sbM})
            m->loadProgram(p.words);
    }

    /**
     * Run @p in through one step(), expecting @p at_step, and through
     * call(0) on both backends, expecting @p at_exit.
     */
    testing::AssertionResult
    check(const Arch &in, const Outcome &at_step, const Outcome &at_exit)
    {
        const Outcome got[3] = {runStep(in), runCall(refM, in),
                                runCall(sbM, in)};
        const Outcome *want[3] = {&at_step, &at_exit, &at_exit};
        static const char *const path[3] = {
            "step()", "call() reference", "call() superblock"};
        for (int i = 0; i < 3; i++)
            if (!(got[i] == *want[i]))
                return testing::AssertionFailure()
                       << path[i] << "\n  in   " << show({in, 0, 0})
                       << "\n  want " << show(*want[i]) << "\n  got  "
                       << show(got[i]);
        return testing::AssertionSuccess();
    }

    /**
     * Straight-line instruction of @p words words: @p out after
     * @p cycles, then the exit jump.
     */
    testing::AssertionResult
    check(const Arch &in, const Arch &out, unsigned cycles,
          unsigned words = 1)
    {
        return check(in, {out, cycles, words},
                     {out, cycles + kJmpCycles, Machine::exitAddress});
    }

  private:
    static void seed(Machine &m, const Arch &in)
    {
        for (unsigned i = 0; i < 32; i++)
            m.setReg(i, in.r[i]);
        m.setSreg(in.sreg);
        for (size_t i = 0; i < kWatch; i++)
            m.writeData(in.addr[i], in.mem[i]);
    }

    static Arch observe(const Machine &m, const Arch &in)
    {
        Arch a = in;
        for (unsigned i = 0; i < 32; i++)
            a.r[i] = m.reg(i);
        a.sreg = m.sreg();
        a.sp = m.sp();
        for (size_t i = 0; i < kWatch; i++)
            a.mem[i] = m.readData(in.addr[i]);
        return a;
    }

    Outcome runStep(const Arch &in)
    {
        seed(stepM, in);
        // The exit frame call() pushes, so every path sees one memory.
        stepM.writeData(in.sp + 1, 0xff);
        stepM.writeData(in.sp + 2, 0xff);
        stepM.setSp(in.sp);
        stepM.setPc(0);
        const unsigned cycles = stepM.step();
        return {observe(stepM, in), cycles, stepM.pc()};
    }

    static Outcome runCall(Machine &m, const Arch &in)
    {
        seed(m, in);
        m.setSp(in.sp + 2);
        const RunResult r = m.call(0);
        return {observe(m, in), r.cycles, m.pc()};
    }

    Machine stepM, refM, sbM;
};

// ---- The reference, from the instruction-set manual ----------------

/** An 8-bit result and the SREG it leaves. */
struct Alu
{
    uint8_t r;
    uint8_t sreg;
};

/**
 * SREG per the manual's flag definitions: S = N xor V; the flags in
 * @p keep are left as they were in @p sreg.
 */
uint8_t
flags(uint8_t sreg, uint8_t keep, bool c, bool z, bool n, bool v, bool h)
{
    uint8_t f = (c ? fC : 0) | (z ? fZ : 0) | (n ? fN : 0) |
                (v ? fV : 0) | (n != v ? fS : 0) | (h ? fH : 0);
    return static_cast<uint8_t>((sreg & keep) | (f & ~keep));
}

/** ADD/ADC: carries out of bits 3 and 7, two's-complement overflow. */
Alu
refAdd(uint8_t a, uint8_t b, bool cin, uint8_t sreg)
{
    unsigned sum = a + b + cin;
    int ssum = int8_t(a) + int8_t(b) + cin;
    uint8_t r = static_cast<uint8_t>(sum);
    return {r, flags(sreg, fT | fI, sum > 0xff, r == 0, r & 0x80,
                     ssum < -128 || ssum > 127,
                     (a & 0xf) + (b & 0xf) + cin > 0xf)};
}

/**
 * SUB/SBC/SUBI/SBCI/CP/CPC/CPI: borrows into bits 3 and 7; with
 * @p sticky_z (the with-carry forms) Z only stays set on a zero.
 */
Alu
refSub(uint8_t a, uint8_t b, bool cin, bool sticky_z, uint8_t sreg)
{
    int diff = int(a) - int(b) - cin;
    int sdiff = int8_t(a) - int8_t(b) - cin;
    uint8_t r = static_cast<uint8_t>(diff);
    bool z = r == 0 && (!sticky_z || (sreg & fZ));
    return {r, flags(sreg, fT | fI, diff < 0, z, r & 0x80,
                     sdiff < -128 || sdiff > 127,
                     int(a & 0xf) - int(b & 0xf) - cin < 0)};
}

/** AND/OR/EOR/ANDI/ORI (TST, CLR): V cleared, C and H kept. */
Alu
refLogic(uint8_t r, uint8_t sreg)
{
    return {r, flags(sreg, fC | fH | fT | fI, false, r == 0, r & 0x80,
                     false, false)};
}

/** INC/DEC: V only where the result crosses 0x7f/0x80; C, H kept. */
Alu
refIncDec(uint8_t a, bool inc, uint8_t sreg)
{
    uint8_t r = static_cast<uint8_t>(inc ? a + 1 : a - 1);
    return {r, flags(sreg, fC | fH | fT | fI, false, r == 0, r & 0x80,
                     inc ? a == 0x7f : a == 0x80, false)};
}

/** The multiplier: a 16-bit R1:R0 result and the SREG it leaves. */
struct Product
{
    uint16_t p;
    uint8_t sreg;
};

/** MUL/MULS/MULSU: C = bit 15 of the product, Z; nothing else. */
Product
refMul(int product, uint8_t sreg)
{
    uint16_t p = static_cast<uint16_t>(product);
    return {p, flags(sreg, static_cast<uint8_t>(~(fC | fZ)), p & 0x8000,
                     p == 0, false, false, false)};
}

/** FMUL/FMULS/FMULSU: C = bit 15 before the shift, Z of the result. */
Product
refFmul(int product, uint8_t sreg)
{
    uint16_t p = static_cast<uint16_t>(product);
    uint16_t r = static_cast<uint16_t>(p << 1);
    return {r, flags(sreg, static_cast<uint8_t>(~(fC | fZ)), p & 0x8000,
                     r == 0, false, false, false)};
}

/**
 * Sweep a register-register instruction over every (r16, r17) value
 * pair under each SREG input of kSregIn; @p ref maps (a, b, sreg) to
 * the manual's new r16 and SREG. @p writes is false for compares.
 */
template <class Ref>
void
sweepPairs(const std::string &src, bool writes, Ref ref)
{
    Oracle h;
    h.load(src);
    for (uint8_t sreg : kSregIn) {
        for (unsigned a = 0; a < 256; a++) {
            for (unsigned b = 0; b < 256; b++) {
                Arch in = baseState(a ^ b, sreg);
                in.r[16] = a;
                in.r[17] = b;
                Arch out = in;
                Alu w = ref(a, b, sreg);
                if (writes)
                    out.r[16] = w.r;
                out.sreg = w.sreg;
                ASSERT_TRUE(h.check(in, out, 1))
                    << src << ": " << a << ", " << b;
            }
        }
    }
}

/**
 * Sweep a register-immediate instruction on r16 over every immediate
 * and every value under each SREG input of kSregIn.
 */
template <class Ref>
void
sweepImmediates(const char *fmt, bool writes, Ref ref)
{
    Oracle h;
    for (unsigned k = 0; k < 256; k++) {
        const std::string src = csprintf(fmt, k);
        h.load(src);
        for (uint8_t sreg : kSregIn) {
            for (unsigned a = 0; a < 256; a++) {
                Arch in = baseState(a + k, sreg);
                in.r[16] = a;
                Arch out = in;
                Alu w = ref(a, k, sreg);
                if (writes)
                    out.r[16] = w.r;
                out.sreg = w.sreg;
                ASSERT_TRUE(h.check(in, out, 1)) << src << ": " << a;
            }
        }
    }
}

/**
 * Sweep a single-register instruction on r16 over every value under
 * every SREG input.
 */
template <class Ref>
void
sweepSingle(const std::string &src, Ref ref)
{
    Oracle h;
    h.load(src);
    for (unsigned sreg = 0; sreg < 256; sreg++) {
        for (unsigned a = 0; a < 256; a++) {
            Arch in = baseState(a * 3 + sreg, sreg);
            in.r[16] = a;
            Arch out = in;
            Alu w = ref(a, sreg);
            out.r[16] = w.r;
            out.sreg = w.sreg;
            ASSERT_TRUE(h.check(in, out, 1))
                << src << ": " << a << " sreg " << sreg;
        }
    }
}

/** Sweep a multiplier instruction on (r16, r17) into R1:R0. */
template <class Ref>
void
sweepMul(const std::string &src, Ref ref)
{
    Oracle h;
    h.load(src);
    for (uint8_t sreg : {uint8_t(0x00), uint8_t(0xff)}) {
        for (unsigned a = 0; a < 256; a++) {
            for (unsigned b = 0; b < 256; b++) {
                Arch in = baseState(a + b, sreg);
                in.r[16] = a;
                in.r[17] = b;
                Arch out = in;
                Product w = ref(a, b, sreg);
                out.setPair(0, w.p);
                out.sreg = w.sreg;
                ASSERT_TRUE(h.check(in, out, 2))
                    << src << ": " << a << ", " << b;
            }
        }
    }
}

} // anonymous namespace

TEST(MachineAluExhaustive, AddAllInputs)
{
    sweepPairs("add r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refAdd(a, b, false, s);
    });
    // LSL Rd is ADD Rd,Rd.
    sweepSingle("lsl r16", [](uint8_t a, uint8_t s) {
        return refAdd(a, a, false, s);
    });
}

TEST(MachineAluExhaustive, AdcAllInputsBothCarries)
{
    sweepPairs("adc r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refAdd(a, b, s & fC, s);
    });
    // ROL Rd is ADC Rd,Rd.
    sweepSingle("rol r16", [](uint8_t a, uint8_t s) {
        return refAdd(a, a, s & fC, s);
    });
}

TEST(MachineAluExhaustive, SubAllInputs)
{
    sweepPairs("sub r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refSub(a, b, false, false, s);
    });
    sweepImmediates("subi r16, %u", true,
                    [](uint8_t a, uint8_t k, uint8_t s) {
                        return refSub(a, k, false, false, s);
                    });
}

TEST(MachineAluExhaustive, SbcAllInputsCarryAndZ)
{
    sweepPairs("sbc r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refSub(a, b, s & fC, true, s);
    });
    sweepImmediates("sbci r16, %u", true,
                    [](uint8_t a, uint8_t k, uint8_t s) {
                        return refSub(a, k, s & fC, true, s);
                    });
}

TEST(MachineAluExhaustive, CpMatchesSubWithoutWriteback)
{
    sweepPairs("cp r16, r17", false, [](uint8_t a, uint8_t b, uint8_t s) {
        return refSub(a, b, false, false, s);
    });
    sweepPairs("cpc r16, r17", false, [](uint8_t a, uint8_t b, uint8_t s) {
        return refSub(a, b, s & fC, true, s);
    });
    sweepImmediates("cpi r16, %u", false,
                    [](uint8_t a, uint8_t k, uint8_t s) {
                        return refSub(a, k, false, false, s);
                    });
}

TEST(MachineAluExhaustive, NegMatchesSubFromZero)
{
    // The manual's own NEG definitions: H = R3 | Rd3, V = (R == 0x80),
    // C = (R != 0).
    sweepSingle("neg r16", [](uint8_t a, uint8_t s) {
        uint8_t r = static_cast<uint8_t>(0 - a);
        Alu w{r, flags(s, fT | fI, r != 0, r == 0, r & 0x80, r == 0x80,
                       ((r | a) >> 3) & 1)};
        EXPECT_EQ(w.sreg, refSub(0, a, false, false, s).sreg);
        return w;
    });
}

TEST(MachineAluExhaustive, ShiftsAllInputsBothCarries)
{
    // C = old bit 0, V = N xor C, H kept.
    auto shift = [](uint8_t a, uint8_t r, uint8_t s) {
        bool c = a & 1, n = r & 0x80;
        return Alu{r, flags(s, fH | fT | fI, c, r == 0, n, n != c, false)};
    };
    sweepSingle("lsr r16", [&](uint8_t a, uint8_t s) {
        return shift(a, a >> 1, s);
    });
    sweepSingle("ror r16", [&](uint8_t a, uint8_t s) {
        return shift(a, static_cast<uint8_t>(a >> 1 | (s & fC) << 7), s);
    });
    sweepSingle("asr r16", [&](uint8_t a, uint8_t s) {
        return shift(a, static_cast<uint8_t>(a >> 1 | (a & 0x80)), s);
    });
}

TEST(MachineAluExhaustive, MulFamilyAllInputs)
{
    sweepMul("mul r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refMul(a * b, s);
    });
    sweepMul("muls r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refMul(int8_t(a) * int8_t(b), s);
    });
    sweepMul("mulsu r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refMul(int8_t(a) * b, s);
    });
    sweepMul("fmul r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refFmul(a * b, s);
    });
    sweepMul("fmuls r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refFmul(int8_t(a) * int8_t(b), s);
    });
    sweepMul("fmulsu r16, r17", [](uint8_t a, uint8_t b, uint8_t s) {
        return refFmul(int8_t(a) * b, s);
    });

    // Sources that the product overwrites are read first.
    Oracle h;
    h.load("mul r1, r0");
    for (unsigned a = 0; a < 256; a += 5) {
        for (unsigned b = 0; b < 256; b += 3) {
            Arch in = baseState(a, 0x55);
            in.r[1] = a;
            in.r[0] = b;
            Arch out = in;
            Product w = refMul(a * b, in.sreg);
            out.setPair(0, w.p);
            out.sreg = w.sreg;
            ASSERT_TRUE(h.check(in, out, 2)) << a << " * " << b;
        }
    }
}

TEST(MachineAluExhaustive, IncDecComAllInputs)
{
    sweepSingle("inc r16", [](uint8_t a, uint8_t s) {
        return refIncDec(a, true, s);
    });
    sweepSingle("dec r16", [](uint8_t a, uint8_t s) {
        return refIncDec(a, false, s);
    });
    // COM: C set, V cleared, H kept.
    sweepSingle("com r16", [](uint8_t a, uint8_t s) {
        uint8_t r = static_cast<uint8_t>(~a);
        return Alu{r, flags(s, fH | fT | fI, true, r == 0, r & 0x80,
                            false, false)};
    });
}

TEST(MachineAluExhaustive, IncDecPreserveCarry)
{
    // On every register, INC and DEC leave C, H, T and I alone.
    Oracle h;
    for (bool inc : {true, false}) {
        for (unsigned d = 0; d < 32; d++) {
            h.load(csprintf("%s r%u", inc ? "inc" : "dec", d));
            for (uint8_t sreg : kSregIn) {
                for (unsigned a = 0; a < 256; a++) {
                    Arch in = baseState(a + d, sreg);
                    in.r[d] = a;
                    Arch out = in;
                    Alu w = refIncDec(a, inc, sreg);
                    out.r[d] = w.r;
                    out.sreg = w.sreg;
                    ASSERT_TRUE(h.check(in, out, 1))
                        << (inc ? "inc r" : "dec r") << d << " on " << a;
                }
            }
        }
    }
}

TEST(MachineAluExhaustive, SwapAllInputs)
{
    sweepSingle("swap r16", [](uint8_t a, uint8_t s) {
        return Alu{static_cast<uint8_t>(a << 4 | a >> 4), s};
    });
}

TEST(MachineAluExhaustive, LogicOpsAllInputs)
{
    sweepPairs("and r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refLogic(a & b, s);
    });
    sweepPairs("or r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refLogic(a | b, s);
    });
    sweepPairs("eor r16, r17", true, [](uint8_t a, uint8_t b, uint8_t s) {
        return refLogic(a ^ b, s);
    });
    sweepImmediates("andi r16, %u", true,
                    [](uint8_t a, uint8_t k, uint8_t s) {
                        return refLogic(a & k, s);
                    });
    sweepImmediates("ori r16, %u", true,
                    [](uint8_t a, uint8_t k, uint8_t s) {
                        return refLogic(a | k, s);
                    });
    // TST Rd is AND Rd,Rd; CLR Rd is EOR Rd,Rd.
    sweepSingle("tst r16", [](uint8_t a, uint8_t s) {
        return refLogic(a, s);
    });
    sweepSingle("clr r16", [](uint8_t, uint8_t s) {
        return refLogic(0, s);
    });
}

TEST(MachineAluExhaustive, MovesAllRegisters)
{
    Oracle h;
    for (unsigned d = 0; d < 32; d++) {
        for (unsigned r = 0; r < 32; r++) {
            h.load(csprintf("mov r%u, r%u", d, r));
            for (unsigned salt : {0u, 77u, 200u}) {
                Arch in = baseState(salt, kSregIn[salt & 3]);
                Arch out = in;
                out.r[d] = in.r[r];
                ASSERT_TRUE(h.check(in, out, 1)) << d << " <- " << r;
            }
        }
    }
    for (unsigned d = 0; d < 32; d += 2) {
        for (unsigned r = 0; r < 32; r += 2) {
            h.load(csprintf("movw r%u, r%u", d, r));
            for (unsigned salt : {0u, 77u, 200u}) {
                Arch in = baseState(salt, kSregIn[salt & 3]);
                Arch out = in;
                out.setPair(d, in.pair(r));
                ASSERT_TRUE(h.check(in, out, 1)) << d << " <- " << r;
            }
        }
    }
    for (unsigned d = 16; d < 32; d++) {
        for (unsigned k = 0; k < 256; k++) {
            h.load(csprintf("ldi r%u, %u", d, k));
            Arch in = baseState(d + k, kSregIn[k & 3]);
            Arch out = in;
            out.r[d] = static_cast<uint8_t>(k);
            ASSERT_TRUE(h.check(in, out, 1)) << d << " <- " << k;
        }
    }
}

TEST(MachineAluExhaustive, AdiwSbiwSampled)
{
    // Every pair value in every ADIW/SBIW pair register, sampled
    // immediates; S, V, N, Z, C from the 16-bit result, H kept.
    Oracle h;
    for (bool add : {true, false}) {
        for (unsigned d = 24; d <= 30; d += 2) {
            for (unsigned k : {0u, 1u, 32u, 63u}) {
                h.load(csprintf("%s r%u, %u", add ? "adiw" : "sbiw", d, k));
                for (unsigned v = 0; v < 0x10000; v++) {
                    Arch in = baseState(v >> 8, kSregIn[v & 3]);
                    in.setPair(d, static_cast<uint16_t>(v));
                    int wide = add ? int(v) + int(k) : int(v) - int(k);
                    int swide = add ? int16_t(v) + int(k)
                                    : int16_t(v) - int(k);
                    uint16_t r = static_cast<uint16_t>(wide);
                    Arch out = in;
                    out.setPair(d, r);
                    out.sreg = flags(in.sreg, fH | fT | fI,
                                     wide < 0 || wide > 0xffff, r == 0,
                                     r & 0x8000,
                                     swide < -32768 || swide > 32767, false);
                    ASSERT_TRUE(h.check(in, out, 2))
                        << (add ? "adiw r" : "sbiw r") << d << ", " << k
                        << " on " << v;
                }
            }
        }
    }
}

TEST(MachineAluExhaustive, SregBitOpsAllInputs)
{
    Oracle h;
    for (unsigned s = 0; s < 8; s++) {
        for (bool set : {true, false}) {
            h.load(csprintf("%s %u", set ? "bset" : "bclr", s));
            for (unsigned sreg = 0; sreg < 256; sreg++) {
                Arch in = baseState(sreg, static_cast<uint8_t>(sreg));
                Arch out = in;
                out.sreg = static_cast<uint8_t>(set ? sreg | 1u << s
                                                    : sreg & ~(1u << s));
                ASSERT_TRUE(h.check(in, out, 1)) << s << " on " << sreg;
            }
        }
    }
    for (unsigned b = 0; b < 8; b++) {
        // BST: T <- Rd(b). BLD: Rd(b) <- T.
        for (bool store : {true, false}) {
            h.load(csprintf("%s r16, %u", store ? "bst" : "bld", b));
            for (uint8_t sreg : kSregIn) {
                for (unsigned a = 0; a < 256; a++) {
                    Arch in = baseState(a, sreg);
                    in.r[16] = a;
                    Arch out = in;
                    if (store)
                        out.sreg = static_cast<uint8_t>(
                            (sreg & ~fT) | ((a >> b) & 1 ? fT : 0));
                    else
                        out.r[16] = static_cast<uint8_t>(
                            (a & ~(1u << b)) | (sreg & fT ? 1u << b : 0));
                    ASSERT_TRUE(h.check(in, out, 1)) << b << " on " << a;
                }
            }
        }
    }
}

TEST(MachineAluExhaustive, BranchesTakenAndNotTaken)
{
    // Taken: PC <- PC + k + 1 and one extra cycle.
    Oracle h;
    for (bool bs : {true, false}) {
        for (unsigned s = 0; s < 8; s++) {
            h.load(csprintf("%s %u, taken\n"
                            "ldi r20, 0x11\n"
                            "jmp 0xffff\n"
                            "taken: ldi r20, 0x22",
                            bs ? "brbs" : "brbc", s));
            for (unsigned sreg = 0; sreg < 256; sreg++) {
                Arch in = baseState(sreg, static_cast<uint8_t>(sreg));
                const bool taken = bool(sreg >> s & 1) == bs;
                const unsigned cycles = taken ? 2 : 1;
                Arch out = in;
                out.r[20] = taken ? 0x22 : 0x11;
                ASSERT_TRUE(h.check(in, {in, cycles, taken ? 4u : 1u},
                                    {out, cycles + 1 + kJmpCycles,
                                     Machine::exitAddress}))
                    << (bs ? "brbs " : "brbc ") << s << " sreg " << sreg;
            }
        }
    }
}

namespace
{

/** A skip's successor: one or two words, with its own effect. */
struct Successor
{
    const char *src;
    unsigned words;
    unsigned cycles;
    bool exits;             ///< jumps to the exit itself
    void (*apply)(Arch &);
};

constexpr uint16_t kSkipLoad = 0x0300, kSkipStore = 0x0301;

const Successor kSuccessors[] = {
    {"ldi r20, 0x5a", 1, 1, false, [](Arch &a) { a.r[20] = 0x5a; }},
    {"lds r20, 0x0300", 2, 2, false,
     [](Arch &a) { a.r[20] = a.at(kSkipLoad); }},
    {"sts 0x0301, r17", 2, 2, false,
     [](Arch &a) { a.at(kSkipStore) = a.r[17]; }},
    {"jmp 0xffff", 2, 3, true, [](Arch &) {}},
};

/**
 * Check a skip instruction (at word 0, followed by @p succ) on @p in:
 * skipping costs one cycle more per skipped word.
 */
testing::AssertionResult
checkSkip(Oracle &h, const Arch &in, const Successor &succ, bool skip)
{
    if (skip) {
        const unsigned cycles = 1 + succ.words;
        return h.check(in, {in, cycles, 1 + succ.words},
                       {in, cycles + kJmpCycles, Machine::exitAddress});
    }
    Arch out = in;
    succ.apply(out);
    return h.check(in, {in, 1, 1},
                   {out, 1 + succ.cycles + (succ.exits ? 0 : kJmpCycles),
                    Machine::exitAddress});
}

} // anonymous namespace

TEST(MachineAluExhaustive, SkipsOverOneAndTwoWordSuccessors)
{
    Oracle h;
    for (const Successor &succ : kSuccessors) {
        // CPSE: skip if Rd == Rr.
        h.load(std::string("cpse r16, r17\n") + succ.src);
        for (unsigned a = 0; a < 256; a++) {
            for (unsigned b : {a, a ^ 1, a ^ 0x80, 255 - a}) {
                Arch in = baseState(a, kSregIn[a & 3]);
                in.watch({kSkipLoad, kSkipStore});
                in.r[16] = a;
                in.r[17] = static_cast<uint8_t>(b);
                ASSERT_TRUE(checkSkip(h, in, succ, a == (b & 0xff)))
                    << "cpse " << a << ", " << b << " / " << succ.src;
            }
        }
        // SBRC/SBRS: skip if register bit clear / set.
        for (bool if_set : {false, true}) {
            for (unsigned b = 0; b < 8; b++) {
                h.load(csprintf("%s r16, %u\n%s", if_set ? "sbrs" : "sbrc",
                                b, succ.src));
                for (unsigned a = 0; a < 256; a++) {
                    Arch in = baseState(a, kSregIn[a & 3]);
                    in.watch({kSkipLoad, kSkipStore});
                    in.r[16] = a;
                    ASSERT_TRUE(checkSkip(h, in, succ,
                                          bool(a >> b & 1) == if_set))
                        << (if_set ? "sbrs " : "sbrc ") << b << " on " << a
                        << " / " << succ.src;
                }
            }
        }
        // SBIC/SBIS: skip if I/O bit clear / set.
        for (bool if_set : {false, true}) {
            for (unsigned io : {0x00u, 0x1fu}) {
                for (unsigned b = 0; b < 8; b++) {
                    h.load(csprintf("%s %u, %u\n%s",
                                    if_set ? "sbis" : "sbic", io, b,
                                    succ.src));
                    for (unsigned v = 0; v < 256; v++) {
                        Arch in = baseState(v, kSregIn[v & 3]);
                        const uint16_t port = 0x20 + io;
                        in.watch({kSkipLoad, kSkipStore, port});
                        in.at(port) = static_cast<uint8_t>(v);
                        ASSERT_TRUE(checkSkip(h, in, succ,
                                              bool(v >> b & 1) == if_set))
                            << (if_set ? "sbis " : "sbic ") << io << ", "
                            << b << " on " << v << " / " << succ.src;
                    }
                }
            }
        }
    }
}

namespace
{

/** How a pointer form addresses data memory. */
enum class Mode
{
    Plain,   ///< (P)
    PostInc, ///< (P), then P <- P + 1
    PreDec,  ///< P <- P - 1, then (P)
    Disp,    ///< (P + q)
};

struct PointerForm
{
    const char *name; ///< pointer operand as written ("X+", "-Y", ...)
    unsigned p;       ///< low register of the pointer pair
    Mode mode;
};

const PointerForm kPointerForms[] = {
    {"X", 26, Mode::Plain},    {"X+", 26, Mode::PostInc},
    {"-X", 26, Mode::PreDec},  {"Y+", 28, Mode::PostInc},
    {"-Y", 28, Mode::PreDec},  {"Y", 28, Mode::Disp},
    {"Z+", 30, Mode::PostInc}, {"-Z", 30, Mode::PreDec},
    {"Z", 30, Mode::Disp},
};

/** Pointer values for the non-displacement forms (carries included). */
constexpr std::array<uint16_t, 4> kPointers = {0x0101, 0x01ff, 0x0200,
                                               0x10ff};
/** Pointer values for the displacement forms (P + 63 stays in SRAM). */
constexpr std::array<uint16_t, 4> kDispPointers = {0x0101, 0x01f0, 0x0a5a,
                                                   0x10c0};

/**
 * Drive every register through every pointer form of a load or a
 * store. The manual leaves the inc/dec forms undefined when the data
 * register is half of the pointer, so those are skipped.
 */
void
sweepPointerForms(bool store)
{
    Oracle h;
    for (const PointerForm &f : kPointerForms) {
        const unsigned max_q = f.mode == Mode::Disp ? 63 : 0;
        for (unsigned q = 0; q <= max_q; q++) {
            for (unsigned rd = 0; rd < 32; rd++) {
                const bool in_pair = rd == f.p || rd == f.p + 1;
                if (in_pair &&
                    (f.mode == Mode::PostInc || f.mode == Mode::PreDec))
                    continue;
                std::string ptr = f.mode == Mode::Disp
                                      ? csprintf("%s+%u", f.name, q)
                                      : std::string(f.name);
                const char *mn = f.mode == Mode::Disp
                                     ? (store ? "std" : "ldd")
                                     : (store ? "st" : "ld");
                const std::string src =
                    store ? csprintf("%s %s, r%u", mn, ptr.c_str(), rd)
                          : csprintf("%s r%u, %s", mn, rd, ptr.c_str());
                h.load(src);
                const auto &pointers =
                    f.mode == Mode::Disp ? kDispPointers : kPointers;
                for (uint16_t p : pointers) {
                    Arch in = baseState(p + rd + q, kSregIn[rd & 3]);
                    in.setPair(f.p, p);
                    const uint16_t ea = f.mode == Mode::PreDec ? p - 1
                                        : f.mode == Mode::Disp ? p + q
                                                               : p;
                    in.watch({static_cast<uint16_t>(p - 1), p,
                              static_cast<uint16_t>(p + 1), ea});
                    Arch out = in;
                    if (f.mode == Mode::PostInc)
                        out.setPair(f.p, p + 1);
                    if (f.mode == Mode::PreDec)
                        out.setPair(f.p, p - 1);
                    if (store)
                        out.at(ea) = in.r[rd];
                    else
                        out.r[rd] = in.at(ea);
                    ASSERT_TRUE(h.check(in, out, 2))
                        << src << " with pointer 0x" << std::hex << p;
                }
            }
        }
    }
    // LDS/STS: a direct 16-bit data address, two words.
    for (unsigned rd = 0; rd < 32; rd++) {
        for (uint16_t k : {0x0101, 0x0123, 0x10ff}) {
            const std::string src = store ? csprintf("sts 0x%x, r%u", k, rd)
                                          : csprintf("lds r%u, 0x%x", rd, k);
            h.load(src);
            Arch in = baseState(rd + k, kSregIn[rd & 3]);
            in.watch({static_cast<uint16_t>(k - 1), k,
                      static_cast<uint16_t>(k + 1)});
            Arch out = in;
            if (store)
                out.at(k) = in.r[rd];
            else
                out.r[rd] = in.at(k);
            ASSERT_TRUE(h.check(in, out, 2, 2)) << src;
        }
    }
}

} // anonymous namespace

TEST(MachineAluExhaustive, LoadsEveryPointerForm)
{
    sweepPointerForms(false);
}

TEST(MachineAluExhaustive, StoresEveryPointerForm)
{
    sweepPointerForms(true);
}

TEST(MachineAluExhaustive, PushPopAllRegisters)
{
    // PUSH: (SP) <- Rr, SP <- SP - 1. POP: SP <- SP + 1, Rd <- (SP).
    // The call() paths' exit frame holds 0xff at SP + 1 and SP + 2.
    Oracle h;
    constexpr uint16_t kStack[] = {0x0200, 0x0801, 0x10fd};
    for (unsigned rd = 0; rd < 32; rd++) {
        h.load(csprintf("push r%u", rd));
        for (uint16_t sp : kStack) {
            Arch in = baseState(rd + sp, kSregIn[rd & 3]);
            in.sp = sp;
            in.watch({static_cast<uint16_t>(sp - 1), sp,
                      static_cast<uint16_t>(sp + 1),
                      static_cast<uint16_t>(sp + 2)});
            in.at(sp + 1) = in.at(sp + 2) = 0xff;
            Arch out = in;
            out.at(sp) = in.r[rd];
            out.sp = sp - 1;
            ASSERT_TRUE(h.check(in, out, 2)) << "push r" << rd << " sp "
                                             << sp;
        }
        h.load(csprintf("pop r%u", rd));
        for (uint16_t sp : kStack) {
            Arch in = baseState(rd + sp, kSregIn[rd & 3]);
            in.sp = sp;
            in.watch({sp, static_cast<uint16_t>(sp + 1),
                      static_cast<uint16_t>(sp + 2),
                      static_cast<uint16_t>(sp + 3)});
            in.at(sp + 1) = in.at(sp + 2) = 0xff;
            Arch out = in;
            out.r[rd] = in.at(sp + 1);
            out.sp = sp + 1;
            ASSERT_TRUE(h.check(in, out, 2)) << "pop r" << rd << " sp "
                                             << sp;
        }
        // A push the following pop reads back: the call() paths run
        // both, step() the push alone.
        const unsigned rb = (rd + 7) % 32;
        h.load(csprintf("push r%u\npop r%u", rd, rb));
        for (uint16_t sp : kStack) {
            Arch in = baseState(rd * 5 + sp, kSregIn[rd & 3]);
            in.sp = sp;
            in.watch({static_cast<uint16_t>(sp - 1), sp,
                      static_cast<uint16_t>(sp + 1),
                      static_cast<uint16_t>(sp + 2)});
            in.at(sp + 1) = in.at(sp + 2) = 0xff;
            Arch pushed = in;
            pushed.at(sp) = in.r[rd];
            pushed.sp = sp - 1;
            Arch popped = pushed;
            popped.r[rb] = in.r[rd];
            popped.sp = sp;
            ASSERT_TRUE(h.check(in, {pushed, 2, 1},
                                {popped, 2 + 2 + kJmpCycles,
                                 Machine::exitAddress}))
                << "push r" << rd << " / pop r" << rb << " sp " << sp;
        }
    }
}

TEST(MachineAluExhaustive, LpmEveryForm)
{
    // Rd <- the program-memory byte at Z (low byte at even Z); Z+ then
    // increments Z. The table straddles byte address 0x100.
    constexpr uint16_t kTable[] = {0x1234, 0xa5c3, 0x0ff0, 0x7e81};
    const std::string table = "\n.org 0x7e\n.dw 0x1234, 0xa5c3, 0x0ff0, "
                              "0x7e81";
    Oracle h;
    struct Form
    {
        std::string src;
        unsigned rd;
        bool inc;
    };
    std::vector<Form> forms = {{"lpm", 0, false}};
    for (unsigned rd = 0; rd < 32; rd++) {
        forms.push_back({csprintf("lpm r%u, Z", rd), rd, false});
        if (rd != 30 && rd != 31)
            forms.push_back({csprintf("lpm r%u, Z+", rd), rd, true});
    }
    for (const Form &f : forms) {
        h.load(f.src + "\njmp 0xffff" + table);
        for (uint16_t z = 0xfc; z < 0x104; z++) {
            Arch in = baseState(z + f.rd, kSregIn[z & 3]);
            in.setPair(30, z);
            const uint16_t w = kTable[(z >> 1) - 0x7e];
            Arch out = in;
            out.r[f.rd] = static_cast<uint8_t>(z & 1 ? w >> 8 : w);
            if (f.inc)
                out.setPair(30, z + 1);
            ASSERT_TRUE(h.check(in, out, 3)) << f.src << " Z=" << z;
        }
    }
}

TEST(MachineAluExhaustive, IoSpaceOps)
{
    // IN/OUT move a byte between a register and I/O space (SREG is I/O
    // 0x3f); SBI/CBI set/clear one bit of I/O 0..31 in two cycles.
    Oracle h;
    constexpr unsigned kPort = 0x10;
    const uint16_t port = 0x20 + kPort;
    h.load(csprintf("in r16, %u", kPort));
    for (unsigned v = 0; v < 256; v++) {
        Arch in = baseState(v, kSregIn[v & 3]);
        in.watch({port});
        in.at(port) = static_cast<uint8_t>(v);
        Arch out = in;
        out.r[16] = static_cast<uint8_t>(v);
        ASSERT_TRUE(h.check(in, out, 1)) << "in " << v;
    }
    h.load(csprintf("out %u, r16", kPort));
    for (unsigned v = 0; v < 256; v++) {
        Arch in = baseState(v, kSregIn[v & 3]);
        in.watch({port});
        in.r[16] = static_cast<uint8_t>(v);
        Arch out = in;
        out.at(port) = static_cast<uint8_t>(v);
        ASSERT_TRUE(h.check(in, out, 1)) << "out " << v;
    }
    h.load("in r16, 0x3f");
    for (unsigned s = 0; s < 256; s++) {
        Arch in = baseState(s, static_cast<uint8_t>(s));
        Arch out = in;
        out.r[16] = static_cast<uint8_t>(s);
        ASSERT_TRUE(h.check(in, out, 1)) << "in SREG " << s;
    }
    h.load("out 0x3f, r16");
    for (unsigned v = 0; v < 256; v++) {
        Arch in = baseState(v, kSregIn[v & 3]);
        in.r[16] = static_cast<uint8_t>(v);
        Arch out = in;
        out.sreg = static_cast<uint8_t>(v);
        ASSERT_TRUE(h.check(in, out, 1)) << "out SREG " << v;
    }
    for (bool set : {true, false}) {
        for (unsigned io : {0x00u, 0x1fu}) {
            for (unsigned b = 0; b < 8; b++) {
                h.load(csprintf("%s %u, %u", set ? "sbi" : "cbi", io, b));
                for (unsigned v = 0; v < 256; v++) {
                    Arch in = baseState(v + b, kSregIn[v & 3]);
                    const uint16_t a = 0x20 + io;
                    in.watch({a});
                    in.at(a) = static_cast<uint8_t>(v);
                    Arch out = in;
                    out.at(a) = static_cast<uint8_t>(set ? v | 1u << b
                                                         : v & ~(1u << b));
                    ASSERT_TRUE(h.check(in, out, 2))
                        << (set ? "sbi " : "cbi ") << io << ", " << b
                        << " on " << v;
                }
            }
        }
    }
}
