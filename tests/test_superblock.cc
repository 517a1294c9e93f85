/**
 * @file
 * Tests pinning the superblock-threaded backend (DESIGN.md §11) to
 * the step() reference implementation: exhaustive all-opcode-word
 * replay in all three CPU modes and every MACCR mode (with the word
 * inside a MAC shadow, and with a shadow pending at run entry),
 * random program soup, trap-in-mid-trace side exits, MAC hazards,
 * shadows and MACCR stores inside traces, trace invalidation through
 * the GDB flash-patch path, the JAAVR_ISS_BACKEND selection switch,
 * and the decode-canonicalization (synonym) satellite.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>

#include "avr/isa.hh"
#include "avr/mac_unit.hh"
#include "avr/machine.hh"
#include "avr/timing.hh"
#include "avrasm/assembler.hh"
#include "avrgen/secp160_harness.hh"
#include "debug/target.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/**
 * Fast whole-state equality (no gtest overhead in the hot loop):
 * registers, SREG, SP, PC, the full internal SRAM, every statistic,
 * the MAC unit, and the pending trap.
 */
bool
sameState(const Machine &a, const Machine &b)
{
    for (unsigned i = 0; i < 32; i++)
        if (a.reg(i) != b.reg(i))
            return false;
    if (a.sreg() != b.sreg() || a.sp() != b.sp() || a.pc() != b.pc())
        return false;
    if (a.stats().instructions != b.stats().instructions ||
        a.stats().cycles != b.stats().cycles ||
        a.stats().opCount != b.stats().opCount ||
        a.stats().opCycles != b.stats().opCycles ||
        a.stats().macStallNops != b.stats().macStallNops)
        return false;
    if (!(a.trap() == b.trap()))
        return false;
    if (a.mac().pendingShadow() != b.mac().pendingShadow() ||
        a.mac().shiftCounter() != b.mac().shiftCounter() ||
        a.mac().alg1Macs() != b.mac().alg1Macs() ||
        a.mac().alg2Macs() != b.mac().alg2Macs() ||
        a.maccr() != b.maccr())
        return false;
    return a.readBytes(Machine::sramBase, 0x1000) ==
           b.readBytes(Machine::sramBase, 0x1000);
}

/** Detailed mismatch report (called only once sameState() failed). */
void
explainState(const Machine &a, const Machine &b, const char *a_name,
             const char *b_name)
{
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(a.reg(i), b.reg(i)) << "r" << i;
    EXPECT_EQ(a.sreg(), b.sreg()) << "sreg";
    EXPECT_EQ(a.sp(), b.sp()) << "sp";
    EXPECT_EQ(a.pc(), b.pc()) << "pc";
    EXPECT_EQ(a.stats().instructions, b.stats().instructions)
        << "instructions";
    EXPECT_EQ(a.stats().cycles, b.stats().cycles) << "cycles";
    for (size_t op = 0; op < kNumOps; op++) {
        EXPECT_EQ(a.stats().opCount[op], b.stats().opCount[op])
            << "opCount " << opName(static_cast<Op>(op));
        EXPECT_EQ(a.stats().opCycles[op], b.stats().opCycles[op])
            << "opCycles " << opName(static_cast<Op>(op));
    }
    EXPECT_EQ(a.stats().macStallNops, b.stats().macStallNops);
    EXPECT_EQ(a.mac().pendingShadow(), b.mac().pendingShadow());
    EXPECT_EQ(a.mac().shiftCounter(), b.mac().shiftCounter());
    EXPECT_EQ(a.mac().alg1Macs(), b.mac().alg1Macs());
    EXPECT_EQ(a.mac().alg2Macs(), b.mac().alg2Macs());
    EXPECT_EQ(a.maccr(), b.maccr());
    EXPECT_TRUE(a.trap() == b.trap())
        << "trap kind " << static_cast<int>(a.trap().kind) << " vs "
        << static_cast<int>(b.trap().kind) << " pc 0x" << std::hex
        << a.trap().pc << " vs 0x" << b.trap().pc;
    EXPECT_EQ(a.readBytes(Machine::sramBase, 0x1000),
              b.readBytes(Machine::sramBase, 0x1000)) << "sram";
    ADD_FAILURE() << "state mismatch between " << a_name << " and "
                  << b_name;
}

/** Identical deterministic seeding for every machine under test. */
void
seed(Machine &m, uint32_t salt)
{
    for (unsigned i = 0; i < 32; i++)
        m.setReg(i, static_cast<uint8_t>(i * 29 + salt));
    m.setSreg(static_cast<uint8_t>(salt >> 8));
    m.setSp(0x10e0);
    m.setX(0x0200);
    m.setY(0x0240);
    m.setZ(0x0280);
}

/** Where a run ended, for assertions beyond backend equality. */
struct Outcome
{
    Trap trap;
    uint8_t shadow;
    uint64_t stalls;
};

/**
 * Run @p prog on both backends from identical state (MACCR preset to
 * @p maccr) and verify bit- and cycle-identical outcomes (reference
 * is truth).
 */
Outcome
expectBackendEquivalence(const Program &prog, CpuMode mode,
                         uint64_t budget = Machine::defaultCycleBudget,
                         uint32_t salt = 0x1a2b, uint8_t maccr = 0)
{
    Machine ref(mode), sb(mode);
    ref.setBackend(IssBackend::Reference);
    sb.setBackend(IssBackend::Superblock);
    for (Machine *m : {&ref, &sb}) {
        m->loadProgram(prog.words, 0);
        seed(*m, salt);
        m->setMaccr(maccr);
        for (uint16_t a = 0x200; a < 0x2c0; a++)
            m->writeData(a, static_cast<uint8_t>(a * 7 + salt));
        m->call(0, budget);
    }
    if (!sameState(ref, sb))
        explainState(ref, sb, "reference", "superblock");
    return {sb.trap(), sb.mac().pendingShadow(), sb.stats().macStallNops};
}

} // anonymous namespace

/*
 * Exhaustive replay: every one of the 65536 primary opcode words,
 * executed inside a translated trace, must leave both backends in
 * bit- and cycle-identical state — registers, SREG, SP, PC, SRAM,
 * per-op statistics, the MAC unit and the stopping trap. Because the
 * synonym encodings (LSL/ROL/TST/CLR = ADD/ADC/AND/EOR with rd==rr)
 * are among these words, this is also the behavioral proof that
 * decode canonicalization changed nothing.
 *
 * The word under test sits at 1, after an `ld r24, X` (the
 * Algorithm-2 trigger shape) and before a varying operand word and
 * erased flash, so two-word forms get a live operand and straight
 * lines fall off into a FlashOutOfBounds stop; a small cycle budget
 * bounds runaway loops (rjmp .-2 and friends). ISE runs under every
 * MACCR mode; in the load modes the word also runs right behind the
 * trigger in the same trace (its MAC shadow decided at translate
 * time) and with the trigger's shadow still pending when run()
 * starts. Architectural state carries over from word to word — it
 * stays identical across the machines by induction, and serves as
 * varied seeding.
 */
TEST(Superblock, AllOpcodeWordsMatchReferenceAllModes)
{
    enum class Entry
    {
        Plain,         ///< run() starts at the word
        InShadow,      ///< the trigger runs first, in the same trace
        ShadowPending, ///< run(1) retires the trigger, then run()
    };
    struct Leg
    {
        CpuMode mode;
        uint8_t maccr;
        Entry entry;
    };
    std::vector<Leg> legs = {{CpuMode::CA, 0, Entry::Plain},
                             {CpuMode::FAST, 0, Entry::Plain}};
    for (uint8_t maccr = 0; maccr <= 3; maccr++) {
        legs.push_back({CpuMode::ISE, maccr, Entry::Plain});
        if (maccr & MacUnit::ctrlLoadMode) {
            legs.push_back({CpuMode::ISE, maccr, Entry::InShadow});
            legs.push_back({CpuMode::ISE, maccr, Entry::ShadowPending});
        }
    }
    const uint16_t trigger = assemble("ld r24, X", "trigger").words[0];

    for (const Leg &leg : legs) {
        Machine ref(leg.mode), sb(leg.mode);
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
        for (uint32_t w = 0; w <= 0xffff; w++) {
            const uint16_t operand =
                static_cast<uint16_t>(w * 0x9e37u + 0x1234u);
            const std::vector<uint16_t> words = {
                trigger, static_cast<uint16_t>(w), operand, 0xffff,
                0xffff};
            for (Machine *m : {&ref, &sb}) {
                m->loadProgram(words, 0);
                seed(*m, w);
                m->setMaccr(leg.maccr);
                m->setPc(leg.entry == Entry::Plain ? 1 : 0);
                if (leg.entry == Entry::ShadowPending)
                    m->run(1);
                m->run(64);
            }
            if (!sameState(ref, sb)) {
                explainState(ref, sb, "reference", "superblock");
                FAIL() << "word 0x" << std::hex << w << " mode "
                       << cpuModeName(leg.mode) << " maccr "
                       << int(leg.maccr) << " entry "
                       << static_cast<int>(leg.entry);
            }
        }
    }
}

/*
 * Randomized straight-line/branch/memory soup with in-trace loops:
 * long enough that translation hits revisited PCs, taken branches,
 * skips over one- and two-word targets, and block-cache reuse. In
 * ISE the soup also runs under every MACCR mode: SWAPs and R24 loads
 * then trigger MACs, and the random register traffic soon hits a
 * shadow hazard inside a trace.
 */
TEST(Superblock, RandomProgramBackendEquivalence)
{
    static const char *const kAlu[] = {
        "add r%u, r%u", "adc r%u, r%u", "sub r%u, r%u",
        "sbc r%u, r%u", "and r%u, r%u", "or r%u, r%u",
        "eor r%u, r%u", "mov r%u, r%u", "cp r%u, r%u",
        "cpc r%u, r%u", "mul r%u, r%u",
    };
    static const char *const kSingle[] = {
        "com r%u", "neg r%u", "swap r%u", "inc r%u", "dec r%u",
        "asr r%u", "lsr r%u", "ror r%u",  "lsl r%u", "rol r%u",
        "tst r%u", "push r%u", "pop r%u",
    };

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Rng rng(0x5b10c + static_cast<unsigned>(mode));
        auto r = [&](unsigned bound) {
            return static_cast<unsigned>(rng.below(bound));
        };
        std::string src;
        src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
        src += "ldi r28, 0x40\nldi r29, 0x02\n";  // Y = 0x0240
        src += "ldi r30, 0x80\nldi r31, 0x02\n";  // Z = 0x0280
        for (int blockn = 0; blockn < 60; blockn++) {
            // A bounded counted loop per block: brne back-edges close
            // superblocks and re-enter them repeatedly.
            src += csprintf("ldi r25, %u\n", 2 + r(6));
            src += csprintf("blk%d:\n", blockn);
            for (int i = 0; i < 24; i++) {
                switch (rng.below(6)) {
                  case 0: case 1:
                    src += csprintf(kAlu[rng.below(std::size(kAlu))],
                                    r(24), r(24));
                    break;
                  case 2:
                    src += csprintf(
                        kSingle[rng.below(std::size(kSingle))], r(24));
                    break;
                  case 3:
                    src += csprintf("std Y+%u, r%u", r(32), r(24));
                    break;
                  case 4:
                    src += csprintf("ldd r%u, Z+%u", r(24), r(32));
                    break;
                  case 5:
                    // Skip over a one- or two-word instruction.
                    if (r(2)) {
                        src += csprintf("sbrc r%u, %u\n", r(24), r(8));
                        src += csprintf("sts 0x0%x, r%u", 0x220 + r(64),
                                        r(24));
                    } else {
                        src += csprintf("sbrs r%u, %u\n", r(24), r(8));
                        src += csprintf(
                            kSingle[rng.below(std::size(kSingle))],
                            r(24));
                    }
                    break;
                }
                src += "\n";
            }
            src += "dec r25\n";
            src += csprintf("brne blk%d\n", blockn);
        }
        src += "ret\n";
        const Program prog = assemble(src, "soup");
        expectBackendEquivalence(prog, mode);
        if (mode == CpuMode::ISE)
            for (uint8_t maccr = 1; maccr <= 3; maccr++)
                expectBackendEquivalence(prog, mode,
                                         Machine::defaultCycleBudget,
                                         0x1a2b, maccr);
    }
}

/*
 * Side exit: a trap in the middle of a translated trace must not
 * retire the trapping instruction, must charge exactly the retired
 * prefix, and must leave PC at the trapping instruction — bit- and
 * cycle-identical to the reference on every trap kind reachable from
 * straight-line code.
 */
TEST(Superblock, TrapMidTraceSramOutOfBounds)
{
    // The sts at trace position 4 targets unimplemented data space.
    Program p = assemble("add r0, r1\n"
                         "adc r2, r3\n"
                         "ldi r16, 0x5a\n"
                         "eor r4, r4\n"
                         "sts 0x2000, r16\n"
                         "ldi r17, 0x99\n"  // must NOT execute
                         "ret\n",
                         "oob");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        expectBackendEquivalence(p, mode);
        Machine sb(mode);
        sb.loadProgram(p.words, 0);
        seed(sb, 1);
        RunResult r = sb.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(r.trap.addr, 0x2000u);
        EXPECT_EQ(sb.reg(17), static_cast<uint8_t>(29 * 17 + 1))
            << "instruction after the trap must not have executed";
    }
}

TEST(Superblock, TrapMidTraceStackOverflow)
{
    std::string src;
    for (int i = 0; i < 8; i++)
        src += csprintf("push r%d\n", i);
    src += "ret\n";
    Program p = assemble(src, "stackov");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Machine ref(mode), sb(mode);
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
        for (Machine *m : {&ref, &sb}) {
            m->loadProgram(p.words, 0);
            seed(*m, 2);
            // Room for the call's return address plus three pushes.
            m->setSp(Machine::sramBase + 4);
            m->call(0);
        }
        if (!sameState(ref, sb))
            explainState(ref, sb, "reference", "superblock");
        EXPECT_EQ(sb.trap().kind, TrapKind::StackOverflow);
    }
}

TEST(Superblock, TrapMidTraceIllegalAndFlashOob)
{
    // Find a reserved (non-erased) encoding for the illegal case.
    uint16_t illegal = 0;
    for (uint32_t w = 1; w <= 0xfffe; w++) {
        if (decode(static_cast<uint16_t>(w), 0).op == Op::INVALID) {
            illegal = static_cast<uint16_t>(w);
            break;
        }
    }
    ASSERT_NE(illegal, 0) << "no reserved encoding found";

    Program head = assemble("add r0, r1\nadc r2, r3\n", "head");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        // Illegal opcode mid-trace (EXIT_TRAP discriminates at run
        // time on the flash word).
        Program ill = head;
        ill.words.push_back(illegal);
        expectBackendEquivalence(ill, mode);
        Machine m1(mode);
        m1.loadProgram(ill.words, 0);
        seed(m1, 3);
        EXPECT_EQ(m1.call(0).trap.kind, TrapKind::IllegalOpcode);
        EXPECT_EQ(m1.trap().pc, 2u);

        // Straight line off the end of the program into erased flash.
        expectBackendEquivalence(head, mode);
        Machine m2(mode);
        m2.loadProgram(head.words, 0);
        seed(m2, 4);
        EXPECT_EQ(m2.call(0).trap.kind, TrapKind::FlashOutOfBounds);
        EXPECT_EQ(m2.trap().pc, 2u);
    }
}

/*
 * Budget side exit: superblock delegates budget-critical passes to
 * the reference loop, which must land the CycleBudget trap on exactly the
 * same instruction boundary as the reference (>= semantics), even
 * when the budget expires mid-trace.
 */
TEST(Superblock, CycleBudgetMidTraceMatchesReference)
{
    std::string src = "start:\n";
    for (int i = 0; i < 23; i++)
        src += csprintf("add r%d, r%d\n", i % 20, (i + 1) % 20);
    src += "rjmp start\n";
    Program p = assemble(src, "spin");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        // Budgets around one, several, and mid-pass multiples of the
        // trace length (23 adds + rjmp = 25 cycles per iteration).
        for (uint64_t budget : {1ull, 7ull, 24ull, 25ull, 26ull,
                                250ull, 261ull, 1000ull}) {
            Machine ref(mode), sb(mode);
            ref.setBackend(IssBackend::Reference);
            sb.setBackend(IssBackend::Superblock);
            for (Machine *m : {&ref, &sb}) {
                m->loadProgram(p.words, 0);
                seed(*m, static_cast<uint32_t>(budget));
                m->setPc(0);
                RunResult r = m->run(budget);
                EXPECT_EQ(r.trap.kind, TrapKind::CycleBudget);
                // A multi-cycle instruction may straddle the budget
                // (>= stop semantics); both paths must overshoot by
                // the same amount, which sameState() pins below.
                EXPECT_GE(r.cycles, budget);
            }
            if (!sameState(ref, sb))
                explainState(ref, sb, "reference", "superblock");
        }
    }
}

/*
 * MACCR side exit: an OUT/ST that changes the MAC mode mid-trace
 * retires in the superblock, then the run continues under traces of
 * the new mode — Algorithm 2 load-mac triggers, shadow micro-ops and
 * stall accounting must be identical to the reference. In non-ISE
 * modes the same store is inert and the trace keeps running.
 */
TEST(Superblock, MaccrStoreSideExitsMidTrace)
{
    std::string src;
    src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
    src += "ldi r16, 0x42\nst X, r16\n";
    src += csprintf("ldi r17, %u\n",
                    static_cast<unsigned>(MacUnit::ctrlLoadMode));
    src += "out 0x3c, r17\n";   // enable MAC load mode (MACCR)
    src += "ld r24, X+\n";      // Algorithm 2 trigger (r24 load)
    src += "nop\nnop\nnop\n";   // shadow drain window
    src += "add r0, r1\n";
    src += "ldi r18, 0\nout 0x3c, r18\n";  // disable again
    src += "eor r2, r3\n";
    src += "ret\n";
    Program p = assemble(src, "maccr");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
        expectBackendEquivalence(p, mode);
}

/*
 * MAC code inside traces (ISE). Each program starts by writing MACCR
 * itself, so the run changes mode mid-trace before the MAC work.
 */
namespace
{

/** Prologue: X = 0x0200, MACCR = @p maccr. */
std::string
macPrologue(uint8_t maccr)
{
    return csprintf("ldi r26, 0x00\nldi r27, 0x02\n"
                    "ldi r25, %u\nout 0x3c, r25\n",
                    static_cast<unsigned>(maccr));
}

/** Run @p src on both backends in ISE (see expectBackendEquivalence). */
Outcome
runMacProgram(const std::string &src)
{
    return expectBackendEquivalence(assemble(src, "mac"), CpuMode::ISE);
}

} // anonymous namespace

/*
 * A hazard inside a trace: the trace ends just before the offending
 * element, and the shadow drain at block entry lets step() raise the
 * trap — same kind, pc, detail and partial state as the reference.
 */
TEST(Superblock, MacHazardInsideTraceMatchesReference)
{
    const std::string pro = macPrologue(MacUnit::ctrlLoadMode);
    // Word 4 is the trigger; 5 is the offender.
    Outcome touch = runMacProgram(pro + "ld r24, X+\nadd r0, r1\nret\n");
    EXPECT_EQ(touch.trap, (Trap{TrapKind::MacHazard, 5, 0}));
    EXPECT_EQ(touch.shadow, 2);

    Outcome back = runMacProgram(pro + "ld r24, X+\nld r24, X+\nret\n");
    EXPECT_EQ(back.trap, (Trap{TrapKind::MacHazard, 5, 1}));

    // Retriggering one cycle into the shadow is legal; touching a
    // MAC register one cycle later is not.
    Outcome late = runMacProgram(
        pro + "ld r24, X+\nnop\nld r24, X+\nmov r20, r21\n"
              "movw r16, r20\nret\n");
    EXPECT_EQ(late.trap, (Trap{TrapKind::MacHazard, 8, 0}));
    EXPECT_EQ(late.stalls, 1u);
}

/*
 * One entry PC executed under two MACCR modes on the same machine:
 * the cached translation of one mode must never run under another.
 */
TEST(Superblock, OneEntryUnderTwoMaccrModes)
{
    Program p = assemble("swap r20\n"       // Alg. 1 trigger in mode 1
                         "ld r24, X+\n"     // Alg. 2 trigger in mode 2
                         "nop\nnop\n"
                         "add r0, r20\n"
                         "ret\n",
                         "modes");
    Machine ref(CpuMode::ISE), sb(CpuMode::ISE);
    ref.setBackend(IssBackend::Reference);
    sb.setBackend(IssBackend::Superblock);
    for (Machine *m : {&ref, &sb}) {
        m->loadProgram(p.words, 0);
        seed(*m, 7);
    }
    for (uint8_t maccr : {1, 2, 1, 3, 0, 2}) {
        for (Machine *m : {&ref, &sb}) {
            m->setMaccr(maccr);
            m->setX(0x0200);
            EXPECT_TRUE(m->call(0).ok());
        }
        if (!sameState(ref, sb))
            explainState(ref, sb, "reference", "superblock");
    }
    EXPECT_GT(sb.mac().alg1Macs(), 0u);
    EXPECT_GT(sb.mac().alg2Macs(), 0u);
}

/*
 * Exits inside a shadow write back the exact pending shadow: a taken
 * branch charges its extra cycle (so the NOP behind it is no stall),
 * a not-taken one does not, and a memory trap leaves the shadow of
 * just before the trapping instruction — including a trapping R24
 * load, whose 0xff still triggers the MAC as on the reference.
 */
TEST(Superblock, BranchAndMemoryTrapInsideShadow)
{
    const std::string pro = macPrologue(MacUnit::ctrlLoadMode);
    Outcome taken = runMacProgram(
        pro + "clz\nld r24, X+\nbrne past\nnop\npast: nop\nnop\nret\n");
    EXPECT_TRUE(taken.trap.kind == TrapKind::None);
    EXPECT_EQ(taken.stalls, 0u);

    Outcome fallthrough = runMacProgram(
        pro + "sez\nld r24, X+\nbrne past\nnop\npast: nop\nnop\nret\n");
    EXPECT_EQ(fallthrough.stalls, 1u);

    Outcome oob = runMacProgram(
        pro + "ld r24, X+\nsts 0x2000, r20\nret\n");
    EXPECT_EQ(oob.trap.kind, TrapKind::SramOutOfBounds);
    EXPECT_EQ(oob.shadow, 2);

    Outcome oob_trigger = runMacProgram(
        pro + "ld r24, X+\nnop\nldi r30, 0xff\nldi r31, 0x7f\n"
              "ld r24, Z+\nret\n");
    EXPECT_EQ(oob_trigger.trap.kind, TrapKind::SramOutOfBounds);
}

/*
 * OUT MACCR in the middle of a trace, inside a shadow: the write
 * resets the MAC counter, the shadow keeps counting down as on the
 * reference, and the rest runs under the new mode (Alg. 1 SWAP).
 */
TEST(Superblock, MidTraceMaccrWriteInsideShadow)
{
    const std::string pro = macPrologue(MacUnit::ctrlLoadMode);
    Outcome out = runMacProgram(
        pro + csprintf("ldi r23, %u\n",
                       static_cast<unsigned>(MacUnit::ctrlSwapMode)) +
        "ld r24, X+\nout 0x3c, r23\nnop\nswap r22\nswap r21\n"
        "out 0x3c, r1\nret\n");
    EXPECT_TRUE(out.trap.kind == TrapKind::None);
    EXPECT_EQ(out.stalls, 1u);
}

/** The full MAC-ISE multiplication kernel, superblock vs reference. */
TEST(Superblock, Secp160MulIseMatchesReference)
{
    Rng rng(0x5ec9);
    std::vector<uint32_t> a(5), b(5);
    for (auto *v : {&a, &b}) {
        for (auto &word : *v)
            word = rng.next32();
        (*v)[4] &= 0x7fffffff;
    }
    Secp160AvrLibrary lib(CpuMode::ISE);
    lib.machine().setBackend(IssBackend::Superblock);
    OpfRun s = lib.mulIse(a, b);
    lib.machine().setBackend(IssBackend::Reference);
    OpfRun r = lib.mulIse(a, b);
    EXPECT_EQ(s.result, r.result);
    EXPECT_EQ(s.cycles, r.cycles);
    EXPECT_EQ(s.instructions, r.instructions);
}

/*
 * Self-modifying flash through the GDB `M`/`X` packet path
 * (DebugTarget::writeMemory -> corruptFlashWord): a cached trace of
 * the pre-patch program must be dropped, and the patched instruction
 * must execute as patched on the very next run.
 */
TEST(Superblock, GdbFlashPatchInvalidatesTraces)
{
    Program p1 = assemble("ldi r24, 1\nldi r25, 3\nret", "p1");
    Program p2 = assemble("ldi r24, 2\nldi r25, 3\nret", "p2");
    ASSERT_EQ(p1.words.size(), p2.words.size());

    Machine m(CpuMode::CA);
    m.setBackend(IssBackend::Superblock);
    m.loadProgram(p1.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(24), 1);

    // Patch word 0 through the gdb flash address space (byte 0..1,
    // little endian). The target is attached but passive, so runs
    // keep using the superblock backend.
    DebugTarget target(m);
    EXPECT_FALSE(target.wantsStops());
    ASSERT_TRUE(target.writeMemory(
        0, {static_cast<uint8_t>(p2.words[0] & 0xff),
            static_cast<uint8_t>(p2.words[0] >> 8)}));

    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(24), 2)
        << "stale superblock trace executed after a flash patch";
    EXPECT_EQ(m.reg(25), 3);
}

/** loadProgram() equally drops stale traces (non-debug path). */
TEST(Superblock, LoadProgramInvalidatesTraces)
{
    Program p1 = assemble("ldi r20, 7\nret", "p1");
    Program p2 = assemble("ldi r20, 9\nret", "p2");
    Machine m(CpuMode::FAST);
    m.setBackend(IssBackend::Superblock);
    m.loadProgram(p1.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(20), 7);
    m.loadProgram(p2.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(20), 9);
}

/** JAAVR_ISS_BACKEND selects the construction-time backend. */
TEST(Superblock, BackendEnvironmentSelection)
{
    setenv("JAAVR_ISS_BACKEND", "reference", 1);
    EXPECT_EQ(issBackendFromEnv(), IssBackend::Reference);
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Reference);
    setenv("JAAVR_ISS_BACKEND", "superblock", 1);
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock);
    // Unknown values (the retired "fast" included) warn and keep the
    // default.
    for (const char *v : {"fast", "warp-drive"}) {
        setenv("JAAVR_ISS_BACKEND", v, 1);
        EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock);
    }
    unsetenv("JAAVR_ISS_BACKEND");
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock);

    // Name round-trip used by benches and tools.
    EXPECT_STREQ(issBackendName(IssBackend::Reference), "reference");
    EXPECT_STREQ(issBackendName(IssBackend::Superblock), "superblock");
}

/*
 * Decode canonicalization satellite: over the whole 16-bit word
 * space, synonymOf() classifies exactly the rd==rr forms of
 * ADD/ADC/AND/EOR as LSL/ROL/TST/CLR (and nothing else), the
 * assembler folds the alias mnemonics onto the same encodings, and
 * the disassembler prints the idiomatic alias. Behavioral
 * equivalence of the specialized superblock handlers is covered by
 * AllOpcodeWordsMatchReferenceAllModes above.
 */
TEST(Superblock, SynonymClassificationExhaustive)
{
    unsigned counts[5] = {};
    for (uint32_t w = 0; w <= 0xffff; w++) {
        Inst i = decode(static_cast<uint16_t>(w), 0x1234);
        Synonym s = synonymOf(i);
        Synonym expect = Synonym::None;
        if (i.rd == i.rr) {
            switch (i.op) {
              case Op::ADD: expect = Synonym::LSL; break;
              case Op::ADC: expect = Synonym::ROL; break;
              case Op::AND: expect = Synonym::TST; break;
              case Op::EOR: expect = Synonym::CLR; break;
              default: break;
            }
        }
        ASSERT_EQ(s, expect) << "word 0x" << std::hex << w;
        counts[static_cast<size_t>(s)]++;
    }
    // 32 registers per synonym class, each a unique encoding.
    for (Synonym s : {Synonym::LSL, Synonym::ROL, Synonym::TST,
                      Synonym::CLR})
        EXPECT_EQ(counts[static_cast<size_t>(s)], 32u);

    for (unsigned rd : {0u, 7u, 16u, 31u}) {
        EXPECT_EQ(assemble(csprintf("lsl r%u", rd), "a").words,
                  assemble(csprintf("add r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("rol r%u", rd), "a").words,
                  assemble(csprintf("adc r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("tst r%u", rd), "a").words,
                  assemble(csprintf("and r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("clr r%u", rd), "a").words,
                  assemble(csprintf("eor r%u, r%u", rd, rd), "b").words);

        uint16_t add_w = assemble(csprintf("add r%u, r%u", rd, rd),
                                  "w").words[0];
        EXPECT_EQ(disassemble(decode(add_w, 0)),
                  csprintf("lsl r%u", rd));
    }

    // The decode cache carries the classification for the backend.
    Machine m(CpuMode::CA);
    m.loadProgram(assemble("lsl r9\nadd r9, r8\n", "dc").words, 0);
    EXPECT_EQ(m.decoded(0).synonym, Synonym::LSL);
    EXPECT_EQ(m.decoded(1).synonym, Synonym::None);
}

/*
 * Call/return stitching: RCALL/CALL continue translation into the
 * callee and RET side-exits through the pushed return address;
 * nested calls and an ICALL through Z must behave identically on all
 * backends, cycles included.
 */
TEST(Superblock, CallStitchingAndIndirectControlFlow)
{
    std::string src;
    src += "rcall f1\n";
    src += "call f2\n";
    src += "ldi r30, lo8(f1)\nldi r31, hi8(f1)\n";
    src += "icall\n";
    src += "ijmp_done:\nret\n";
    src += "f1:\ninc r20\nrcall f2\nret\n";
    src += "f2:\ninc r21\nret\n";
    Program p = assemble(src, "calls");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
        expectBackendEquivalence(p, mode);
}
