/**
 * @file
 * Trap semantics of the Machine: every anomaly that used to
 * panic()-abort must now raise a recoverable Trap through
 * run()/call(), with identical behavior on the step() reference path
 * and the superblock backend, and without retiring the faulting
 * instruction. Covers each memory-protection boundary (SRAM data
 * limit, stack guard, erased flash), the exhaustive illegal-opcode
 * space, stack overflow from a recursive program, and superblock-vs-
 * reference trap equality on random wild-access programs.
 */

#include <gtest/gtest.h>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/** Run the same program on both paths; expect the same trap. */
Trap
trapOnBothPaths(const std::string &src, CpuMode mode = CpuMode::CA,
                uint64_t budget = Machine::defaultCycleBudget)
{
    Program prog = assemble(src, "t");
    Trap traps[2];
    uint64_t cycles[2];
    for (int reference = 0; reference < 2; reference++) {
        Machine m(mode);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        RunResult r = m.call(0, budget);
        traps[reference] = r.trap;
        cycles[reference] = r.cycles;
        EXPECT_EQ(r.trap, m.trap());
    }
    EXPECT_EQ(traps[0], traps[1]) << "superblock: " << traps[0].describe()
                                  << " vs ref: " << traps[1].describe();
    EXPECT_EQ(cycles[0], cycles[1]);
    return traps[0];
}

} // namespace

// --- SRAM data-limit boundary ---------------------------------------

TEST(MachineTraps, LoadAtDataLimitIsFine)
{
    // 0x10ff is the last byte of the ATmega128's internal SRAM.
    Trap t = trapOnBothPaths(R"(
        ldi r26, 0xff
        ldi r27, 0x10
        ld r16, X
        ret
    )");
    EXPECT_EQ(t.kind, TrapKind::None);
}

TEST(MachineTraps, LoadPastDataLimitTraps)
{
    Trap t = trapOnBothPaths(R"(
        ldi r26, 0x00
        ldi r27, 0x11
        ld r16, X
        ret
    )");
    EXPECT_EQ(t.kind, TrapKind::SramOutOfBounds);
    EXPECT_EQ(t.addr, 0x1100u);
    EXPECT_EQ(t.pc, 2u);  // the LD, after two LDIs
}

TEST(MachineTraps, StorePastDataLimitTraps)
{
    Trap t = trapOnBothPaths(R"(
        ldi r28, 0xfd
        ldi r29, 0x10
        ldi r16, 0xaa
        std Y+3, r16
        ret
    )");
    EXPECT_EQ(t.kind, TrapKind::SramOutOfBounds);
    EXPECT_EQ(t.addr, 0x1100u);
}

TEST(MachineTraps, StsLdsPastDataLimitTrap)
{
    Trap st = trapOnBothPaths("ldi r16, 1\nsts 0x2000, r16\nret");
    EXPECT_EQ(st.kind, TrapKind::SramOutOfBounds);
    EXPECT_EQ(st.addr, 0x2000u);

    Trap ld = trapOnBothPaths("lds r16, 0xfffe\nret");
    EXPECT_EQ(ld.kind, TrapKind::SramOutOfBounds);
    EXPECT_EQ(ld.addr, 0xfffeu);
}

TEST(MachineTraps, TrappingStoreDoesNotWrite)
{
    Program prog = assemble("ldi r16, 0xaa\nsts 0x1100, r16\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        // Raise the limit to plant a sentinel where the store lands,
        // then restore it for the run.
        m.setDataLimit(0xffff);
        m.writeData(0x1100, 0x55);
        m.setDataLimit(0x10ff);
        RunResult r = m.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        m.setDataLimit(0xffff);
        EXPECT_EQ(m.readData(0x1100), 0x55);  // untouched
    }
}

TEST(MachineTraps, CustomDataLimitIsHonored)
{
    Program prog = assemble("sts 0x0480, r16\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        m.setDataLimit(0x047f);
        RunResult r = m.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(r.trap.addr, 0x0480u);
    }
}

TEST(MachineTraps, TrappedInstructionDoesNotRetire)
{
    // The trapping LD leaves PC on itself and counts no cycles or
    // instructions for it; the X pointer's pre-decrement and the
    // open-bus 0xff in the destination register are the partial side
    // effects, architecturally visible identically on both paths.
    Program prog = assemble(R"(
        ldi r26, 0x01
        ldi r27, 0x11
        ld r16, -X
        ret
    )", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        RunResult r = m.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(r.trap.pc, 2u);
        EXPECT_EQ(m.pc(), 2u);
        EXPECT_EQ(m.stats().instructions, 2u);  // only the two LDIs
        EXPECT_EQ(m.x(), 0x1100u);   // pre-decrement happened
        EXPECT_EQ(m.reg(16), 0xffu); // open-bus value, both paths
    }
}

// --- Stack guard ----------------------------------------------------

TEST(MachineTraps, RecursiveProgramOverflowsIntoGuard)
{
    // Unbounded recursion: each rcall pushes a 2-byte return address,
    // marching SP down from 0x10ff until it hits the stack guard
    // before corrupting the data segment below it.
    Program prog = assemble("f: rcall f\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        m.setStackGuard(0x1000);
        // Sentinel bytes just below the guard: the overflow must not
        // reach them.
        m.writeData(0x0fff, 0x5a);
        m.writeData(0x0ffe, 0xa5);
        RunResult r = m.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::StackOverflow);
        EXPECT_LT(r.trap.addr, 0x1000u);
        EXPECT_EQ(m.readData(0x0fff), 0x5a);
        EXPECT_EQ(m.readData(0x0ffe), 0xa5);
    }
}

TEST(MachineTraps, PushBelowGuardTrapsBeforeWrite)
{
    Program prog = assemble("push r16\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        m.setSp(0x00ff);  // below the default guard at sramBase
        m.setReg(16, 0xee);
        RunResult r = m.run();  // run, not call: call itself pushes
        EXPECT_EQ(r.trap.kind, TrapKind::StackOverflow);
        EXPECT_EQ(r.trap.addr, 0x00ffu);
        EXPECT_EQ(m.sp(), 0x00ffu);  // SP not decremented
    }
}

TEST(MachineTraps, PopUnderflowPastSramTopTraps)
{
    // SP at the SRAM top: a pop increments to 0x1100, beyond the
    // data limit.
    Program prog = assemble("pop r16\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        RunResult r = m.run();
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(r.trap.addr, 0x1100u);
    }
}

// --- Flash boundary -------------------------------------------------

TEST(MachineTraps, JumpIntoErasedFlashTraps)
{
    // JMP into never-programmed flash: the erased 0xffff word is not
    // a valid instruction, distinguished from an in-program illegal
    // encoding by the FlashOutOfBounds kind.
    Trap t = trapOnBothPaths("jmp 0x5000\nret");
    EXPECT_EQ(t.kind, TrapKind::FlashOutOfBounds);
    EXPECT_EQ(t.pc, 0x5000u);
    EXPECT_EQ(t.addr, 0xffffu);
}

TEST(MachineTraps, RunningOffProgramEndTraps)
{
    // No RET: execution falls off the program into erased flash.
    Trap t = trapOnBothPaths("ldi r16, 1\nldi r17, 2");
    EXPECT_EQ(t.kind, TrapKind::FlashOutOfBounds);
    EXPECT_EQ(t.pc, 2u);
}

// --- Illegal opcodes ------------------------------------------------

TEST(MachineTraps, ExhaustiveIllegalOpcodesRaiseNotAbort)
{
    // Every undecodable word in the 16-bit opcode space must trap
    // in-process. Valid words are skipped (they may touch arbitrary
    // state); the flash word behind the probe stays erased so a
    // skipping instruction would itself trap instead of running wild.
    Machine m(CpuMode::CA);
    unsigned illegal = 0;
    for (uint32_t w = 0; w <= 0xffff; w++) {
        if (decode(static_cast<uint16_t>(w), 0).op != Op::INVALID)
            continue;
        illegal++;
        m.reset();
        m.loadProgram({static_cast<uint16_t>(w)}, 0);
        RunResult r = m.call(0, 100);
        ASSERT_FALSE(r.ok()) << "word 0x" << std::hex << w;
        ASSERT_EQ(r.trap.kind, w == 0xffff ? TrapKind::FlashOutOfBounds
                                           : TrapKind::IllegalOpcode)
            << "word 0x" << std::hex << w;
        ASSERT_EQ(r.trap.pc, 0u);
        ASSERT_EQ(r.trap.addr, w);
    }
    EXPECT_GT(illegal, 0u);
}

TEST(MachineTraps, IllegalOpcodeIdenticalOnBothPaths)
{
    Machine sb(CpuMode::CA), ref(CpuMode::CA);
    ref.setBackend(IssBackend::Reference);
    for (Machine *m : {&sb, &ref}) {
        m->loadProgram({0x9404}, 0);
        RunResult r = m->call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::IllegalOpcode);
        EXPECT_EQ(r.trap.addr, 0x9404u);
        EXPECT_EQ(r.cycles, 0u);
    }
    EXPECT_EQ(sb.trap(), ref.trap());
}

// --- Budget and recovery --------------------------------------------

TEST(MachineTraps, BudgetTrapIsRecoverable)
{
    Machine m(CpuMode::FAST);
    m.loadProgram(assemble("loop: rjmp loop", "t").words);
    for (int i = 0; i < 3; i++) {
        RunResult r = m.call(0, 100);
        EXPECT_EQ(r.trap.kind, TrapKind::CycleBudget);
        EXPECT_GE(r.cycles, 100u);
        m.reset();
    }
    // Still usable for a clean program afterwards.
    m.loadProgram(assemble("ldi r20, 9\nret", "t").words);
    RunResult ok = m.call(0);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(m.reg(20), 9);
}

TEST(MachineTraps, TrapDescribeNamesEveryKind)
{
    for (TrapKind k :
         {TrapKind::None, TrapKind::IllegalOpcode,
          TrapKind::FlashOutOfBounds, TrapKind::SramOutOfBounds,
          TrapKind::StackOverflow, TrapKind::CycleBudget,
          TrapKind::MacHazard}) {
        EXPECT_STRNE(trapKindName(k), "?");
        Trap t{k, 0x123, 7};
        EXPECT_FALSE(t.describe().empty());
    }
}

// --- Superblock-vs-reference equality on random wild programs -------------

TEST(MachineTraps, RandomWildProgramsTrapIdentically)
{
    // Programs whose pointers straddle the data limit and whose
    // stacks run close to the guard: every run must end with the
    // same trap, PC, cycle count and register file on both paths.
    Rng rng(0xfa117);
    unsigned trapped = 0;
    for (unsigned round = 0; round < 40; round++) {
        std::string src;
        src += "ldi r26, " + std::to_string(rng.below(256)) + "\n";
        src += "ldi r27, 0x10\n";  // X near the 0x10ff limit
        src += "ldi r28, 0xf0\nldi r29, 0x10\n";  // Y above it
        src += "ldi r30, 0x00\nldi r31, 0x02\n";
        for (unsigned i = 0; i < 30; i++) {
            switch (rng.below(8)) {
              case 0: src += "ld r16, X+\n"; break;
              case 1: src += "ldd r17, Y+" +
                             std::to_string(rng.below(32)) + "\n"; break;
              case 2: src += "std Y+" + std::to_string(rng.below(32)) +
                             ", r16\n"; break;
              case 3: src += "st Z+, r17\n"; break;
              case 4: src += "push r16\n"; break;
              case 5: src += "pop r18\n"; break;
              case 6: src += "adiw r26, " +
                             std::to_string(rng.below(16)) + "\n"; break;
              default: src += "inc r16\n"; break;
            }
        }
        src += "ret\n";

        Program prog = assemble(src, "wild");
        Machine sb(CpuMode::CA), ref(CpuMode::CA);
        ref.setBackend(IssBackend::Reference);
        for (Machine *m : {&sb, &ref}) {
            m->loadProgram(prog.words, 0);
            m->call(0);
        }
        EXPECT_EQ(sb.trap(), ref.trap())
            << "round " << round << ": " << sb.trap().describe()
            << " vs " << ref.trap().describe();
        EXPECT_EQ(sb.pc(), ref.pc());
        EXPECT_EQ(sb.sp(), ref.sp());
        EXPECT_EQ(sb.stats().cycles, ref.stats().cycles);
        EXPECT_EQ(sb.stats().instructions, ref.stats().instructions);
        for (unsigned i = 0; i < 32; i++)
            EXPECT_EQ(sb.reg(i), ref.reg(i)) << "r" << i;
        if (sb.trap())
            trapped++;
    }
    // The address mix must actually exercise the boundaries.
    EXPECT_GT(trapped, 0u);
}
