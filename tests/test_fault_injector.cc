/**
 * @file
 * FaultInjector semantics: deterministic firing, one-shot behavior
 * (the basis of time-redundant detection), identical perturbed
 * execution whichever backend is selected (a pending plan routes the
 * run through the reference loop), firing alongside a debug hook that
 * wants stops, every fault target, routine-entry triggers through
 * the SymbolTable, and flash corruption revert.
 */

#include <gtest/gtest.h>

#include "avr/fault.hh"
#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrasm/symbol_table.hh"
#include "avrgen/opf_harness.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/** A program long enough to give every cycle trigger a boundary:
 *  writes r16 = 1..16 into 0x0200.., then sums them back into r20. */
const char *kWorkload = R"(
    ldi r26, 0x00
    ldi r27, 0x02
    ldi r16, 0
    ldi r17, 16
fill:
    inc r16
    st X+, r16
    dec r17
    brne fill
    ldi r26, 0x00
    ldi r27, 0x02
    ldi r17, 16
    ldi r20, 0
sum:
    ld r18, X+
    add r20, r18
    dec r17
    brne sum
    ret
)";

struct RunState
{
    std::array<uint8_t, 32> regs;
    uint8_t sreg;
    uint16_t sp;
    uint32_t pc;
    uint64_t cycles;
    Trap trap;
    std::vector<uint8_t> data;

    bool operator==(const RunState &) const = default;
};

RunState
runWithPlan(const FaultPlan *plan, bool reference,
            CpuMode mode = CpuMode::CA, DebugHook *hook = nullptr)
{
    Machine m(mode);
    m.setBackend(reference ? IssBackend::Reference : IssBackend::Superblock);
    m.loadProgram(assemble(kWorkload, "w").words, 0);
    FaultInjector inj;
    m.setFaultInjector(&inj);
    m.setDebugHook(hook);
    if (plan)
        inj.arm(*plan, m.stats().cycles);
    m.call(0);
    RunState st;
    for (unsigned i = 0; i < 32; i++)
        st.regs[i] = m.reg(i);
    st.sreg = m.sreg();
    st.sp = m.sp();
    st.pc = m.pc();
    st.cycles = m.stats().cycles;
    st.trap = m.trap();
    st.data = m.readBytes(0x0200, 32);
    return st;
}

/** A debugger with a breakpoint set where execution never goes. */
class NeverStops : public DebugHook
{
  public:
    bool wantsStops() const override { return true; }
    bool onBoundary(uint32_t, uint64_t) override { return false; }
    void onLoad(uint16_t) override {}
    void onStore(uint16_t) override {}
};

} // namespace

TEST(FaultInjector, UnarmedInjectorPerturbsNothing)
{
    RunState with = runWithPlan(nullptr, false);
    Machine bare(CpuMode::CA);
    bare.loadProgram(assemble(kWorkload, "w").words, 0);
    bare.call(0);
    EXPECT_EQ(with.regs[20], bare.reg(20));
    EXPECT_EQ(with.cycles, bare.stats().cycles);
    EXPECT_EQ(with.regs[20], 136);  // 1+2+...+16
}

TEST(FaultInjector, GprFlipIsDeterministicAndOneShot)
{
    FaultPlan plan;
    plan.target = FaultTarget::Gpr;
    plan.reg = 20;
    plan.mask = 0x81;  // double bit flip
    plan.triggerCycle = 150;  // mid-summation, after "ldi r20, 0"

    RunState a = runWithPlan(&plan, false);
    RunState b = runWithPlan(&plan, false);
    EXPECT_EQ(a, b);  // same seed plan, same outcome
    EXPECT_NE(a.regs[20], 136);  // the flip corrupted the sum

    // One-shot: a machine re-run with the injector still attached
    // after firing executes cleanly (time-redundancy foundation).
    Machine m(CpuMode::CA);
    m.loadProgram(assemble(kWorkload, "w").words, 0);
    FaultInjector inj;
    m.setFaultInjector(&inj);
    inj.arm(plan, 0);
    m.call(0);
    EXPECT_TRUE(inj.fired());
    m.reset();
    m.call(0);
    EXPECT_EQ(m.reg(20), 136);
}

TEST(FaultInjector, AllTargetsMatchOnBothPaths)
{
    Rng rng(0x5eed);
    const FaultTarget targets[] = {
        FaultTarget::Gpr, FaultTarget::Sreg, FaultTarget::Sram,
        FaultTarget::MacAcc, FaultTarget::InstSkip,
        FaultTarget::OpcodeCorrupt,
    };
    for (FaultTarget t : targets) {
        for (unsigned round = 0; round < 8; round++) {
            FaultPlan plan;
            plan.target = t;
            plan.triggerCycle = rng.below(90);
            plan.reg = static_cast<uint8_t>(
                t == FaultTarget::MacAcc ? rng.below(9) : rng.below(32));
            plan.sramAddr =
                static_cast<uint16_t>(0x0200 + rng.below(16));
            plan.mask = static_cast<uint16_t>(1u << rng.below(8));
            if (t == FaultTarget::OpcodeCorrupt)
                plan.mask = static_cast<uint16_t>(1u << rng.below(16));

            RunState fast = runWithPlan(&plan, false);
            RunState ref = runWithPlan(&plan, true);
            EXPECT_EQ(fast, ref)
                << faultTargetName(t) << " round " << round
                << " trigger " << plan.triggerCycle << ": fast trap "
                << fast.trap.describe() << " vs ref trap "
                << ref.trap.describe();
        }
    }
}

TEST(FaultInjector, InstSkipSkipsExactlyOne)
{
    // Three LDIs at one cycle each: skipping the boundary at cycle 1
    // drops the second LDI only.
    Program prog = assemble("ldi r16, 1\nldi r17, 2\nldi r18, 3\nret", "t");
    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        FaultInjector inj;
        m.setFaultInjector(&inj);
        FaultPlan plan;
        plan.target = FaultTarget::InstSkip;
        plan.triggerCycle = 1;
        inj.arm(plan, 0);
        RunResult r = m.call(0);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(m.reg(16), 1);
        EXPECT_EQ(m.reg(17), 0);  // skipped
        EXPECT_EQ(m.reg(18), 3);
        EXPECT_TRUE(inj.fired());
        EXPECT_EQ(inj.firedAtPc(), 1u);
    }
}

TEST(FaultInjector, OpcodeCorruptionPersistsAndReverts)
{
    // Corrupt "ldi r17, 2" (word 1) into garbage mid-run; the
    // corruption persists in flash (a second run still sees it)
    // until revertFlash() undoes the XOR.
    Program prog = assemble("ldi r16, 1\nldi r17, 2\nldi r18, 3\nret", "t");
    Machine m(CpuMode::CA);
    m.loadProgram(prog.words, 0);
    FaultInjector inj;
    m.setFaultInjector(&inj);
    FaultPlan plan;
    plan.target = FaultTarget::OpcodeCorrupt;
    plan.triggerCycle = 1;
    plan.flashAddr = FaultPlan::kCurrentPc;
    // Flip LDI 0xE0x2 into an encoding with a different immediate.
    plan.mask = 0x0101;
    inj.arm(plan, 0);
    RunResult first = m.call(0);
    EXPECT_TRUE(inj.fired());
    EXPECT_EQ(inj.firedAtPc(), 1u);
    EXPECT_TRUE(first.ok());
    EXPECT_NE(m.reg(17), 2);  // corrupted immediate

    // Persistent: re-running without revert repeats the corruption.
    m.reset();
    m.call(0);
    EXPECT_NE(m.reg(17), 2);

    // Revert restores the original program behavior.
    inj.revertFlash(m);
    m.reset();
    m.call(0);
    EXPECT_EQ(m.reg(17), 2);
}

TEST(FaultInjector, EntryTriggeredPlanWaitsForRoutine)
{
    // Routine g at a higher address; a plan triggered at g's entry
    // must not fire during the long preamble loop before the call.
    Program prog = assemble(R"(
        ldi r17, 50
warm:
        dec r17
        brne warm
        rcall g
        ret
g:
        ldi r20, 5
        ldi r21, 6
        ret
    )", "t");
    SymbolTable syms;
    syms.addProgram("prog", prog, 0);
    ASSERT_TRUE(prog.labels.count("g"));
    uint32_t g_entry = prog.labels.at("g");

    for (int reference = 0; reference < 2; reference++) {
        Machine m(CpuMode::CA);
        m.setBackend(reference != 0 ? IssBackend::Reference
                                    : IssBackend::Superblock);
        m.loadProgram(prog.words, 0);
        FaultInjector inj;
        m.setFaultInjector(&inj);
        FaultPlan plan;
        plan.target = FaultTarget::Gpr;
        plan.reg = 20;
        plan.mask = 0x04;
        plan.atEntry = true;
        plan.entryPc = g_entry;
        plan.triggerCycle = 1;  // one cycle into g: after ldi r20
        inj.arm(plan, 0);
        RunResult r = m.call(0);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(inj.fired());
        // Fired after g's first LDI retired: r20 = 5 ^ 0x04 = 1.
        EXPECT_EQ(m.reg(20), 1);
        EXPECT_EQ(m.reg(21), 6);
        EXPECT_GE(inj.firedAtPc(), g_entry);
    }
}

TEST(FaultInjector, MacAccFlipInIseOpfMul)
{
    // End-to-end with the generated OPF code in ISE mode: a MAC
    // accumulator flip during the multiplication corrupts the result
    // but a clean re-run (time redundancy) exposes it.
    OpfPrime prime = paperOpfPrime();
    OpfAvrLibrary lib(prime, CpuMode::ISE);
    OpfField field(prime);
    Rng rng(42);
    OpfField::Words a = field.fromBig(BigUInt::random(rng, field.modulus()));
    OpfField::Words b = field.fromBig(BigUInt::random(rng, field.modulus()));

    lib.machine().reset();
    OpfRun golden = lib.mul(a, b);
    ASSERT_EQ(golden.trap.kind, TrapKind::None);

    FaultInjector inj;
    lib.machine().setFaultInjector(&inj);
    FaultPlan plan;
    plan.target = FaultTarget::MacAcc;
    plan.reg = 3;
    plan.mask = 0x10;
    plan.triggerCycle = golden.cycles / 2;
    lib.machine().reset();
    inj.arm(plan, lib.machine().stats().cycles);
    OpfRun faulted = lib.mul(a, b);
    EXPECT_TRUE(inj.fired());

    lib.machine().reset();
    OpfRun redo = lib.mul(a, b);
    EXPECT_EQ(redo.result, golden.result);
    // The flip mid-accumulation must surface either as a trap (MAC
    // hazard shape change) or as a wrong product.
    bool detected_or_wrong = faulted.trap.kind != TrapKind::None ||
                             faulted.result != golden.result;
    EXPECT_TRUE(detected_or_wrong);
    lib.machine().setFaultInjector(nullptr);
}

TEST(FaultInjector, ScheduleFiresEveryPlanInOrder)
{
    // Three GPR flips on different registers, each delayed from the
    // boundary where the previous one fired. Checked machine-free:
    // checkFire is the whole contract.
    std::vector<FaultPlan> plans(3);
    for (size_t i = 0; i < plans.size(); i++) {
        plans[i].target = FaultTarget::Gpr;
        plans[i].reg = uint8_t(20 + i);
        plans[i].triggerCycle = 10;
    }
    FaultInjector inj;
    inj.armSchedule(plans, 100);
    EXPECT_TRUE(inj.pending());

    std::vector<std::pair<uint8_t, uint64_t>> fired;
    for (uint64_t cycle = 100; cycle < 200; cycle++)
        if (inj.checkFire(0, cycle))
            fired.emplace_back(inj.plan().reg, cycle);
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(inj.firedCount(), 3u);
    EXPECT_FALSE(inj.pending());
    EXPECT_EQ(fired[0], std::make_pair(uint8_t(20), uint64_t(110)));
    // Each later plan re-arms at the boundary AFTER its predecessor
    // fired (so plan() still names the firing plan at apply time),
    // shifting its delay base by one boundary.
    EXPECT_EQ(fired[1], std::make_pair(uint8_t(21), uint64_t(121)));
    EXPECT_EQ(fired[2], std::make_pair(uint8_t(22), uint64_t(132)));
}

TEST(FaultInjector, ScheduleOnMachinePerturbsEachShot)
{
    // Three SRAM flips into bytes the workload never reads: the run
    // stays architecturally clean (r20 = 136) while every shot lands
    // and is visible in the perturbed bytes afterwards.
    std::vector<FaultPlan> plans(3);
    for (size_t i = 0; i < plans.size(); i++) {
        plans[i].target = FaultTarget::Sram;
        plans[i].sramAddr = uint16_t(0x02f0 + i);
        plans[i].mask = 0x01 << i;
        plans[i].triggerCycle = i ? 20 : 50;
    }

    Machine m(CpuMode::CA);
    m.loadProgram(assemble(kWorkload, "w").words, 0);
    FaultInjector inj;
    m.setFaultInjector(&inj);
    inj.armSchedule(plans, 0);
    RunResult r = m.call(0);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(inj.firedCount(), 3u);
    EXPECT_FALSE(inj.pending());
    EXPECT_EQ(m.reg(20), 136); // untouched by the off-path flips
    std::vector<uint8_t> bytes = m.readBytes(0x02f0, 3);
    EXPECT_EQ(bytes[0], 0x01);
    EXPECT_EQ(bytes[1], 0x02);
    EXPECT_EQ(bytes[2], 0x04);
}

TEST(FaultInjector, DisarmClearsQueuedPlans)
{
    std::vector<FaultPlan> plans(4);
    FaultInjector inj;
    inj.armSchedule(plans, 0);
    EXPECT_TRUE(inj.pending());
    inj.disarm();
    EXPECT_FALSE(inj.pending());
    for (uint64_t cycle = 0; cycle < 50; cycle++)
        EXPECT_FALSE(inj.checkFire(0, cycle));
    EXPECT_EQ(inj.firedCount(), 0u);
}

TEST(FaultInjector, EmptyScheduleIsDisarm)
{
    FaultInjector inj;
    FaultPlan plan;
    inj.arm(plan, 0);
    EXPECT_TRUE(inj.pending());
    inj.armSchedule({}, 0);
    EXPECT_FALSE(inj.pending());
}

TEST(FaultInjector, SingleShotSemanticsUnchangedByScheduleSupport)
{
    // arm() after a schedule behaves exactly like the classic
    // single-shot API: one fire, then silence, firedCount reset.
    FaultInjector inj;
    inj.armSchedule(std::vector<FaultPlan>(3), 0);
    FaultPlan plan;
    plan.triggerCycle = 5;
    inj.arm(plan, 0);
    uint64_t fires = 0;
    for (uint64_t cycle = 0; cycle < 100; cycle++)
        if (inj.checkFire(0, cycle))
            fires++;
    EXPECT_EQ(fires, 1u);
    EXPECT_EQ(inj.firedCount(), 1u);
    EXPECT_TRUE(inj.fired());
    EXPECT_FALSE(inj.pending());
}

TEST(FaultInjector, BurstPlansAreSeededAndDeterministic)
{
    FaultPlan base;
    base.target = FaultTarget::Sram;
    base.sramAddr = 0x0210;
    base.triggerCycle = 25;
    base.atEntry = true;
    base.entryPc = 7;

    Rng a(99), b(99), c(100);
    std::vector<FaultPlan> s1 = burstPlans(base, 5, 40, 16, a);
    std::vector<FaultPlan> s2 = burstPlans(base, 5, 40, 16, b);
    std::vector<FaultPlan> s3 = burstPlans(base, 5, 40, 16, c);
    ASSERT_EQ(s1.size(), 5u);

    // First shot keeps the base trigger (including the entry wait);
    // later shots are plain gap+jitter delays from the predecessor.
    EXPECT_TRUE(s1[0].atEntry);
    EXPECT_EQ(s1[0].triggerCycle, 25u);
    bool jittered = false;
    for (size_t i = 1; i < s1.size(); i++) {
        EXPECT_FALSE(s1[i].atEntry);
        EXPECT_GE(s1[i].triggerCycle, 40u);
        EXPECT_LE(s1[i].triggerCycle, 56u);
        EXPECT_EQ(s1[i].triggerCycle, s2[i].triggerCycle);
        if (s1[i].triggerCycle != s3[i].triggerCycle)
            jittered = true;
    }
    EXPECT_TRUE(jittered); // a different seed moves at least one shot
}

TEST(FaultInjector, PlanDescribeIsStable)
{
    FaultPlan plan;
    plan.target = FaultTarget::Sram;
    plan.sramAddr = 0x0220;
    plan.mask = 0x40;
    plan.triggerCycle = 17;
    EXPECT_EQ(plan.describe(), "sram[0x0220] ^= 0x40 at +17 cycles");
    EXPECT_STREQ(faultTargetName(FaultTarget::OpcodeCorrupt),
                 "opcode_corrupt");
}

/*
 * A debug hook that wants stops must not mask a pending fault: both
 * select the reference loop, which honours both, so the fault fires
 * on either backend and the run matches the hook-free reference.
 */
TEST(FaultInjector, FiresWhileDebugHookWantsStops)
{
    FaultPlan plan;
    plan.target = FaultTarget::Gpr;
    plan.reg = 20;
    plan.mask = 0x81;
    plan.triggerCycle = 150;
    const RunState want = runWithPlan(&plan, true);
    ASSERT_NE(want.regs[20], 136) << "the fault must corrupt the sum";
    for (bool reference : {false, true}) {
        NeverStops hook;
        EXPECT_EQ(runWithPlan(&plan, reference, CpuMode::CA, &hook), want)
            << (reference ? "reference" : "superblock");
    }
}
