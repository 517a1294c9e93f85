/**
 * @file
 * Deterministic fault injection for the ISS: a FaultInjector arms one
 * FaultPlan — a bit flip in a GPR / SREG / SRAM byte / the R0-R8 MAC
 * accumulator, an instruction skip, or an opcode corruption — and the
 * Machine applies it at the chosen instruction boundary (an absolute
 * trigger delay in cycles, optionally counted from the first arrival
 * at a routine-entry PC resolved through the SymbolTable).
 *
 * A pending plan routes Machine::run() through the reference loop,
 * which polls the injector at every boundary, so the unarmed
 * superblock backend carries zero overhead (same pattern as the
 * ProfileSink). A plan fires exactly once; re-running the machine
 * with the injector still attached executes cleanly, which is what
 * lets time-redundant (run-twice-and-compare) countermeasures detect
 * transient faults. Opcode corruption persists in flash like a real
 * program-memory fault; revertFlash() undoes it between campaign
 * trials.
 *
 * Beyond the classic single transient, armSchedule() queues a whole
 * deterministic sequence of plans — each subsequent plan's trigger
 * delay counts from the boundary at which the previous one fired —
 * so campaigns can model burst upsets (N flips at seeded intervals)
 * and the network chaos harness can corrupt several frames in one
 * run. burstPlans() builds such a schedule from a base plan, a count
 * and a seeded jittered gap. The single-shot arm() API and its
 * fires-exactly-once semantics are unchanged.
 */

#ifndef JAAVR_AVR_FAULT_HH
#define JAAVR_AVR_FAULT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jaavr
{

class Machine;
class Rng;

/** Architectural location a FaultPlan perturbs. */
enum class FaultTarget : uint8_t
{
    Gpr,           ///< XOR mask into register plan.reg
    Sreg,          ///< XOR mask into the status register
    Sram,          ///< XOR mask into data byte plan.sramAddr
    MacAcc,        ///< XOR mask into R0-R8 (the 72-bit MAC accumulator)
    InstSkip,      ///< skip the instruction at the firing boundary
    OpcodeCorrupt, ///< XOR a 16-bit mask into a flash word
};

/** Short stable name for @p target ("gpr", "sreg", ...). */
const char *faultTargetName(FaultTarget target);

/**
 * One deterministic fault: where to perturb, when to trigger, and
 * the XOR mask (campaigns draw 1- or 2-bit masks for the classic
 * single/double bit-flip model). All fields are plain data so a
 * seeded Rng can generate plans reproducibly.
 */
struct FaultPlan
{
    /** flashAddr value meaning "the word at the firing PC". */
    static constexpr uint32_t kCurrentPc = 0xffffffffu;

    FaultTarget target = FaultTarget::Gpr;

    /**
     * Boundary delay in cycles: the plan fires at the first
     * instruction boundary at or after `arm-time cycles +
     * triggerCycle` (or after the entry match, see below).
     */
    uint64_t triggerCycle = 0;

    /**
     * When set, the delay starts counting only once the PC first
     * reaches @p entryPc (a routine entry word from the SymbolTable),
     * so plans can target "N cycles into routine X".
     */
    bool atEntry = false;
    uint32_t entryPc = 0;

    uint8_t reg = 0;       ///< Gpr/MacAcc register index (0-31 / 0-8)
    uint16_t sramAddr = 0; ///< Sram byte address (>= Machine::sramBase)
    uint32_t flashAddr = kCurrentPc; ///< OpcodeCorrupt word address
    uint16_t mask = 1;     ///< XOR mask (byte targets use the low 8 bits)

    /** One-line human-readable description. */
    std::string describe() const;
};

class FaultInjector
{
  public:
    /**
     * Arm @p plan. @p now_cycles is the machine's current absolute
     * cycle count (Machine::stats().cycles), the base the trigger
     * delay counts from for non-entry plans.
     */
    void arm(const FaultPlan &plan, uint64_t now_cycles = 0);

    /**
     * Arm a multi-shot schedule: plans fire in order, and each
     * subsequent plan's trigger delay (or entry wait) starts at the
     * boundary where its predecessor fired. An empty schedule is a
     * disarm.
     */
    void armSchedule(const std::vector<FaultPlan> &plans,
                     uint64_t now_cycles = 0);

    /** Cancel any armed plan and pending schedule without firing. */
    void
    disarm()
    {
        state = State::Idle;
        queue.clear();
        nextIdx = 0;
    }

    /** True while any plan (armed or still queued) has yet to fire. */
    bool pending() const
    {
        return state == State::WaitEntry || state == State::Armed ||
               (state == State::Fired && nextIdx < queue.size());
    }

    /** True once at least one plan has fired. */
    bool fired() const { return state == State::Fired; }

    /** Number of plans that have fired since the last arm. */
    uint64_t firedCount() const { return firedN; }

    /**
     * The plan most recently armed or fired. Immediately after
     * checkFire() returns true this is the plan that just fired (the
     * next queued plan, if any, is loaded at the following boundary).
     */
    const FaultPlan &plan() const { return planV; }

    /** Boundary (cycle count / PC) at which the plan fired. */
    uint64_t firedAtCycle() const { return firedCycle; }
    uint32_t firedAtPc() const { return firedPc; }

    /**
     * Machine-side poll at the instruction boundary (@p pc, absolute
     * @p cycles): advances the trigger state machine and returns true
     * exactly once, when the fault must be applied now.
     */
    bool
    checkFire(uint32_t pc, uint64_t cycles)
    {
        if (state == State::Fired) {
            // Multi-shot: the previous plan fired at an earlier
            // boundary; load the next queued plan now so plan()
            // still named the firing plan when the caller applied it.
            if (nextIdx >= queue.size())
                return false;
            armPlan(queue[nextIdx++], cycles);
        }
        if (state == State::WaitEntry) {
            if (pc != planV.entryPc)
                return false;
            fireAt = cycles + planV.triggerCycle;
            state = State::Armed;
        }
        if (state == State::Armed && cycles >= fireAt) {
            state = State::Fired;
            firedCycle = cycles;
            firedPc = pc;
            firedN++;
            if (planV.target == FaultTarget::OpcodeCorrupt)
                corruptions.emplace_back(
                    planV.flashAddr == FaultPlan::kCurrentPc
                        ? pc
                        : planV.flashAddr,
                    planV.mask);
            return true;
        }
        return false;
    }

    /**
     * Undo every fired OpcodeCorrupt plan's flash mutation on @p m
     * (XOR is involutive). No-op for other targets or unfired plans;
     * call once between campaign trials so a persistent flash fault
     * from one trial cannot leak into the next.
     */
    void revertFlash(Machine &m) const;

  private:
    enum class State : uint8_t { Idle, WaitEntry, Armed, Fired };

    void
    armPlan(const FaultPlan &plan, uint64_t now_cycles)
    {
        planV = plan;
        if (plan.atEntry) {
            state = State::WaitEntry;
            fireAt = 0;
        } else {
            state = State::Armed;
            fireAt = now_cycles + plan.triggerCycle;
        }
    }

    FaultPlan planV;
    State state = State::Idle;
    uint64_t fireAt = 0;
    uint64_t firedCycle = 0;
    uint32_t firedPc = 0;
    uint64_t firedN = 0;
    std::vector<FaultPlan> queue; ///< multi-shot schedule
    size_t nextIdx = 0;           ///< next queue entry to arm
    /** (word address, mask) of every fired flash corruption. */
    std::vector<std::pair<uint32_t, uint16_t>> corruptions;
};

/**
 * Build a deterministic burst schedule: @p count copies of @p base
 * where the first fires after base.triggerCycle and each subsequent
 * one fires @p gap_cycles (+ a seeded jitter in [0, @p jitter])
 * after its predecessor. Entry-triggered bases keep their entry PC
 * on the first shot only; later shots are plain delays, matching how
 * real burst upsets cluster in time rather than on code location.
 */
std::vector<FaultPlan> burstPlans(const FaultPlan &base, size_t count,
                                  uint64_t gap_cycles, uint64_t jitter,
                                  Rng &rng);

} // namespace jaavr

#endif // JAAVR_AVR_FAULT_HH
