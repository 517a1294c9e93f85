/**
 * @file
 * The JAAVR machine model: an ATmega128-compatible AVR core with the
 * three operating modes of the paper (CA / FAST / ISE) and the
 * (32 x 4)-bit MAC instruction-set extension.
 *
 * Memory map (ATmega128 data space):
 *   0x0000-0x001f  general-purpose registers R0..R31
 *   0x0020-0x005f  I/O space (SPL/SPH/SREG at 0x5d/0x5e/0x5f;
 *                  the MACCR extension register at 0x005c, I/O 0x3c)
 *   0x0100-0xffff  SRAM
 */

#ifndef JAAVR_AVR_MACHINE_HH
#define JAAVR_AVR_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "avr/isa.hh"
#include "avr/mac_unit.hh"
#include "avr/timing.hh"

namespace jaavr
{

class ProfileSink;
class FaultInjector;
class Machine;
class MetricsRegistry;
class SuperblockCache;
struct Trap;

/**
 * Execution backend selected for run()/call() (see DESIGN.md §11):
 * Reference is the per-step decode loop (step()), Superblock the
 * trace-translating threaded-dispatch backend built on top of the
 * decode cache, in every CPU mode and MACCR mode. Superblock is the
 * default; runs with tracing, an attached profiler, an active wave
 * or leakage sink, a debug hook that wants stops or a pending fault
 * take the reference loop on either backend, which honours all of
 * them. Overridable via JAAVR_ISS_BACKEND=reference|superblock.
 */
enum class IssBackend : uint8_t
{
    Reference,
    Superblock,
};

/**
 * The backend JAAVR_ISS_BACKEND selects: "reference" or
 * "superblock"; unset selects Superblock, and any other value warns
 * and keeps Superblock. The one parser of that variable.
 */
IssBackend issBackendFromEnv();

/** Short stable name for @p backend ("reference", ...). */
const char *issBackendName(IssBackend backend);

/**
 * Cycle-accurate waveform observer (src/avr/vcd.hh implements it as
 * a VCD writer). A wave sink samples the *machine itself* after
 * every retirement, which only the reference path keeps current per
 * instruction. run() therefore routes through the reference loop
 * while active() is true and through the normal zero-overhead
 * superblock backend while it is false: an attached-but-idle sink
 * costs exactly zero cycles, pinned by tests/test_vcd.cc the same way
 * DebugHookAddsZeroCyclesWhenNotStopping pins the debug hook.
 * active() is sampled once at run() entry; the sink must outlive the
 * machine or detach before destruction.
 */
class WaveSink
{
  public:
    virtual ~WaveSink() = default;

    /** True while the sink wants per-instruction samples. */
    virtual bool active() const = 0;

    /**
     * The instruction @p inst (fetched from @p pc) just retired for
     * @p cycles cycles; the machine's architectural state is current.
     */
    virtual void onStep(const Machine &m, uint32_t pc, const Inst &inst,
                        unsigned cycles) = 0;

    /** Execution stopped on @p trap (machine state as of the trap). */
    virtual void onTrap(const Machine &m, const Trap &trap) = 0;
};

/**
 * Cold-path trap observer (src/obs/ flight recorder): every
 * run()/call() that stops on a trap — on either backend — reports
 * it here exactly once, from the same funnel that bumps
 * ExecStats::trapCount. The hook fires strictly *after*
 * the executed region has been accounted, so attaching a sink can
 * never perturb simulated cycles or architectural state (pinned by
 * tests/test_obs.cc on both backends); with no trap raised it
 * is never consulted at all. The sink must outlive the machine or
 * detach before destruction.
 */
class TrapSink
{
  public:
    virtual ~TrapSink() = default;

    /** run()/call() stopped on @p trap (already counted in stats). */
    virtual void onTrap(const Machine &m, const Trap &trap) = 0;
};

/**
 * Execution-boundary observer for the debug subsystem (src/debug/):
 * the Machine consults an attached hook for stop requests at every
 * instruction boundary and reports every data-space access, which is
 * what software breakpoints and data watchpoints are built from.
 *
 * A hook whose wantsStops() is true at run() entry routes the run
 * through the reference loop, which consults it per instruction;
 * with no debugger attached (or a debugger with nothing to watch)
 * the superblock backend runs with zero overhead (pinned by
 * tests/test_decode_cache.cc). Hook implementations must rely on the
 * event arguments only and must not mutate the machine.
 */
class DebugHook
{
  public:
    virtual ~DebugHook() = default;

    /**
     * Sampled once at run() entry to select the reference loop;
     * return false while there is nothing to stop for and the
     * zero-overhead superblock backend may run.
     */
    virtual bool wantsStops() const = 0;

    /**
     * Instruction boundary: the instruction at @p pc is about to
     * execute, @p cycles is the cumulative cycle count. Return true
     * to stop execution before it (the run raises a DebugBreak trap
     * with nothing retired, so PC still points at @p pc).
     */
    virtual bool onBoundary(uint32_t pc, uint64_t cycles) = 0;

    /** A data-space load from / store to @p addr is executing. */
    virtual void onLoad(uint16_t addr) = 0;
    virtual void onStore(uint16_t addr) = 0;
};

/**
 * Reason a run stopped before reaching the exit sentinel. Every
 * anomaly the ISS previously panic()-aborted on is now a recoverable
 * trap so a fault-injection campaign can run tens of thousands of
 * perturbed executions in one process (see DESIGN.md, "Fault model
 * & hardening").
 */
enum class TrapKind : uint8_t
{
    None = 0,
    IllegalOpcode,    ///< undecodable (reserved) opcode word
    FlashOutOfBounds, ///< PC reached erased flash (left the program)
    SramOutOfBounds,  ///< data access beyond Machine::dataLimit()
    StackOverflow,    ///< push below Machine::stackGuard()
    CycleBudget,      ///< run()/call() cycle budget exhausted
    MacHazard,        ///< Algorithm-2 MAC shadow-register violation
    DebugBreak,       ///< an attached DebugHook requested a stop
};

/** Short stable name for @p kind ("illegal_opcode", ...). */
const char *trapKindName(TrapKind kind);

/**
 * A raised trap: the reason, the word address of the faulting
 * instruction (for CycleBudget: the next instruction), and a
 * kind-specific detail — the offending data address for
 * SramOutOfBounds/StackOverflow, the opcode word for
 * IllegalOpcode/FlashOutOfBounds, 1 for a back-to-back MacHazard.
 * The trapping instruction does not retire: PC, registers and
 * statistics are left as of just before it, identically on both
 * backends.
 */
struct Trap
{
    TrapKind kind = TrapKind::None;
    uint32_t pc = 0;
    uint16_t addr = 0;

    explicit operator bool() const { return kind != TrapKind::None; }
    bool operator==(const Trap &) const = default;

    /** One-line human-readable description. */
    std::string describe() const;
};

/**
 * Result of Machine::run()/call(): consumed cycles plus the trap
 * that stopped execution (kind None on a clean exit). Converts
 * implicitly to the cycle count so existing `uint64_t cycles =
 * m.call(...)` call sites keep working unchanged.
 */
struct RunResult
{
    uint64_t cycles = 0;
    Trap trap;

    bool ok() const { return trap.kind == TrapKind::None; }
    operator uint64_t() const { return cycles; }
};

/** Per-mnemonic execution statistics. */
struct ExecStats
{
    std::array<uint64_t, kNumOps> opCount{};
    std::array<uint64_t, kNumOps> opCycles{};
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    /** NOPs retired while MAC micro-ops were pending (hazard stalls). */
    uint64_t macStallNops = 0;
    /** Traps raised by run()/call(), indexed by TrapKind. */
    std::array<uint64_t, 8> trapCount{};

    uint64_t count(Op op) const
    {
        return opCount[static_cast<size_t>(op)];
    }

    /** Cycles consumed by all retirements of @p op. */
    uint64_t cyclesOf(Op op) const
    {
        return opCycles[static_cast<size_t>(op)];
    }

    /** Number of traps of @p kind raised by run()/call(). */
    uint64_t traps(TrapKind kind) const
    {
        return trapCount[static_cast<size_t>(kind)];
    }

    void reset() { *this = ExecStats(); }
};

/**
 * One predecoded flash word: the decoded instruction plus everything
 * the run loop would otherwise recompute per dynamic instruction
 * (base cycle cost for the machine's mode, MAC hazard metadata).
 * The Machine keeps one of these per flash word, refreshed
 * incrementally by loadProgram(); see DESIGN.md, "ISS execution
 * pipeline".
 */
struct DecodedInst
{
    Inst inst;
    uint8_t cycles = 1;       ///< baseCycles(inst.op, mode)
    bool touchesMac = false;  ///< reads/writes {R0..R8, R16..R19}
    bool macLoadForm = false; ///< Algorithm-2 trigger shape (load to R24)
    Synonym synonym = Synonym::None; ///< canonicalized alias encoding
};

class Machine
{
  public:
    static constexpr uint32_t flashWords = 0x10000;
    static constexpr uint16_t ioBase = 0x20;
    static constexpr uint16_t sramBase = 0x0100;
    static constexpr uint32_t dataSpace = 0x10000;
    /** I/O address of the MAC control register (ASIP extension). */
    static constexpr uint8_t ioMaccr = 0x3c;
    /** Word address used as the top-level return sentinel. */
    static constexpr uint32_t exitAddress = 0xffff;

    explicit Machine(CpuMode mode);
    ~Machine();

    CpuMode mode() const { return cpuMode; }

    /** Copy @p words into flash at @p word_addr. */
    void loadProgram(const std::vector<uint16_t> &words,
                     uint32_t word_addr = 0);

    /** Clear registers, SREG, data memory and statistics (not flash). */
    void reset();

    // --- Register and memory access (for harnesses and tests) -------

    uint8_t reg(unsigned i) const { return regs[i]; }
    void setReg(unsigned i, uint8_t v) { regs[i] = v; }

    /** Little-endian register pair (i, i+1). */
    uint16_t regPair(unsigned i) const;
    void setRegPair(unsigned i, uint16_t v);

    void setX(uint16_t v) { setRegPair(26, v); }
    void setY(uint16_t v) { setRegPair(28, v); }
    void setZ(uint16_t v) { setRegPair(30, v); }
    uint16_t x() const { return regPair(26); }
    uint16_t y() const { return regPair(28); }
    uint16_t z() const { return regPair(30); }

    uint8_t readData(uint16_t addr) const;
    void writeData(uint16_t addr, uint8_t v);
    void writeBytes(uint16_t addr, const std::vector<uint8_t> &bytes);
    std::vector<uint8_t> readBytes(uint16_t addr, size_t len) const;

    uint16_t sp() const;
    void setSp(uint16_t v);
    uint8_t sreg() const { return sregBits; }
    void setSreg(uint8_t v) { sregBits = v; }
    uint32_t pc() const { return pcWord; }
    void setPc(uint32_t word_addr) { pcWord = word_addr & 0xffff; }

    /** Write MACCR (resets the MAC unit state, like an OUT would). */
    void setMaccr(uint8_t v);
    uint8_t maccr() const { return io[ioMaccr]; }

    // --- Execution ---------------------------------------------------

    /** Default runaway-program cycle budget for run()/call(). */
    static constexpr uint64_t defaultCycleBudget = 100000000ULL;

    /**
     * Execute one instruction; returns its cycle cost, or 0 with
     * trap() set if the instruction trapped (in which case nothing
     * retired: PC and statistics are unchanged). Clears any trap left
     * by a previous step()/run() first, so trap() always describes
     * this step.
     *
     * This is the *reference* path: it re-fetches and re-decodes the
     * flash words on every call and evaluates the mode/trace/MAC
     * branches at run time. run() normally executes through the
     * superblock backend instead, which is validated against this
     * implementation (tests/test_superblock.cc,
     * tests/test_decode_cache.cc).
     */
    unsigned step();

    /**
     * Run from the current PC until it reaches exitAddress. Returns
     * the consumed cycles plus the trap that stopped execution, if
     * any; a CycleBudget trap is raised once @p max_cycles cycles
     * have been consumed (>= semantics: consuming exactly the budget
     * traps, identically on both backends).
     *
     * Executes on the selected backend; observed runs (see
     * IssBackend) take the step()-based reference loop.
     */
    RunResult run(uint64_t max_cycles = defaultCycleBudget);

    /**
     * Call the routine at @p word_addr: pushes the exit sentinel,
     * runs until the matching RET, returns the consumed cycles.
     * Trap/budget semantics as in run().
     */
    RunResult call(uint32_t word_addr,
                   uint64_t max_cycles = defaultCycleBudget);

    /** Trap raised by the last step()/run()/call(), kind None if
     *  execution completed cleanly. Cleared by run()/call()/reset(). */
    const Trap &trap() const { return pendingTrap; }

    // --- Memory protection bounds ------------------------------------

    /**
     * Highest valid data-space address for loads, stores, pushes and
     * pops; anything above raises SramOutOfBounds. Defaults to
     * 0x10ff, the top of the ATmega128's internal SRAM — addresses
     * beyond it have no physical memory and previously aliased the
     * simulator's oversized backing array silently.
     */
    uint16_t dataLimit() const { return dataLimitV; }
    void setDataLimit(uint16_t v) { dataLimitV = v; }

    /**
     * Lowest address the stack may push to; a push targeting an
     * address below it raises StackOverflow before the write (the
     * data segment stays intact). Defaults to sramBase.
     */
    uint16_t stackGuard() const { return stackGuardV; }
    void setStackGuard(uint16_t v) { stackGuardV = v; }

    /** Predecoded view of flash word @p word_addr (trace source). */
    const DecodedInst &decoded(uint32_t word_addr) const
    {
        return decodeCache[word_addr & (flashWords - 1)];
    }

    const ExecStats &stats() const { return execStats; }
    void resetStats() { execStats.reset(); }

    const MacUnit &mac() const { return macUnit; }

    /**
     * Attach an execution observer (nullptr detaches). An attached
     * sink routes run() through the reference loop, which fires its
     * events; with no sink attached the superblock backend carries
     * zero profiling overhead. The sink must outlive the machine or
     * detach before destruction.
     */
    void setProfiler(ProfileSink *sink);
    ProfileSink *profiler() const { return profSink; }

    /**
     * Attach a fault injector (nullptr detaches). A pending plan
     * routes run() through the reference loop, which polls the
     * injector at every boundary; with no armed plan the superblock
     * backend carries zero injection overhead. The injector must
     * outlive the machine or detach before destruction.
     */
    void setFaultInjector(FaultInjector *inj) { faultInj = inj; }
    FaultInjector *faultInjector() const { return faultInj; }

    /**
     * Attach a debug hook (nullptr detaches). wantsStops() is
     * re-sampled at every run() entry, so a hook may flip between
     * active and passive without re-attaching; while it answers
     * false the zero-overhead superblock backend runs and only
     * step()/runReference consult the hook. The hook must outlive
     * the machine or detach before destruction. A debug hook and a
     * pending FaultInjector attached together both fire: either one
     * selects the reference loop, which honours both.
     */
    void setDebugHook(DebugHook *hook) { dbgHook = hook; }
    DebugHook *debugHook() const { return dbgHook; }

    /**
     * Attach a waveform sink (nullptr detaches). active() is sampled
     * at run() entry: true routes execution through the reference
     * loop (per-instruction architectural sampling), false leaves the
     * zero-overhead superblock backend untouched — see WaveSink.
     */
    void setWaveSink(WaveSink *sink) { waveSnk = sink; }
    WaveSink *waveSink() const { return waveSnk; }

    /**
     * Attach a leakage sink (nullptr detaches): a second,
     * independent WaveSink slot used by the side-channel subsystem
     * (src/avr/leakage.hh), so a power tracer and a VCD writer can
     * observe the same run. Identical contract to setWaveSink():
     * active() is sampled at run() entry, an active sink routes
     * through the reference loop, an idle one costs exactly zero
     * cycles on either backend (pinned by
     * tests/test_leakage.cc).
     */
    void setLeakSink(WaveSink *sink) { leakSnk = sink; }
    WaveSink *leakSink() const { return leakSnk; }

    /**
     * Attach a trap sink (nullptr detaches): notified once per
     * trapped run()/call() from the common trap-count funnel, after
     * accounting, on every backend — see TrapSink. Costs nothing
     * unless a trap is actually raised.
     */
    void setTrapSink(TrapSink *sink) { trapSnk = sink; }
    TrapSink *trapSink() const { return trapSnk; }

    /**
     * Publish execution telemetry into @p reg: instruction/cycle/
     * stall counters, per-TrapKind trap counters, MAC trigger counts
     * by algorithm, per-mnemonic retirement counters (nonzero only)
     * and PC/SP gauges. Purely additive — call between workloads to
     * accumulate, or after clear() for a fresh snapshot.
     */
    void publishMetrics(MetricsRegistry &reg) const;

    /** Raw flash word at @p word_addr (debugger/export accessor). */
    uint16_t flashWord(uint32_t word_addr) const
    {
        return flash[word_addr & (flashWords - 1)];
    }

    /**
     * XOR @p mask into the flash word at @p word_addr and refresh the
     * decode cache (this word and its predecessor, whose two-word
     * operand may have changed). Used by FaultInjector for opcode
     * corruption; XOR is involutive, so applying the same mask again
     * reverts the corruption.
     */
    void corruptFlashWord(uint32_t word_addr, uint16_t mask);

    /**
     * Enable per-instruction tracing to stderr (routed through an
     * internal TraceSink in the legacy `info:`-prefixed format).
     * Tracing forces run() onto the reference path.
     */
    bool trace = false;

    /**
     * Always false. The former force-reference flag is now
     * setBackend(IssBackend::Reference); the constant remains only
     * because the benchmark harness (perfbench/) still reads it.
     */
    static constexpr bool forceReference = false;

    /**
     * Execution backend for run()/call() (default Superblock unless
     * overridden by JAAVR_ISS_BACKEND in the environment). Observed
     * runs take the reference loop on either backend (see
     * IssBackend), so attaching an observer never changes observed
     * architectural state.
     */
    IssBackend backend() const { return backendV; }
    void setBackend(IssBackend b) { backendV = b; }

  private:
    // SREG bit indices.
    static constexpr unsigned fC = 0, fZ = 1, fN = 2, fV = 3, fS = 4,
                              fH = 5, fT = 6, fI = 7;

    bool flag(unsigned f) const { return (sregBits >> f) & 1; }
    void setFlag(unsigned f, bool v);

    void setZns(uint8_t r);
    void addFlags(uint8_t d, uint8_t s, uint8_t r);
    void subFlags(uint8_t d, uint8_t s, uint8_t r, bool keep_z);

    void push8(uint8_t v);
    uint8_t pop8();
    void pushPc(uint32_t pc);
    uint32_t popPc();

    /** True if @p inst reads or writes the MAC hazard register set. */
    bool touchesMacRegs(const Inst &inst) const;

    /** Algorithm-2 trigger: apply the two shadow MACs for @p value. */
    void triggerLoadMac(uint8_t value);

    uint16_t fetch(uint32_t word_addr) const;

    /** Predecode the flash word pair at @p w0/@p w1 (cache fill). */
    DecodedInst makeDecoded(uint16_t w0, uint16_t w1) const;

    /** Reference run loop: step() per instruction. */
    void runReference(uint64_t max_cycles);

    /**
     * Apply the armed fault plan to architectural state at an
     * instruction boundary (reference path). Returns true when the
     * fault consumed the boundary itself (instruction skip advanced
     * the PC), false when execution should continue into the
     * (possibly perturbed) instruction.
     */
    bool applyBoundaryFault();

    /**
     * Superblock-threaded run loop (superblock.cc): translated
     * traces over the decode cache, executed via computed-goto
     * threaded dispatch with block-level statistics accumulation.
     * MAC shadows pending at block entry drain through step(), and
     * budget-critical blocks hand over to runReference(); see
     * DESIGN.md §11.
     */
    void runSuperblock(uint64_t max_cycles);

    friend class SuperblockCache;

    CpuMode cpuMode;
    std::array<uint8_t, 32> regs{};
    std::array<uint8_t, 0x40> io{};
    std::vector<uint8_t> sram;   ///< data space from sramBase up
    std::vector<uint16_t> flash;
    std::vector<DecodedInst> decodeCache; ///< one entry per flash word
    uint8_t sregBits = 0;
    uint32_t pcWord = 0;
    MacUnit macUnit;
    ExecStats execStats;
    ProfileSink *profSink = nullptr;
    bool profWantsInst = false;          ///< cached sink capability
    std::unique_ptr<ProfileSink> ownedTrace; ///< lazy `trace` sink
    FaultInjector *faultInj = nullptr;
    DebugHook *dbgHook = nullptr;
    WaveSink *waveSnk = nullptr;
    WaveSink *leakSnk = nullptr;
    TrapSink *trapSnk = nullptr;
    Trap pendingTrap;
    uint16_t dataLimitV = 0x10ff; ///< top of ATmega128 internal SRAM
    uint16_t stackGuardV = sramBase;
    IssBackend backendV = IssBackend::Superblock;
    std::unique_ptr<SuperblockCache> sbCache; ///< lazily built traces
};

} // namespace jaavr

#endif // JAAVR_AVR_MACHINE_HH
