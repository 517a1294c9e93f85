/**
 * @file
 * DebugTarget: the adapter between the RSP server and a Machine.
 *
 * It owns everything gdb-facing about the core — the AVR register
 * block layout, gdb's composite address space (flash at 0, data space
 * at 0x800000, EEPROM at 0x810000), software breakpoints, data
 * watchpoints, and the stop-reason model — while the Machine itself
 * stays debugger-agnostic behind the DebugHook interface.
 *
 * Execution control:
 *  - stepOne() uses Machine::step(), the reference path, so a single
 *    step is exact even where the superblock backend batches state.
 *  - resume() uses Machine::run() with a caller-chosen cycle slice;
 *    a CycleBudget trap inside a slice is reported as Kind::Running
 *    so the server can poll the transport for gdb's interrupt (0x03)
 *    between slices and call resume() again.
 *  - While wantsStops() is false (no breakpoints, no watchpoints),
 *    run() keeps the superblock backend: an attached but passive
 *    debugger costs zero cycles and zero time (pinned by
 *    tests/test_decode_cache.cc). With stops armed, run() takes the
 *    reference loop, which consults the hook per instruction.
 */

#ifndef JAAVR_DEBUG_TARGET_HH
#define JAAVR_DEBUG_TARGET_HH

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "avr/machine.hh"

namespace jaavr
{

/** gdb address-space bases for AVR (avr-gdb's convention). */
constexpr uint32_t kGdbDataBase = 0x800000;
constexpr uint32_t kGdbEepromBase = 0x810000;
/** EEPROM size served behind kGdbEepromBase (ATmega128: 4 KiB). */
constexpr uint32_t kEepromSize = 0x1000;

/** Watchpoint flavour, matching gdb's Z2/Z3/Z4 packets. */
enum class WatchKind : uint8_t
{
    Write,  ///< Z2 "watch"
    Read,   ///< Z3 "rwatch"
    Access, ///< Z4 "awatch"
};

/** Why execution stopped (or didn't). */
struct StopInfo
{
    enum class Kind
    {
        Running,     ///< slice budget expired; call resume() again
        Breakpoint,  ///< software breakpoint hit
        Watchpoint,  ///< data watchpoint hit
        Stepped,     ///< one instruction retired
        Interrupted, ///< stopped on the client's break request
        Trapped,     ///< machine trap (illegal opcode, OOB, ...)
        Exited,      ///< reached the exit sentinel
    };

    Kind kind = Kind::Running;
    uint8_t signal = 0;        ///< gdb signal number for stop replies
    Trap trap;                 ///< machine trap for Kind::Trapped
    WatchKind watchKind = WatchKind::Write; ///< for Kind::Watchpoint
    uint16_t watchAddr = 0;    ///< data address, for Kind::Watchpoint
    uint64_t cycles = 0;       ///< cumulative machine cycles
};

class DebugTarget : public DebugHook
{
  public:
    /** Attaches itself as @p m's debug hook. */
    explicit DebugTarget(Machine &m);
    ~DebugTarget() override;

    DebugTarget(const DebugTarget &) = delete;
    DebugTarget &operator=(const DebugTarget &) = delete;

    Machine &machine() { return mach; }
    const Machine &machine() const { return mach; }

    // --- Registers in gdb's AVR layout -------------------------------

    /** r0..r31, SREG, SP (2 bytes LE), PC (4 bytes LE, byte addr). */
    static constexpr size_t kRegBlockLen = 39;
    /** gdb register numbers: 0..31 GPRs, 32 SREG, 33 SP, 34 PC. */
    static constexpr unsigned kNumRegs = 35;

    std::array<uint8_t, kRegBlockLen> readRegisters() const;
    void writeRegisters(const std::array<uint8_t, kRegBlockLen> &block);

    /** Size in bytes of gdb register @p regno (0 if out of range). */
    static size_t regSize(unsigned regno);
    std::vector<uint8_t> readRegister(unsigned regno) const;
    bool writeRegister(unsigned regno,
                       const std::vector<uint8_t> &bytes);

    // --- gdb composite address space ---------------------------------

    /**
     * Read/write @p len bytes at gdb address @p addr. Flash reads
     * beyond the device return erased 0xff; writes outside writable
     * ranges fail. Flash writes go through the decode-cache refresh,
     * so a patched instruction executes as patched.
     */
    bool readMemory(uint32_t addr, size_t len,
                    std::vector<uint8_t> &out) const;
    bool writeMemory(uint32_t addr,
                     const std::vector<uint8_t> &bytes);

    // --- Breakpoints and watchpoints ---------------------------------

    /** @p addr is a flash *byte* address (gdb Z0 convention). */
    bool setBreakpoint(uint32_t addr);
    bool clearBreakpoint(uint32_t addr);

    /**
     * @p addr may be a gdb data-space address (0x800000-based) or a
     * raw data address; @p len bytes are covered. Read/Access kinds
     * match loads, Write/Access match stores (I/O port traffic via
     * IN/OUT/SBI/CBI is architecturally register traffic and is not
     * watched).
     */
    bool setWatchpoint(WatchKind kind, uint32_t addr, uint16_t len);
    bool clearWatchpoint(WatchKind kind, uint32_t addr, uint16_t len);

    // --- Execution control -------------------------------------------

    /** Execute exactly one instruction (reference path). */
    StopInfo stepOne();

    /**
     * Continue for at most @p slice_cycles. Returns Kind::Running
     * when the slice expired with the program still going; poll the
     * transport, then call resume() again to continue the same run
     * (breakpoint step-over is only applied on the first slice).
     */
    StopInfo resume(uint64_t slice_cycles = 200000);

    /** Abandon an in-flight resume: report an interrupt stop. */
    StopInfo interrupt();

    /**
     * Arrange the machine as Machine::call() would, without running:
     * push the exit sentinel and point PC at @p entry_word_addr.
     */
    void setupCall(uint32_t entry_word_addr);

    // --- DebugHook ---------------------------------------------------

    bool wantsStops() const override;
    bool onBoundary(uint32_t pc, uint64_t cycles) override;
    void onLoad(uint16_t addr) override;
    void onStore(uint16_t addr) override;

  private:
    struct Watch
    {
        WatchKind kind;
        uint16_t addr;
        uint16_t len;
    };

    StopInfo stopFor(StopInfo::Kind kind, uint8_t signal) const;
    StopInfo mapTrap(const Trap &trap) const;
    void matchWatch(uint16_t addr, bool is_store);

    uint8_t eepromByte(uint32_t off) const
    {
        return off < eeprom.size() ? eeprom[off] : 0xff;
    }

    Machine &mach;
    std::unordered_set<uint32_t> breakWords;
    std::vector<Watch> watches;
    /** Debugger-visible EEPROM; grown on first write, reads as 0xff. */
    std::vector<uint8_t> eeprom;

    // Continue-state across resume() slices.
    bool inFlight = false;  ///< a continue is mid-run (sliced)
    bool skipArmed = false; ///< skip a breakpoint at skipPc once
    uint32_t skipPc = 0;
    bool watchHit = false;  ///< a watched access retired; stop at the
                            ///< next instruction boundary
    WatchKind hitKind = WatchKind::Write;
    uint16_t hitAddr = 0;
};

} // namespace jaavr

#endif // JAAVR_DEBUG_TARGET_HH
