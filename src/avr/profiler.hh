/**
 * @file
 * Pluggable execution observers for the JAAVR ISS.
 *
 * A ProfileSink attached to a Machine receives call/return events
 * (CALL/RCALL/ICALL and RET/RETI, plus the synthetic top-level call
 * issued by Machine::call) and — when it asks for them — one event
 * per retired instruction. An attached sink routes Machine::run()
 * through the step() reference path, which fires the events per
 * instruction, so the unprofiled superblock backend carries zero
 * overhead.
 *
 * Two sinks are provided:
 *  - TraceSink: per-instruction disassembly lines in the classic
 *    `--trace` format (cycle count, pc, disassembly);
 *  - CallGraphProfiler: per-routine cycle attribution
 *    (inclusive/exclusive through the avrasm symbol table),
 *    per-routine instruction histograms with per-mnemonic cycle
 *    totals, memory-access counters, stack low/high water marks, and
 *    structured export (text report, JSON-lines records, Chrome
 *    `chrome://tracing` JSON).
 *
 * Sinks are read-only observers: they must not mutate the machine,
 * and should rely on the event arguments (and Machine::sp()) rather
 * than on the machine's other members.
 */

#ifndef JAAVR_AVR_PROFILER_HH
#define JAAVR_AVR_PROFILER_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "avr/isa.hh"
#include "avrasm/symbol_table.hh"

namespace jaavr
{

class Machine;

/** Observer interface for Machine execution events. */
class ProfileSink
{
  public:
    virtual ~ProfileSink() = default;

    /**
     * Return true to also receive onInst() for every retired
     * instruction (sampled once at attach time; do not change the
     * answer while attached).
     */
    virtual bool wantsInstructions() const { return false; }

    /**
     * A call was executed: @p call_pc is the address of the
     * CALL/RCALL/ICALL (Machine::exitAddress for the synthetic
     * top-level call of Machine::call), @p target the callee entry,
     * @p cycles_after the cumulative cycle count once the call
     * instruction has retired (the callee's start timestamp).
     */
    virtual void onCall(uint32_t call_pc, uint32_t target,
                        uint64_t cycles_after);

    /**
     * A RET/RETI at @p ret_pc resumed execution at @p resume_pc;
     * @p cycles_after includes the return instruction itself.
     */
    virtual void onRet(uint32_t ret_pc, uint32_t resume_pc,
                       uint64_t cycles_after);

    /**
     * Instruction at @p pc retired, costing @p inst_cycles;
     * @p cycles_before is the cumulative cycle count when it began.
     * Only delivered when wantsInstructions() is true. For calls and
     * returns this fires before the matching onCall()/onRet().
     */
    virtual void onInst(uint32_t pc, const Inst &inst,
                        unsigned inst_cycles, uint64_t cycles_before);
};

/**
 * Per-instruction disassembly tracing in the classic stderr format
 * (`%6llu  %04x: %s`). Machine::trace routes through an internal
 * instance with the legacy "info: " prefix, so `--trace`-style
 * output is unchanged; standalone instances can write anywhere.
 */
class TraceSink : public ProfileSink
{
  public:
    explicit TraceSink(std::FILE *out = stderr,
                       std::string line_prefix = "");

    bool wantsInstructions() const override { return true; }
    void onInst(uint32_t pc, const Inst &inst, unsigned inst_cycles,
                uint64_t cycles_before) override;

  private:
    std::FILE *out;
    std::string prefix;
};

/**
 * Call-graph cycle attribution with per-routine instruction
 * histograms. Attaches itself to the machine on construction and
 * detaches on destruction.
 */
class CallGraphProfiler : public ProfileSink
{
  public:
    /** Node address used when instructions retire outside any call. */
    static constexpr uint32_t kTopAddr = 0xffffffffu;

    /** Accumulated per-routine statistics (keyed by entry address). */
    struct Node
    {
        uint64_t calls = 0;
        uint64_t inclusiveCycles = 0; ///< callees included
        uint64_t exclusiveCycles = 0; ///< callees excluded
        // The fields below attribute exclusively (to the innermost
        // active frame) and need histograms to be enabled.
        uint64_t instructions = 0;
        uint64_t loads = 0;  ///< LD/LDD/LDS family
        uint64_t stores = 0; ///< ST/STD/STS family
        std::array<uint64_t, kNumOps> opCount{};
        std::array<uint64_t, kNumOps> opCycles{};

        uint64_t count(Op op) const
        {
            return opCount[static_cast<size_t>(op)];
        }
        uint64_t cyclesOf(Op op) const
        {
            return opCycles[static_cast<size_t>(op)];
        }
    };

    /** One Chrome-trace call event (begin/end pair per frame). */
    struct TraceEvent
    {
        bool begin;
        uint32_t addr;
        uint64_t ts; ///< cycle timestamp

        bool operator==(const TraceEvent &) const = default;
    };

    /**
     * Attach to @p m. @p histograms enables per-instruction events
     * (per-routine histograms, exact stack water marks); @p
     * record_trace keeps the begin/end event list for Chrome-trace
     * export.
     */
    explicit CallGraphProfiler(Machine &m,
                               SymbolTable symbols = SymbolTable(),
                               bool histograms = true,
                               bool record_trace = false);
    ~CallGraphProfiler() override;

    CallGraphProfiler(const CallGraphProfiler &) = delete;
    CallGraphProfiler &operator=(const CallGraphProfiler &) = delete;

    bool wantsInstructions() const override { return histograms; }
    void onCall(uint32_t call_pc, uint32_t target,
                uint64_t cycles_after) override;
    void onRet(uint32_t ret_pc, uint32_t resume_pc,
               uint64_t cycles_after) override;
    void onInst(uint32_t pc, const Inst &inst, unsigned inst_cycles,
                uint64_t cycles_before) override;

    /** Forget everything recorded so far (frames included). */
    void reset();

    const std::map<uint32_t, Node> &nodes() const { return nodeMap; }

    /** Node of the routine entered at @p addr, or nullptr. */
    const Node *node(uint32_t addr) const;

    /** Node of the routine whose symbol is exactly @p name. */
    const Node *nodeByName(const std::string &name) const;

    /** Display name of a node address ("<top>" for kTopAddr). */
    std::string name(uint32_t addr) const;

    /** Currently open call frames. */
    size_t depth() const { return frames.size(); }

    /** RET events that arrived with no open frame (ignored). */
    uint64_t spuriousRets() const { return spurious; }

    /** Lowest / highest SP observed (0 when nothing sampled). */
    uint16_t spLowWater() const { return spSeen ? spMin : 0; }
    uint16_t spHighWater() const { return spSeen ? spMax : 0; }
    /** Peak stack depth in bytes across the observed run. */
    uint16_t stackHighWaterBytes() const
    {
        return spSeen ? static_cast<uint16_t>(spMax - spMin) : 0;
    }

    const std::vector<TraceEvent> &traceEvents() const { return events; }

    /**
     * Human-readable per-routine table, sorted by inclusive cycles
     * (routines at @p max_rows and beyond are summarized).
     */
    std::string textReport(size_t max_rows = 20) const;

    /**
     * Append one JSON-lines record per routine to @p path; every
     * record carries the given bench/workload tags. Returns false if
     * the file cannot be written.
     */
    bool writeJsonLines(const std::string &path,
                        const std::string &bench,
                        const std::string &workload) const;

    /**
     * Write the recorded call events as a Chrome `chrome://tracing`
     * JSON document (one duration pair per call frame; timestamps
     * are simulated cycles). Frames still open are closed at the
     * last recorded timestamp so the document always nests
     * correctly. Requires record_trace; returns false on I/O error.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Frame
    {
        uint32_t addr;
        uint64_t entryCycles;
        uint64_t childCycles;
        Node *node;
    };

    void sampleSp();

    Machine *machine;
    SymbolTable symbols;
    bool histograms;
    bool recordTrace;
    std::map<uint32_t, Node> nodeMap;
    std::vector<Frame> frames;
    std::vector<TraceEvent> events;
    Node *topNode; ///< kTopAddr node, used when no frame is open
    uint64_t spurious = 0;
    bool spSeen = false;
    uint16_t spMin = 0;
    uint16_t spMax = 0;
};

} // namespace jaavr

#endif // JAAVR_AVR_PROFILER_HH
