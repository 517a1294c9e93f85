/**
 * @file
 * Superblock translation cache for the trace-threaded ISS backend
 * (DESIGN.md §11).
 *
 * A superblock is a straight-line trace of predecoded instructions
 * keyed by its entry PC. Translation walks the decode cache from the
 * entry, stitching across direct control transfers (RJMP/JMP become
 * zero-work "ghost" retirements, RCALL/CALL continue into the
 * callee), turning conditional branches and skips into side exits,
 * and terminating on indirect control flow (RET/RETI/IJMP/ICALL),
 * undecodable words, the exit sentinel, a revisited PC (loop
 * back-edge) or the length cap.
 *
 * Execution (Machine::runSuperblock in superblock.cc) dispatches the
 * trace through computed-goto threading; each SbInst carries its
 * handler label plus pre-extracted operands, and cycle/instruction
 * statistics accumulate block-at-a-time from the per-exit prefix
 * sums instead of per instruction.
 *
 * In ISE mode a trace is specialized to the MACCR mode bits it was
 * translated under (SbBlock::mode): the Algorithm-1 SWAP and
 * Algorithm-2 R24-load triggers, each element's MAC shadow and the
 * shadow hazard checks are all decided at translate time. A block
 * is only ever entered under its own mode and with no shadow
 * pending.
 *
 * Invalidation is conservative: any flash mutation
 * (Machine::loadProgram, Machine::corruptFlashWord — which is what
 * the GDB `M`/`X` flash-patch path and the fault injector's
 * OpcodeCorrupt use) drops every translated block. Flash cannot
 * change while the superblock loop itself is running (the backend
 * only runs with no hooks, sinks or pending faults attached), so
 * invalidation never races a trace in flight.
 */

#ifndef JAAVR_AVR_SUPERBLOCK_HH
#define JAAVR_AVR_SUPERBLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace jaavr
{

class Machine;

/**
 * Superblock handler kinds. The synonym encodings (LSL/ROL/TST/CLR,
 * see Synonym in avr/isa.hh) get their own specialized single-operand
 * handlers; SKIP_* and BRBS/BRBC carry precomputed taken-exit
 * metadata; GHOST is a stitched RJMP/JMP (retires, costs only its
 * predecoded cycles, no runtime control transfer); CALL_THROUGH is a
 * stitched RCALL/CALL; EXIT_* terminate the trace. SWAP_MAC is an
 * Algorithm-1 SWAP trigger, STALL_NOP a NOP retired inside a MAC
 * shadow. MAC_LOAD (the Algorithm-2 trigger, placed right after the
 * R24 load it belongs to), EXIT_STATIC and EXIT_TRAP are
 * pseudo-instructions that do not retire.
 */
#define JAAVR_SB_OPS(X)                                                  \
    X(ADD) X(ADC) X(SUB) X(SBC) X(AND) X(OR) X(EOR) X(MOV)               \
    X(CP) X(CPC)                                                         \
    X(LSL) X(ROL) X(TST) X(CLR)                                          \
    X(MUL) X(MULS) X(MULSU) X(FMUL) X(FMULS) X(FMULSU) X(MOVW)           \
    X(SUBI) X(SBCI) X(ANDI) X(ORI) X(CPI) X(LDI)                         \
    X(ADIW) X(SBIW)                                                      \
    X(COM) X(NEG) X(SWAP) X(SWAP_MAC) X(INC) X(DEC) X(ASR) X(LSR) X(ROR) \
    X(BSET) X(BCLR) X(BLD) X(BST)                                        \
    X(SBI) X(CBI) X(IN) X(OUT)                                           \
    X(SKIP_SBIC) X(SKIP_SBIS) X(SKIP_CPSE) X(SKIP_SBRC) X(SKIP_SBRS)     \
    X(LD_X) X(LD_X_INC) X(LD_X_DEC)                                      \
    X(LDD_Y) X(LD_Y_INC) X(LD_Y_DEC)                                     \
    X(LDD_Z) X(LD_Z_INC) X(LD_Z_DEC)                                     \
    X(LDS) X(MAC_LOAD)                                                   \
    X(ST_X) X(ST_X_INC) X(ST_X_DEC)                                      \
    X(STD_Y) X(ST_Y_INC) X(ST_Y_DEC)                                     \
    X(STD_Z) X(ST_Z_INC) X(ST_Z_DEC)                                     \
    X(STS)                                                               \
    X(PUSH) X(POP) X(LPM_R0) X(LPM) X(LPM_INC)                           \
    X(NOPLIKE) X(STALL_NOP)                                              \
    X(GHOST) X(CALL_THROUGH)                                             \
    X(BRBS) X(BRBC)                                                      \
    X(EXIT_RET) X(EXIT_RETI) X(EXIT_IJMP) X(EXIT_ICALL)                  \
    X(EXIT_STATIC) X(EXIT_TRAP)

enum class SbOp : uint8_t
{
#define X(n) n,
    JAAVR_SB_OPS(X)
#undef X
};

/** Number of SbOp values; sizes the dispatch label table. */
constexpr std::size_t kNumSbOps =
    static_cast<std::size_t>(SbOp::EXIT_TRAP) + 1;

/**
 * One translated trace element (32 bytes): the dispatch label,
 * pre-extracted operands, and the accounting prefix. prefixCycles and
 * prefixInsts are the base cycle cost and the number of the retiring
 * elements before this one, so a trap or side exit at this element
 * charges exactly the retired prefix in O(1); retiring exits add
 * their own `cycles` (plus `extra` when a branch or skip is taken)
 * and one instruction on top. `shadow` is the MAC shadow (outstanding
 * Algorithm-2 micro-op cycles, 0..2) pending just before the element
 * executes; every exit derives MacUnit::pendingShadow() from it.
 *
 * `pc` is the program counter of the instruction; for the
 * pseudo-instructions it is the continuation / faulting PC.
 * Translation guarantees that for every retiring non-terminal
 * element, the next element's `pc` equals this instruction's static
 * fall-through successor — which is what the I/O side exit uses to
 * resume after a store that may have changed the MAC mode.
 */
struct SbInst
{
    void *lbl = nullptr;      ///< computed-goto handler (threaded mode)
    uint32_t pc = 0;          ///< program PC (pseudos: continuation PC)
    uint32_t target = 0;      ///< taken-branch / skip target PC
    uint32_t prefixCycles = 0;///< base cycles retired before this element
    uint16_t imm = 0;         ///< immediate / I/O address / LDD disp
    uint16_t addr = 0;        ///< LDS/STS data address; call return PC
    uint16_t prefixInsts = 0; ///< retiring elements before this one
    uint8_t op = 0;           ///< architectural Op (for op_count[])
    uint8_t a = 0;            ///< rd / SREG bit
    uint8_t b = 0;            ///< rr / bit number
    uint8_t cycles = 0;       ///< predecoded base cycle cost
    uint8_t extra = 0;        ///< taken-skip extra cycles (skipExtra)
    uint8_t shadow = 0;       ///< MAC shadow pending before this element
};
static_assert(sizeof(SbInst) == 32, "one trace element per half line");

/** A translated superblock: the trace plus its budget envelope. */
struct SbBlock
{
    uint32_t entry = 0;
    /** MACCR mode bits the trace was translated under (0 unless ISE). */
    uint8_t mode = 0;
    /** Translation of the same entry under another mode, or nullptr. */
    SbBlock *sibling = nullptr;
    /**
     * Upper bound on the cycles one pass through the trace can
     * consume (total base cost + the largest single exit extra).
     * runSuperblock() pre-checks `consumed + maxCycles` against the
     * budget and delegates budget-critical passes to the reference
     * loop, which places the CycleBudget trap with per-instruction
     * precision.
     */
    uint32_t maxCycles = 0;
    std::vector<SbInst> code;
};

/**
 * Entry-PC-keyed cache of translated superblocks. Lookup is a flat
 * table indexed by PC word (one pointer per flash word) so the hot
 * path is a single dependent load; translations of one entry under
 * several MACCR modes chain through SbBlock::sibling. Ownership
 * lives in a side vector.
 */
class SuperblockCache
{
  public:
    /** Trace length cap (elements, stitched ghosts/calls included). */
    static constexpr size_t kMaxInsts = 1024;
    /** Block-count cap; translation past it drops the whole cache. */
    static constexpr size_t kMaxBlocks = 4096;

    SuperblockCache();

    /** Block entered at @p pc translated under @p mode, or nullptr. */
    SbBlock *lookup(uint32_t pc, uint8_t mode) const
    {
        SbBlock *b = table[pc & 0xffff];
        while (b && b->mode != mode)
            b = b->sibling;
        return b;
    }

    /**
     * Translate (and cache) the superblock entered at @p pc under
     * MACCR mode bits @p mode from @p m's decode cache. @p labels
     * maps SbOp to the computed-goto handler addresses of the
     * executing run loop.
     */
    SbBlock *translate(const Machine &m, uint32_t pc, uint8_t mode,
                       void *const *labels);

    /** Drop every translated block (flash changed). */
    void invalidateAll();

    /** Number of live translated blocks (telemetry/tests). */
    size_t size() const { return blocks.size(); }

  private:
    std::vector<SbBlock *> table;
    std::vector<std::unique_ptr<SbBlock>> blocks;
};

} // namespace jaavr

#endif // JAAVR_AVR_SUPERBLOCK_HH
