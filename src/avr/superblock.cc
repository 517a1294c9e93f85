/**
 * @file
 * Superblock translation and the trace-threaded run loop
 * (DESIGN.md §11).
 *
 * Machine::runSuperblock() is the fast ISS path in every CPU mode:
 * its handlers implement the semantics of Machine::step() instruction
 * for instruction, and tests/test_superblock.cc pins the two to bit-
 * and cycle-identical state over all 65536 opcode words (CA, FAST and
 * ISE under every MACCR mode, with and without a MAC shadow pending
 * at entry) and the OPF/secp160 workloads. What changes is the
 * execution structure:
 *
 *  - dispatch is computed-goto threaded over pre-translated traces
 *    (SbInst carries the handler label and pre-extracted operands);
 *  - statistics accumulate block-at-a-time: per-exit cycle and
 *    instruction prefixes replace the per-instruction updates, and
 *    the cycle budget is pre-checked against the block's worst case
 *    so the hot path carries no per-instruction budget test;
 *  - the PC is not materialized between instructions at all — only
 *    exits compute it, from translate-time constants;
 *  - the MAC unit's behaviour is fixed per trace: MACCR's mode bits
 *    cannot change without an I/O store, so the Algorithm-1 SWAP and
 *    Algorithm-2 R24-load triggers, the two-cycle shadow after a
 *    trigger, the shadow hazard checks and the stall-NOP accounting
 *    are all decided at translate time.
 *
 * Side-exit contract:
 *  - traps: the trapping instruction does not retire; the exit
 *    charges the retired prefix, leaves the MAC shadow as it was
 *    before the instruction and publishes the trap exactly as step()
 *    does;
 *  - MAC hazards: a trace ends just before an element that would
 *    touch {R0..R8, R16..R19} (or retrigger too early) inside a
 *    shadow. Block entry never runs a trace with a shadow pending:
 *    it retires instructions through step() until the shadow is
 *    drained, so step() raises the MacHazard trap with its own pc
 *    and detail;
 *  - MACCR: in ISE a store into I/O space (which may change the MAC
 *    mode bits) side-exits after it retires, and the next block is
 *    looked up under the current mode;
 *  - every exit writes back the exact MacUnit::pendingShadow(),
 *    including the extra cycle of a taken branch or skip;
 *  - budget-critical blocks hand the rest of the run to
 *    runReference(), which places the CycleBudget trap with
 *    per-instruction precision;
 *  - attached observers (profiler, debug hook that wants stops,
 *    active wave/leak sink, pending fault, tracing) are handled one
 *    level up: Machine::run() sends those runs to the reference loop.
 */

#include "avr/superblock.hh"

#include <unordered_set>

#include "avr/flags.hh"
#include "avr/mac_unit.hh"
#include "avr/machine.hh"
#include "avr/timing.hh"

namespace jaavr
{

namespace
{

/** MACCR bits that select the MAC trigger algorithms. */
constexpr uint8_t kMacModeBits =
    MacUnit::ctrlSwapMode | MacUnit::ctrlLoadMode;

/**
 * Alg. 2 trigger in load mode: step() fires it on every data-space
 * load into R24, while only the DecodedInst::macLoadForm subset is
 * exempt from the shadow hazard rule.
 */
bool
loadsR24(const Inst &inst)
{
    switch (inst.op) {
      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC:
      case Op::LDD_Y: case Op::LD_Y_INC: case Op::LD_Y_DEC:
      case Op::LDD_Z: case Op::LD_Z_INC: case Op::LD_Z_DEC:
      case Op::LDS:
        return inst.rd == 24;
      default:
        return false;
    }
}

/** MAC shadow left after an element with shadow @p s retires in @p c. */
constexpr uint8_t
shadowAfter(uint8_t s, unsigned c)
{
    return s > c ? static_cast<uint8_t>(s - c) : 0;
}

} // anonymous namespace

SuperblockCache::SuperblockCache()
    : table(Machine::flashWords, nullptr)
{
}

void
SuperblockCache::invalidateAll()
{
    // Clear only the slots in use: loaders and fault campaigns
    // invalidate far more often than the 64K-entry table fills.
    for (const auto &b : blocks)
        table[b->entry] = nullptr;
    blocks.clear();
}

SbBlock *
SuperblockCache::translate(const Machine &m, uint32_t entry, uint8_t mode,
                           void *const *labels)
{
    // A runaway working set (e.g. a fault campaign re-corrupting
    // flash between runs already invalidates; this is the backstop
    // for programs with thousands of distinct entries).
    if (blocks.size() >= kMaxBlocks)
        invalidateAll();

    auto owned = std::make_unique<SbBlock>();
    SbBlock *blk = owned.get();
    blk->entry = entry & 0xffff;
    blk->mode = mode;
    const bool load_mac = mode & MacUnit::ctrlLoadMode;
    const bool swap_mac = mode & MacUnit::ctrlSwapMode;

    std::unordered_set<uint32_t> visited;
    uint32_t pc = blk->entry;
    uint32_t total = 0;    // base cycles of the retiring prefix
    uint16_t retired = 0;  // retiring elements so far
    uint8_t shadow = 0;    // MAC shadow before the next element

    auto emit = [&](SbOp h, SbInst &si) {
        si.lbl = labels[static_cast<size_t>(h)];
        si.prefixCycles = total;
        si.prefixInsts = retired;
        si.shadow = shadow;
        blk->code.push_back(si);
    };

    for (;;) {
        const DecodedInst &dc = m.decoded(pc);
        const Inst &inst = dc.inst;
        // Alg. 2: an R24 load in load mode triggers two MACs. The
        // reference hazard rule, evaluated on the static shadow.
        const bool r24_trigger = load_mac && loadsR24(inst);
        const bool r24_exempt = load_mac && dc.macLoadForm;
        const bool hazard = (shadow > 0 && dc.touchesMac && !r24_exempt) ||
                            (shadow >= 2 && r24_exempt);
        SbInst si;
        si.pc = pc;
        if (pc == Machine::exitAddress || blk->code.size() >= kMaxInsts ||
            !visited.insert(pc).second || hazard) {
            // Exit sentinel, length cap, loop back-edge, or an element
            // the MAC shadow forbids: close the trace with a
            // non-retiring continuation. A hazard is then raised by
            // step() while block entry drains the shadow.
            emit(SbOp::EXIT_STATIC, si);
            break;
        }
        if (inst.op == Op::INVALID) {
            // Non-retiring: the handler re-reads the flash word to
            // discriminate FlashOutOfBounds from IllegalOpcode.
            emit(SbOp::EXIT_TRAP, si);
            break;
        }
        si.op = static_cast<uint8_t>(inst.op);
        si.a = inst.rd;
        si.b = inst.rr;
        si.imm = inst.imm;
        si.cycles = dc.cycles;
        // Where translation continues after this element retires.
        uint32_t next = (pc + inst.words) & 0xffff;
        bool terminal = false;
        // Skip instructions: the taken leg's target and extra cycles
        // depend only on the skipped word's length, which the decode
        // cache knows; flash writes invalidate the whole cache, so
        // baking it in is safe.
        auto skip = [&] {
            bool two = m.decoded(next).inst.words == 2;
            si.extra = static_cast<uint8_t>(skipExtra(two));
            si.target = (next + (two ? 2u : 1u)) & 0xffff;
        };

        SbOp h = SbOp::NOPLIKE;
        switch (inst.op) {
          // Canonicalized synonym encodings get specialized
          // single-operand handlers (see Synonym in avr/isa.hh).
          case Op::ADD:
            h = dc.synonym == Synonym::LSL ? SbOp::LSL : SbOp::ADD;
            break;
          case Op::ADC:
            h = dc.synonym == Synonym::ROL ? SbOp::ROL : SbOp::ADC;
            break;
          case Op::AND:
            h = dc.synonym == Synonym::TST ? SbOp::TST : SbOp::AND;
            break;
          case Op::EOR:
            h = dc.synonym == Synonym::CLR ? SbOp::CLR : SbOp::EOR;
            break;
          case Op::SUB: h = SbOp::SUB; break;
          case Op::SBC: h = SbOp::SBC; break;
          case Op::OR: h = SbOp::OR; break;
          case Op::MOV: h = SbOp::MOV; break;
          case Op::CP: h = SbOp::CP; break;
          case Op::CPC: h = SbOp::CPC; break;
          case Op::MUL: h = SbOp::MUL; break;
          case Op::MULS: h = SbOp::MULS; break;
          case Op::MULSU: h = SbOp::MULSU; break;
          case Op::FMUL: h = SbOp::FMUL; break;
          case Op::FMULS: h = SbOp::FMULS; break;
          case Op::FMULSU: h = SbOp::FMULSU; break;
          case Op::MOVW: h = SbOp::MOVW; break;
          case Op::SUBI: h = SbOp::SUBI; break;
          case Op::SBCI: h = SbOp::SBCI; break;
          case Op::ANDI: h = SbOp::ANDI; break;
          case Op::ORI: h = SbOp::ORI; break;
          case Op::CPI: h = SbOp::CPI; break;
          case Op::LDI: h = SbOp::LDI; break;
          case Op::ADIW: h = SbOp::ADIW; break;
          case Op::SBIW: h = SbOp::SBIW; break;
          case Op::COM: h = SbOp::COM; break;
          case Op::NEG: h = SbOp::NEG; break;
          case Op::SWAP:
            // Alg. 1: in swap mode every SWAP feeds its low nibble
            // through the MAC.
            h = swap_mac ? SbOp::SWAP_MAC : SbOp::SWAP;
            break;
          case Op::INC: h = SbOp::INC; break;
          case Op::DEC: h = SbOp::DEC; break;
          case Op::ASR: h = SbOp::ASR; break;
          case Op::LSR: h = SbOp::LSR; break;
          case Op::ROR: h = SbOp::ROR; break;
          case Op::BSET: si.a = inst.bit; h = SbOp::BSET; break;
          case Op::BCLR: si.a = inst.bit; h = SbOp::BCLR; break;
          case Op::BLD: si.b = inst.bit; h = SbOp::BLD; break;
          case Op::BST: si.b = inst.bit; h = SbOp::BST; break;
          case Op::SBI: si.b = inst.bit; h = SbOp::SBI; break;
          case Op::CBI: si.b = inst.bit; h = SbOp::CBI; break;
          case Op::SBIC:
            si.b = inst.bit;
            skip();
            h = SbOp::SKIP_SBIC;
            break;
          case Op::SBIS:
            si.b = inst.bit;
            skip();
            h = SbOp::SKIP_SBIS;
            break;
          case Op::IN: h = SbOp::IN; break;
          case Op::OUT: h = SbOp::OUT; break;
          case Op::LD_X: h = SbOp::LD_X; break;
          case Op::LD_X_INC: h = SbOp::LD_X_INC; break;
          case Op::LD_X_DEC: h = SbOp::LD_X_DEC; break;
          case Op::LDD_Y:
            si.imm = static_cast<uint16_t>(inst.disp);
            h = SbOp::LDD_Y;
            break;
          case Op::LD_Y_INC: h = SbOp::LD_Y_INC; break;
          case Op::LD_Y_DEC: h = SbOp::LD_Y_DEC; break;
          case Op::LDD_Z:
            si.imm = static_cast<uint16_t>(inst.disp);
            h = SbOp::LDD_Z;
            break;
          case Op::LD_Z_INC: h = SbOp::LD_Z_INC; break;
          case Op::LD_Z_DEC: h = SbOp::LD_Z_DEC; break;
          case Op::LDS:
            si.addr = static_cast<uint16_t>(inst.k);
            h = SbOp::LDS;
            break;
          case Op::ST_X: h = SbOp::ST_X; break;
          case Op::ST_X_INC: h = SbOp::ST_X_INC; break;
          case Op::ST_X_DEC: h = SbOp::ST_X_DEC; break;
          case Op::STD_Y:
            si.imm = static_cast<uint16_t>(inst.disp);
            h = SbOp::STD_Y;
            break;
          case Op::ST_Y_INC: h = SbOp::ST_Y_INC; break;
          case Op::ST_Y_DEC: h = SbOp::ST_Y_DEC; break;
          case Op::STD_Z:
            si.imm = static_cast<uint16_t>(inst.disp);
            h = SbOp::STD_Z;
            break;
          case Op::ST_Z_INC: h = SbOp::ST_Z_INC; break;
          case Op::ST_Z_DEC: h = SbOp::ST_Z_DEC; break;
          case Op::STS:
            si.addr = static_cast<uint16_t>(inst.k);
            h = SbOp::STS;
            break;
          case Op::PUSH: h = SbOp::PUSH; break;
          case Op::POP: h = SbOp::POP; break;
          case Op::LPM_R0: h = SbOp::LPM_R0; break;
          case Op::LPM: h = SbOp::LPM; break;
          case Op::LPM_INC: h = SbOp::LPM_INC; break;
          case Op::NOP:
            // A NOP retired inside a MAC shadow is a hazard stall.
            h = shadow > 0 ? SbOp::STALL_NOP : SbOp::NOPLIKE;
            break;
          case Op::SLEEP: case Op::WDR: case Op::BREAK:
            h = SbOp::NOPLIKE;
            break;

          // Direct jumps stitch: the transfer retires as a "ghost"
          // (cycles via the prefix sums, no runtime control flow)
          // and translation continues at the target. Revisits and
          // the length cap close the trace at the loop top.
          case Op::RJMP:
            h = SbOp::GHOST;
            next = (pc + 1 + inst.disp) & 0xffff;
            break;
          case Op::JMP:
            h = SbOp::GHOST;
            next = inst.k & 0xffff;
            break;
          // Direct calls stitch through into the callee; only the
          // return-address push happens at run time.
          case Op::RCALL:
            si.addr = static_cast<uint16_t>(next);
            h = SbOp::CALL_THROUGH;
            next = (pc + 1 + inst.disp) & 0xffff;
            break;
          case Op::CALL:
            si.addr = static_cast<uint16_t>(next);
            h = SbOp::CALL_THROUGH;
            next = inst.k & 0xffff;
            break;

          case Op::BRBS: case Op::BRBC:
            si.a = inst.bit;
            si.target = (pc + 1 + inst.disp) & 0xffff;
            h = inst.op == Op::BRBS ? SbOp::BRBS : SbOp::BRBC;
            break;
          case Op::CPSE:
            skip();
            h = SbOp::SKIP_CPSE;
            break;
          case Op::SBRC:
            si.b = inst.bit;
            skip();
            h = SbOp::SKIP_SBRC;
            break;
          case Op::SBRS:
            si.b = inst.bit;
            skip();
            h = SbOp::SKIP_SBRS;
            break;

          // Indirect control flow retires, then ends the trace.
          case Op::RET: h = SbOp::EXIT_RET; terminal = true; break;
          case Op::RETI: h = SbOp::EXIT_RETI; terminal = true; break;
          case Op::IJMP: h = SbOp::EXIT_IJMP; terminal = true; break;
          case Op::ICALL:
            si.addr = static_cast<uint16_t>(next);
            h = SbOp::EXIT_ICALL;
            terminal = true;
            break;

          case Op::INVALID:
            break;  // handled above
        }

        emit(h, si);
        total += dc.cycles;
        retired++;
        shadow = r24_trigger ? 2 : shadowAfter(shadow, dc.cycles);
        if (terminal)
            break;
        pc = next;
        if (r24_trigger) {
            // The two micro-MACs apply right after the load, on the
            // loaded R24 (as step() does); the element does not
            // retire and carries the fresh two-cycle shadow.
            SbInst mac;
            mac.pc = pc;
            emit(SbOp::MAC_LOAD, mac);
        }
    }

    // Worst-case cycles of one pass: every element's base cost plus
    // the largest single taken-branch/skip extra (an exit leaves the
    // trace, so at most one extra applies per pass).
    blk->maxCycles = total + 2;
    blk->sibling = table[blk->entry];
    table[blk->entry] = blk;
    blocks.push_back(std::move(owned));
    return blk;
}

/**
 * The superblock-threaded run loop. Hot state (SREG, the register
 * file, the statistics accumulators) lives in locals — byte stores
 * into the simulated SRAM may alias any member through the uint8_t*,
 * so member accesses cannot be cached across them by the compiler —
 * and is flushed on every exit. The MAC shadow changes only at block
 * exits, so it stays in macUnit.
 */
void
Machine::runSuperblock(uint64_t max_cycles)
{
    if (!sbCache)
        sbCache = std::make_unique<SuperblockCache>();

    // Labels-as-values dispatch table (a GNU extension, which the
    // tree already depends on elsewhere, e.g. unsigned __int128 in
    // src/field/), indexed by SbOp in declaration order (the same
    // X-macro builds both, so they cannot skew).
    static void *const labels[kNumSbOps] = {
#define X(n) &&lbl_##n,
        JAAVR_SB_OPS(X)
#undef X
    };
#define SB_NEXT() goto *ip->lbl

    uint64_t consumed = 0;
    uint64_t insts = 0;
    uint32_t pc = pcWord;
    const uint16_t data_limit = dataLimitV;
    const uint16_t stack_guard = stackGuardV;
    const bool ise = cpuMode == CpuMode::ISE;
    // Set by the guarded access lambdas; checked once per retired
    // instruction. Never reset: the loop exits on the first trap.
    TrapKind trap_kind = TrapKind::None;
    uint16_t trap_addr = 0;
    // Set by a slow-path (I/O space) store; rechecked at retirement
    // so a store that may have changed MACCR side-exits the trace.
    bool io_dirty = false;

    uint8_t sreg = sregBits;
    std::array<uint8_t, 32> r8 = regs;
    std::array<uint32_t, kNumOps> op_count{};
    std::array<uint32_t, kNumOps> op_extra{};
    const uint16_t *const flash_data = flash.data();
    uint8_t *const sram_data = sram.data();
    SuperblockCache *const cache = sbCache.get();

    auto pair = [&](unsigned i) -> uint16_t {
        return static_cast<uint16_t>(r8[i]) |
               (static_cast<uint16_t>(r8[i + 1]) << 8);
    };
    auto setPair = [&](unsigned i, uint16_t v) {
        r8[i] = static_cast<uint8_t>(v);
        r8[i + 1] = static_cast<uint8_t>(v >> 8);
    };

    // Delta-based so the periodic flush cannot double-count; per-op
    // cycle totals are reconstructed as op_count * base + op_extra.
    uint64_t flushed_insts = 0;
    uint64_t flushed_cycles = 0;
    auto flush = [&] {
        execStats.instructions += insts - flushed_insts;
        execStats.cycles += consumed - flushed_cycles;
        flushed_insts = insts;
        flushed_cycles = consumed;
        pcWord = pc & 0xffff;
        sregBits = sreg;
        regs = r8;
        const std::array<uint8_t, kNumOps> &base_tab =
            baseCycleTable(cpuMode);
        for (size_t i = 0; i < kNumOps; i++) {
            execStats.opCount[i] += op_count[i];
            execStats.opCycles[i] +=
                uint64_t(op_count[i]) * base_tab[i] + op_extra[i];
        }
        op_count.fill(0);
        op_extra.fill(0);
    };

    // Guarded data-space access, mirroring step()'s ldG/stG/pushG (no
    // debug hooks here). The register/IO fallback syncs the local
    // SREG around readData/writeData, which can touch SREG at 0x5f.
    auto loadMem = [&](uint16_t a) -> uint8_t {
        if (a >= sramBase) [[likely]] {
            if (a > data_limit) [[unlikely]] {
                trap_kind = TrapKind::SramOutOfBounds;
                trap_addr = a;
                return 0xff;
            }
            return sram_data[a - sramBase];
        }
        sregBits = sreg;
        regs = r8;
        uint8_t v = readData(a);
        sreg = sregBits;
        r8 = regs;
        return v;
    };
    auto storeMem = [&](uint16_t a, uint8_t v) {
        if (a >= sramBase) [[likely]] {
            if (a > data_limit) [[unlikely]] {
                trap_kind = TrapKind::SramOutOfBounds;
                trap_addr = a;
                return;
            }
            sram_data[a - sramBase] = v;
            return;
        }
        sregBits = sreg;
        regs = r8;
        writeData(a, v);
        sreg = sregBits;
        r8 = regs;
        io_dirty = true;
    };
    auto ioRead = [&](uint8_t ioaddr) -> uint8_t {
        sregBits = sreg;
        regs = r8;
        uint8_t v = readData(ioBase + ioaddr);
        sreg = sregBits;
        r8 = regs;
        return v;
    };
    auto ioWrite = [&](uint8_t ioaddr, uint8_t v) {
        sregBits = sreg;
        regs = r8;
        writeData(ioBase + ioaddr, v);
        sreg = sregBits;
        r8 = regs;
        io_dirty = true;
    };
    auto pushB = [&](uint8_t v) {
        uint16_t a = sp();
        if (a < stack_guard) [[unlikely]] {
            trap_kind = TrapKind::StackOverflow;
            trap_addr = a;
            return;
        }
        storeMem(a, v);
        if (trap_kind == TrapKind::None) [[likely]]
            setSp(a - 1);
    };
    auto popB = [&]() -> uint8_t {
        setSp(sp() + 1);
        return loadMem(sp());
    };
    auto pushRet = [&](uint32_t ret) {
        pushB(static_cast<uint8_t>(ret));
        pushB(static_cast<uint8_t>(ret >> 8));
    };
    auto popRet = [&]() -> uint32_t {
        uint32_t hi = popB();
        uint32_t lo = popB();
        return (hi << 8) | lo;
    };

    const SbInst *ip = nullptr;

// Exit accounting from the element's translate-time prefixes:
// SB_LEAVE when it retires (a taken branch or skip adds `extra`
// cycles), SB_STAY when it does not. Macros, not lambdas: with
// lambdas GCC keeps SREG in memory across the handlers.
#define SB_LEAVE(extra)                                                 \
    do {                                                                \
        consumed += ip->prefixCycles + ip->cycles + (extra);            \
        insts += ip->prefixInsts + 1u;                                  \
        macUnit.setPendingShadow(                                       \
            shadowAfter(ip->shadow, ip->cycles + (extra)));             \
    } while (0)
#define SB_STAY()                                                       \
    do {                                                                \
        consumed += ip->prefixCycles;                                   \
        insts += ip->prefixInsts;                                       \
        macUnit.setPendingShadow(ip->shadow);                           \
        pc = ip->pc;                                                    \
    } while (0)

// Retirement tails. Plain ALU work cannot trap; memory handlers
// check the trap flag (the trapping instruction must not retire);
// store handlers additionally side-exit after a slow-path store in
// ISE, which may have changed MACCR's mode bits mid-trace: the store
// retires and the trace stops at its successor ip[1] (translation puts
// the static fall-through there), whose prefixes and shadow are
// exactly the state after the store; the next block is looked up
// under the current mode.
#define SB_RETIRE()                                                     \
    do {                                                                \
        op_count[ip->op]++;                                             \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)
#define SB_RETIRE_MEM()                                                 \
    do {                                                                \
        if (trap_kind != TrapKind::None) [[unlikely]]                   \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)
#define SB_RETIRE_STORE()                                               \
    do {                                                                \
        if (trap_kind != TrapKind::None) [[unlikely]]                   \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        if (io_dirty) [[unlikely]] {                                    \
            io_dirty = false;                                           \
            if (ise) {                                                  \
                ip++;                                                   \
                goto lbl_EXIT_STATIC;                                   \
            }                                                           \
        }                                                               \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)

  next_block:
    if (pc == exitAddress) {
        flush();
        return;
    }
    // Keep the 32-bit op_count entries from saturating.
    if (insts - flushed_insts >= 0x1000000) [[unlikely]]
        flush();
    if (macUnit.pendingShadow() != 0) [[unlikely]] {
        // Traces are translated for an idle shadow at entry: retire
        // the instructions still inside it through step(), which also
        // raises any MAC hazard with the reference pc and detail.
        flush();
        const uint64_t cycles0 = execStats.cycles;
        const uint64_t insts0 = execStats.instructions;
        while (macUnit.pendingShadow() != 0 && pcWord != exitAddress) {
            step();
            if (pendingTrap)
                return;
            if (consumed + (execStats.cycles - cycles0) >= max_cycles) {
                pendingTrap = Trap{TrapKind::CycleBudget, pcWord, 0};
                return;
            }
        }
        // step() accounted into execStats directly: advance the run
        // totals and the flush marks together.
        consumed += execStats.cycles - cycles0;
        insts += execStats.instructions - insts0;
        flushed_cycles = consumed;
        flushed_insts = insts;
        pc = pcWord;
        sreg = sregBits;
        r8 = regs;
        goto next_block;
    }
    io_dirty = false;
    {
        const uint8_t mode = ise ? io[ioMaccr] & kMacModeBits : 0;
        SbBlock *b = cache->lookup(pc, mode);
        if (!b) [[unlikely]]
            b = cache->translate(*this, pc, mode, labels);
        // Budget pre-check: if this pass could cross the budget, hand
        // the rest of the run to the reference loop for
        // per-instruction precision. Passing it guarantees consumed
        // stays below max_cycles for the whole pass, so handlers carry
        // no budget test.
        if (consumed + b->maxCycles >= max_cycles) [[unlikely]] {
            flush();
            runReference(max_cycles - consumed);
            return;
        }
        ip = b->code.data();
    }
    SB_NEXT();

  lbl_ADD: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d + s;
    r8[ip->a] = r;
    addFlagsB(sreg, d, s, r);
    SB_RETIRE();
  }
  lbl_LSL: {
    // Canonicalized LSL Rd == ADD Rd,Rd: single read, doubled.
    uint8_t d = r8[ip->a];
    uint8_t r = static_cast<uint8_t>(d + d);
    r8[ip->a] = r;
    addFlagsB(sreg, d, d, r);
    SB_RETIRE();
  }
  lbl_ADC: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d + s + (sreg & sregC);
    r8[ip->a] = r;
    addFlagsB(sreg, d, s, r);
    SB_RETIRE();
  }
  lbl_ROL: {
    // Canonicalized ROL Rd == ADC Rd,Rd.
    uint8_t d = r8[ip->a];
    uint8_t r = static_cast<uint8_t>(d + d + (sreg & sregC));
    r8[ip->a] = r;
    addFlagsB(sreg, d, d, r);
    SB_RETIRE();
  }
  lbl_SUB: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d - s;
    r8[ip->a] = r;
    subFlagsB(sreg, d, s, r, false);
    SB_RETIRE();
  }
  lbl_SBC: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d - s - (sreg & sregC);
    r8[ip->a] = r;
    subFlagsB(sreg, d, s, r, true);
    SB_RETIRE();
  }
  lbl_AND: {
    uint8_t r = r8[ip->a] & r8[ip->b];
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_TST: {
    // Canonicalized TST Rd == AND Rd,Rd: flags only, no write.
    logicFlagsB(sreg, r8[ip->a]);
    SB_RETIRE();
  }
  lbl_OR: {
    uint8_t r = r8[ip->a] | r8[ip->b];
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_EOR: {
    uint8_t r = r8[ip->a] ^ r8[ip->b];
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_CLR: {
    // Canonicalized CLR Rd == EOR Rd,Rd: constant result and flags.
    r8[ip->a] = 0;
    sreg = (sreg & ~(sregZ | sregN | sregV | sregS)) | sregZ;
    SB_RETIRE();
  }
  lbl_MOV: {
    r8[ip->a] = r8[ip->b];
    SB_RETIRE();
  }
  lbl_CP: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    subFlagsB(sreg, d, s, d - s, false);
    SB_RETIRE();
  }
  lbl_CPC: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d - s - (sreg & sregC);
    subFlagsB(sreg, d, s, r, true);
    SB_RETIRE();
  }
  lbl_MUL: {
    uint16_t p = static_cast<uint16_t>(r8[ip->a]) * r8[ip->b];
    r8[0] = static_cast<uint8_t>(p);
    r8[1] = static_cast<uint8_t>(p >> 8);
    mulFlagsB(sreg, p, p & 0x8000);
    SB_RETIRE();
  }
  lbl_MULS: {
    int16_t p = static_cast<int16_t>(static_cast<int8_t>(r8[ip->a])) *
                static_cast<int8_t>(r8[ip->b]);
    uint16_t u = static_cast<uint16_t>(p);
    r8[0] = static_cast<uint8_t>(u);
    r8[1] = static_cast<uint8_t>(u >> 8);
    mulFlagsB(sreg, u, u & 0x8000);
    SB_RETIRE();
  }
  lbl_MULSU: {
    int16_t p = static_cast<int16_t>(static_cast<int8_t>(r8[ip->a])) *
                static_cast<uint8_t>(r8[ip->b]);
    uint16_t u = static_cast<uint16_t>(p);
    r8[0] = static_cast<uint8_t>(u);
    r8[1] = static_cast<uint8_t>(u >> 8);
    mulFlagsB(sreg, u, u & 0x8000);
    SB_RETIRE();
  }
  lbl_FMUL: {
    int32_t p = static_cast<uint16_t>(r8[ip->a]) * r8[ip->b];
    uint16_t u = static_cast<uint16_t>(p);
    bool c = u & 0x8000;
    u <<= 1;
    r8[0] = static_cast<uint8_t>(u);
    r8[1] = static_cast<uint8_t>(u >> 8);
    mulFlagsB(sreg, u, c);
    SB_RETIRE();
  }
  lbl_FMULS: {
    int32_t p = static_cast<int8_t>(r8[ip->a]) *
                static_cast<int8_t>(r8[ip->b]);
    uint16_t u = static_cast<uint16_t>(p);
    bool c = u & 0x8000;
    u <<= 1;
    r8[0] = static_cast<uint8_t>(u);
    r8[1] = static_cast<uint8_t>(u >> 8);
    mulFlagsB(sreg, u, c);
    SB_RETIRE();
  }
  lbl_FMULSU: {
    int32_t p = static_cast<int8_t>(r8[ip->a]) * r8[ip->b];
    uint16_t u = static_cast<uint16_t>(p);
    bool c = u & 0x8000;
    u <<= 1;
    r8[0] = static_cast<uint8_t>(u);
    r8[1] = static_cast<uint8_t>(u >> 8);
    mulFlagsB(sreg, u, c);
    SB_RETIRE();
  }
  lbl_MOVW: {
    r8[ip->a] = r8[ip->b];
    r8[ip->a + 1] = r8[ip->b + 1];
    SB_RETIRE();
  }
  lbl_SUBI: {
    uint8_t d = r8[ip->a];
    uint8_t r = d - static_cast<uint8_t>(ip->imm);
    r8[ip->a] = r;
    subFlagsB(sreg, d, static_cast<uint8_t>(ip->imm), r, false);
    SB_RETIRE();
  }
  lbl_SBCI: {
    uint8_t d = r8[ip->a];
    uint8_t r = d - static_cast<uint8_t>(ip->imm) - (sreg & sregC);
    r8[ip->a] = r;
    subFlagsB(sreg, d, static_cast<uint8_t>(ip->imm), r, true);
    SB_RETIRE();
  }
  lbl_ANDI: {
    uint8_t r = r8[ip->a] & static_cast<uint8_t>(ip->imm);
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_ORI: {
    uint8_t r = r8[ip->a] | static_cast<uint8_t>(ip->imm);
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_CPI: {
    uint8_t d = r8[ip->a];
    subFlagsB(sreg, d, static_cast<uint8_t>(ip->imm),
              d - static_cast<uint8_t>(ip->imm), false);
    SB_RETIRE();
  }
  lbl_LDI: {
    r8[ip->a] = static_cast<uint8_t>(ip->imm);
    SB_RETIRE();
  }
  lbl_ADIW: {
    uint16_t d = pair(ip->a);
    uint16_t r = d + ip->imm;
    setPair(ip->a, r);
    wideFlagsB(sreg, r, !(d & 0x8000) && (r & 0x8000),
               !(r & 0x8000) && (d & 0x8000));
    SB_RETIRE();
  }
  lbl_SBIW: {
    uint16_t d = pair(ip->a);
    uint16_t r = d - ip->imm;
    setPair(ip->a, r);
    wideFlagsB(sreg, r, (d & 0x8000) && !(r & 0x8000),
               (r & 0x8000) && !(d & 0x8000));
    SB_RETIRE();
  }
  lbl_COM: {
    uint8_t r = ~r8[ip->a];
    r8[ip->a] = r;
    uint8_t n = (r >> 7) & 1;
    sreg = (sreg & ~(sregC | sregZ | sregN | sregV | sregS)) | sregC |
           static_cast<uint8_t>(r == 0) << 1 | n << 2 | n << 4;
    SB_RETIRE();
  }
  lbl_NEG: {
    uint8_t d = r8[ip->a];
    uint8_t r = -d;
    r8[ip->a] = r;
    subFlagsB(sreg, 0, d, r, false);
    SB_RETIRE();
  }
  lbl_SWAP: {
    uint8_t d = r8[ip->a];
    r8[ip->a] = static_cast<uint8_t>((d << 4) | (d >> 4));
    SB_RETIRE();
  }
  lbl_SWAP_MAC: {
    // Alg. 1 trigger: the low nibble enters the MAC before the swap.
    uint8_t d = r8[ip->a];
    macUnit.macSwap(r8, d & 0x0f);
    r8[ip->a] = static_cast<uint8_t>((d << 4) | (d >> 4));
    SB_RETIRE();
  }
  lbl_INC: {
    uint8_t r = r8[ip->a] + 1;
    r8[ip->a] = r;
    incDecFlagsB(sreg, r, r == 0x80);
    SB_RETIRE();
  }
  lbl_DEC: {
    uint8_t r = r8[ip->a] - 1;
    r8[ip->a] = r;
    incDecFlagsB(sreg, r, r == 0x7f);
    SB_RETIRE();
  }
  lbl_ASR: {
    uint8_t d = r8[ip->a];
    uint8_t r = static_cast<uint8_t>((d >> 1) | (d & 0x80));
    r8[ip->a] = r;
    shiftFlagsB(sreg, r, d & 1);
    SB_RETIRE();
  }
  lbl_LSR: {
    uint8_t d = r8[ip->a];
    uint8_t r = d >> 1;
    r8[ip->a] = r;
    shiftFlagsB(sreg, r, d & 1);
    SB_RETIRE();
  }
  lbl_ROR: {
    uint8_t d = r8[ip->a];
    uint8_t r = static_cast<uint8_t>(
        (d >> 1) | (static_cast<unsigned>(sreg & sregC) << 7));
    r8[ip->a] = r;
    shiftFlagsB(sreg, r, d & 1);
    SB_RETIRE();
  }
  lbl_BSET: {
    sreg |= static_cast<uint8_t>(1u << ip->a);
    SB_RETIRE();
  }
  lbl_BCLR: {
    sreg &= static_cast<uint8_t>(~(1u << ip->a));
    SB_RETIRE();
  }
  lbl_BLD: {
    if (sreg & sregT)
        r8[ip->a] |= 1u << ip->b;
    else
        r8[ip->a] &= ~(1u << ip->b);
    SB_RETIRE();
  }
  lbl_BST: {
    sreg = static_cast<uint8_t>((sreg & ~sregT) |
                                (((r8[ip->a] >> ip->b) & 1u) << 6));
    SB_RETIRE();
  }
  lbl_SBI: {
    ioWrite(static_cast<uint8_t>(ip->imm),
            ioRead(static_cast<uint8_t>(ip->imm)) | (1u << ip->b));
    SB_RETIRE_STORE();
  }
  lbl_CBI: {
    ioWrite(static_cast<uint8_t>(ip->imm),
            ioRead(static_cast<uint8_t>(ip->imm)) & ~(1u << ip->b));
    SB_RETIRE_STORE();
  }
  lbl_IN: {
    r8[ip->a] = ioRead(static_cast<uint8_t>(ip->imm));
    SB_RETIRE();
  }
  lbl_OUT: {
    ioWrite(static_cast<uint8_t>(ip->imm), r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_SKIP_SBIC: {
    if (!(ioRead(static_cast<uint8_t>(ip->imm)) & (1u << ip->b)))
        goto take_skip;
    SB_RETIRE();
  }
  lbl_SKIP_SBIS: {
    if (ioRead(static_cast<uint8_t>(ip->imm)) & (1u << ip->b))
        goto take_skip;
    SB_RETIRE();
  }
  lbl_SKIP_CPSE: {
    if (r8[ip->a] == r8[ip->b])
        goto take_skip;
    SB_RETIRE();
  }
  lbl_SKIP_SBRC: {
    if (!(r8[ip->a] & (1u << ip->b)))
        goto take_skip;
    SB_RETIRE();
  }
  lbl_SKIP_SBRS: {
    if (r8[ip->a] & (1u << ip->b))
        goto take_skip;
    SB_RETIRE();
  }
  lbl_LD_X: {
    uint8_t v = loadMem(pair(26));
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LD_X_INC: {
    uint16_t ea = pair(26);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    setPair(26, ea + 1);
    SB_RETIRE_MEM();
  }
  lbl_LD_X_DEC: {
    uint16_t ea = pair(26);
    setPair(26, --ea);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LDD_Y: {
    uint8_t v = loadMem(static_cast<uint16_t>(pair(28) + ip->imm));
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LD_Y_INC: {
    uint16_t ea = pair(28);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    setPair(28, ea + 1);
    SB_RETIRE_MEM();
  }
  lbl_LD_Y_DEC: {
    uint16_t ea = pair(28);
    setPair(28, --ea);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LDD_Z: {
    uint8_t v = loadMem(static_cast<uint16_t>(pair(30) + ip->imm));
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LD_Z_INC: {
    uint16_t ea = pair(30);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    setPair(30, ea + 1);
    SB_RETIRE_MEM();
  }
  lbl_LD_Z_DEC: {
    uint16_t ea = pair(30);
    setPair(30, --ea);
    uint8_t v = loadMem(ea);
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_LDS: {
    uint8_t v = loadMem(ip->addr);
    r8[ip->a] = v;
    SB_RETIRE_MEM();
  }
  lbl_MAC_LOAD: {
    // Alg. 2 trigger after the R24 load just retired (non-retiring).
    macUnit.macLoad(r8, r8[24]);
    ip++;
    SB_NEXT();
  }
  lbl_ST_X: {
    storeMem(pair(26), r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_ST_X_INC: {
    uint16_t ea = pair(26);
    storeMem(ea, r8[ip->a]);
    setPair(26, ea + 1);
    SB_RETIRE_STORE();
  }
  lbl_ST_X_DEC: {
    uint16_t ea = pair(26);
    setPair(26, --ea);
    storeMem(ea, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_STD_Y: {
    storeMem(static_cast<uint16_t>(pair(28) + ip->imm), r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_ST_Y_INC: {
    uint16_t ea = pair(28);
    storeMem(ea, r8[ip->a]);
    setPair(28, ea + 1);
    SB_RETIRE_STORE();
  }
  lbl_ST_Y_DEC: {
    uint16_t ea = pair(28);
    setPair(28, --ea);
    storeMem(ea, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_STD_Z: {
    storeMem(static_cast<uint16_t>(pair(30) + ip->imm), r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_ST_Z_INC: {
    uint16_t ea = pair(30);
    storeMem(ea, r8[ip->a]);
    setPair(30, ea + 1);
    SB_RETIRE_STORE();
  }
  lbl_ST_Z_DEC: {
    uint16_t ea = pair(30);
    setPair(30, --ea);
    storeMem(ea, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_STS: {
    storeMem(ip->addr, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_PUSH: {
    pushB(r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_POP: {
    r8[ip->a] = popB();
    SB_RETIRE_MEM();
  }
  lbl_LPM_R0: {
    uint16_t zv = pair(30);
    uint16_t w = flash_data[(zv >> 1) & (flashWords - 1)];
    r8[0] = (zv & 1) ? static_cast<uint8_t>(w >> 8)
                     : static_cast<uint8_t>(w);
    SB_RETIRE();
  }
  lbl_LPM: {
    uint16_t zv = pair(30);
    uint16_t w = flash_data[(zv >> 1) & (flashWords - 1)];
    r8[ip->a] = (zv & 1) ? static_cast<uint8_t>(w >> 8)
                         : static_cast<uint8_t>(w);
    SB_RETIRE();
  }
  lbl_LPM_INC: {
    uint16_t zv = pair(30);
    uint16_t w = flash_data[(zv >> 1) & (flashWords - 1)];
    r8[ip->a] = (zv & 1) ? static_cast<uint8_t>(w >> 8)
                         : static_cast<uint8_t>(w);
    setPair(30, zv + 1);
    SB_RETIRE();
  }
  lbl_NOPLIKE: {
    // NOP/SLEEP/WDR/BREAK outside a MAC shadow.
    SB_RETIRE();
  }
  lbl_STALL_NOP: {
    // A NOP inside a MAC shadow: a hazard stall.
    execStats.macStallNops++;
    SB_RETIRE();
  }
  lbl_GHOST: {
    // Stitched RJMP/JMP: retires (count + cycles via the prefix
    // sums); the control transfer was resolved at translate time.
    SB_RETIRE();
  }
  lbl_CALL_THROUGH: {
    // Stitched RCALL/CALL: push the return address, keep executing
    // the trace straight into the callee.
    pushRet(ip->addr);
    SB_RETIRE_STORE();
  }
  lbl_BRBS: {
    if ((sreg >> ip->a) & 1)
        goto take_branch;
    SB_RETIRE();
  }
  lbl_BRBC: {
    if (!((sreg >> ip->a) & 1))
        goto take_branch;
    SB_RETIRE();
  }
  lbl_EXIT_RET: {
    uint32_t ret = popRet();
    if (trap_kind != TrapKind::None) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = ret & 0xffff;
    goto next_block;
  }
  lbl_EXIT_RETI: {
    uint32_t ret = popRet();
    sreg |= sregI;
    if (trap_kind != TrapKind::None) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = ret & 0xffff;
    goto next_block;
  }
  lbl_EXIT_IJMP: {
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = pair(30);
    goto next_block;
  }
  lbl_EXIT_ICALL: {
    // Push first, then read Z: a push that lands in the register
    // file (SP below 0x20) must be visible to the target read,
    // exactly as on the reference path. A push into I/O space that
    // changed MACCR is picked up by the mode lookup at next_block.
    pushRet(ip->addr);
    if (trap_kind != TrapKind::None) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = pair(30);
    goto next_block;
  }
  lbl_EXIT_STATIC: {
    // Non-retiring continuation (loop back-edge / cap / sentinel /
    // MAC hazard ahead / after an I/O store in ISE).
    SB_STAY();
    goto next_block;
  }
  lbl_EXIT_TRAP: {
    // Undecodable word: re-read flash to discriminate erased flash
    // from a reserved encoding, as step() does.
    uint16_t w = flash_data[ip->pc & (flashWords - 1)];
    SB_STAY();
    pendingTrap = Trap{w == 0xffff ? TrapKind::FlashOutOfBounds
                                   : TrapKind::IllegalOpcode,
                       ip->pc, w};
    flush();
    return;
  }

  take_branch: {
    op_count[ip->op]++;
    op_extra[ip->op] += branchTakenExtra;
    SB_LEAVE(branchTakenExtra);
    pc = ip->target;
    goto next_block;
  }
  take_skip: {
    op_count[ip->op]++;
    op_extra[ip->op] += ip->extra;
    SB_LEAVE(ip->extra);
    pc = ip->target;
    goto next_block;
  }
  trap_exit: {
    // The trapping instruction does not retire: charge the retired
    // prefix only and leave PC and the shadow as before the
    // instruction, exactly as step() does. Partial side effects
    // (pre-decremented pointers, SP moves, the 0xff loaded into the
    // destination) persist identically — including the Alg. 2
    // trigger step() applies to that 0xff for an R24 load.
    SB_STAY();
    if (ise && (io[ioMaccr] & MacUnit::ctrlLoadMode) &&
        loadsR24(decodeCache[ip->pc & (flashWords - 1)].inst))
        macUnit.macLoad(r8, r8[24]);
    pendingTrap = Trap{trap_kind, ip->pc, trap_addr};
    flush();
    return;
  }

#undef SB_LEAVE
#undef SB_STAY
#undef SB_RETIRE
#undef SB_RETIRE_MEM
#undef SB_RETIRE_STORE
#undef SB_NEXT
}

} // namespace jaavr
