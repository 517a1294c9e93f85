/**
 * @file
 * Superblock translation and the trace-threaded run loop
 * (DESIGN.md §11).
 *
 * Machine::runSuperblock() is the fast ISS path in every CPU mode.
 * Its handlers execute the same datapath as Machine::step(): each is
 * one call into avr/datapath.hh with its Op as a constant, which
 * tests/test_machine_alu_exhaustive.cc checks against the
 * instruction-set manual on both backends. tests/test_superblock.cc
 * pins the two backends to bit- and cycle-identical state over all
 * 65536 opcode words (CA, FAST and ISE under every MACCR mode, with
 * and without a MAC shadow pending at entry) and the OPF/secp160
 * workloads, which checks what the backends do not share: decoding,
 * dispatch, MAC decisions and accounting. What differs from step() is
 * the execution structure:
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

#include "avr/datapath.hh"
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
        const bool r24_trigger = load_mac && firesLoadMac(inst);
        const bool hazard =
            macShadowHazard(shadow, dc.touchesMac,
                            load_mac && macShadowExempt(inst)) !=
            MacHazard::None;
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
        // Rr, or the bit number: no instruction has both.
        si.b = inst.rr | inst.bit;
        // The datapath reads LDD/STD's displacement and LDS/STS's
        // address from imm.
        if (inst.op == Op::LDS || inst.op == Op::STS)
            si.imm = static_cast<uint16_t>(inst.k);
        else if (isLoadOp(inst.op) || isStoreOp(inst.op))
            si.imm = static_cast<uint16_t>(inst.disp);
        else
            si.imm = inst.imm;
        si.cycles = dc.cycles;
        // Where translation continues after this element retires.
        uint32_t next = (pc + inst.words) & 0xffff;
        bool terminal = false;
        // Skip instructions: the taken leg's target and extra cycles
        // depend only on the skipped word's length, which the decode
        // cache knows; flash writes invalidate the whole cache, so
        // baking it in is safe.
        auto skip = [&](SbOp op) {
            bool two = m.decoded(next).inst.words == 2;
            si.extra = static_cast<uint8_t>(skipExtra(two));
            si.target = (next + (two ? 2u : 1u)) & 0xffff;
            return op;
        };

        SbOp h = SbOp::NOPLIKE;
        switch (inst.op) {
#define X(n)                                                            \
          case Op::n: h = SbOp::n; break;
          JAAVR_SB_DATAPATH_OPS(X)
#undef X
          case Op::SWAP:
            // Alg. 1: in swap mode every SWAP feeds its low nibble
            // through the MAC.
            h = swap_mac ? SbOp::SWAP_MAC : SbOp::SWAP;
            break;
          case Op::SBIC: h = skip(SbOp::SKIP_SBIC); break;
          case Op::SBIS: h = skip(SbOp::SKIP_SBIS); break;
          case Op::CPSE: h = skip(SbOp::SKIP_CPSE); break;
          case Op::SBRC: h = skip(SbOp::SKIP_SBRC); break;
          case Op::SBRS: h = skip(SbOp::SKIP_SBRS); break;
          case Op::NOP:
            // A NOP retired inside a MAC shadow is a hazard stall.
            h = isMacStallNop(inst.op, shadow) ? SbOp::STALL_NOP
                                               : SbOp::NOPLIKE;
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
            si.target = (pc + 1 + inst.disp) & 0xffff;
            h = inst.op == Op::BRBS ? SbOp::BRBS : SbOp::BRBC;
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
        shadow = macShadowAfter(shadow, dc.cycles, r24_trigger);
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
    const bool ise = cpuMode == CpuMode::ISE;

    uint8_t sreg = sregBits;
    std::array<uint8_t, 32> r8 = regs;
    std::array<uint32_t, kNumOps> op_count{};
    std::array<uint32_t, kNumOps> op_extra{};
    const uint16_t *const flash_data = flash.data();
    SuperblockCache *const cache = sbCache.get();

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

    // The datapath's memory-access policy (step() has the guarded
    // twin, plus the debug hook): SRAM directly, bounded by
    // dataLimit; register-file and I/O addresses through
    // readData/writeData with the locals synced around them, since
    // those can touch the register file and SREG (0x5f). Its fault is
    // checked once per retired instruction and never reset: the loop
    // exits on the first trap. Every method is forced inline: an
    // out-of-line call would let the addresses of sreg and r8 escape,
    // and GCC would then reload them from memory after every byte
    // store.
    struct Mem : dp::Faults
    {
        Machine &m;
        uint8_t &sreg;
        std::array<uint8_t, 32> &r8;
        uint8_t *const sram;
        const uint16_t limit;
        const uint16_t guard;
        // Set by a slow-path (I/O space) store; rechecked at
        // retirement so a store that may have changed MACCR
        // side-exits the trace.
        bool ioDirty = false;

        [[gnu::always_inline]] uint8_t slowRead(uint16_t a)
        {
            m.sregBits = sreg;
            m.regs = r8;
            const uint8_t v = m.readData(a);
            sreg = m.sregBits;
            r8 = m.regs;
            return v;
        }
        [[gnu::always_inline]] void slowWrite(uint16_t a, uint8_t v)
        {
            m.sregBits = sreg;
            m.regs = r8;
            m.writeData(a, v);
            sreg = m.sregBits;
            r8 = m.regs;
            ioDirty = true;
        }
        [[gnu::always_inline]] uint8_t load(uint16_t a)
        {
            if (a >= sramBase) [[likely]] {
                if (a > limit) [[unlikely]] {
                    raise(TrapKind::SramOutOfBounds, a);
                    return 0xff;
                }
                return sram[a - sramBase];
            }
            return slowRead(a);
        }
        [[gnu::always_inline]] void store(uint16_t a, uint8_t v)
        {
            if (a >= sramBase) [[likely]] {
                if (a > limit) [[unlikely]] {
                    raise(TrapKind::SramOutOfBounds, a);
                    return;
                }
                sram[a - sramBase] = v;
                return;
            }
            slowWrite(a, v);
        }
        [[gnu::always_inline]] uint8_t in(uint8_t port)
        {
            return slowRead(ioBase + port);
        }
        [[gnu::always_inline]] void out(uint8_t port, uint8_t v)
        {
            slowWrite(ioBase + port, v);
        }
        [[gnu::always_inline]] uint16_t sp() const { return m.sp(); }
        [[gnu::always_inline]] void setSp(uint16_t v) { m.setSp(v); }
        [[gnu::always_inline]] uint16_t stackGuard() const
        {
            return guard;
        }
    } mem{{}, *this, sreg, r8, sram.data(), dataLimitV, stackGuardV};

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
            macShadowAfter(ip->shadow, ip->cycles + (extra)));          \
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
        if (mem.raised()) [[unlikely]]                                  \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)
#define SB_RETIRE_STORE()                                               \
    do {                                                                \
        if (mem.raised()) [[unlikely]]                                  \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        if (mem.ioDirty) [[unlikely]] {                                 \
            mem.ioDirty = false;                                        \
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
    mem.ioDirty = false;
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

// The datapath handlers: one call into avr/datapath.hh each, with the
// handler's Op as a constant.
#define SB_ALU(n, src)                                                  \
  lbl_##n: {                                                            \
    dp::alu(Op::n, r8, ip->a, src, sreg);                               \
    SB_RETIRE();                                                        \
  }
#define SB_UNARY(n)                                                     \
  lbl_##n: {                                                            \
    dp::unary(Op::n, r8, ip->a, sreg);                                  \
    SB_RETIRE();                                                        \
  }
#define SB_MUL(n)                                                       \
  lbl_##n: {                                                            \
    dp::mul(Op::n, r8, ip->a, ip->b, sreg);                             \
    SB_RETIRE();                                                        \
  }
#define SB_WIDE(n)                                                      \
  lbl_##n: {                                                            \
    dp::wide(Op::n, r8, ip->a, static_cast<uint8_t>(ip->imm), sreg);    \
    SB_RETIRE();                                                        \
  }
#define SB_BIT(n)                                                       \
  lbl_##n: {                                                            \
    dp::bitOp(Op::n, r8, ip->a, ip->b, sreg);                           \
    SB_RETIRE();                                                        \
  }
#define SB_IO(n, retire)                                                \
  lbl_##n: {                                                            \
    dp::io(Op::n, r8, ip->a, static_cast<uint8_t>(ip->imm), ip->b, mem); \
    retire();                                                           \
  }
#define SB_LOAD(n)                                                      \
  lbl_##n: {                                                            \
    dp::load(Op::n, r8, ip->a, ip->imm, mem);                           \
    SB_RETIRE_MEM();                                                    \
  }
#define SB_STORE(n)                                                     \
  lbl_##n: {                                                            \
    dp::store(Op::n, r8, ip->a, ip->imm, mem);                          \
    SB_RETIRE_STORE();                                                  \
  }
#define SB_LPM(n)                                                       \
  lbl_##n: {                                                            \
    dp::lpm(Op::n, r8, ip->a, flash_data);                              \
    SB_RETIRE();                                                        \
  }
#define SB_SKIP(n, v, w)                                                \
  lbl_SKIP_##n: {                                                       \
    if (dp::skipTaken(Op::n, v, w, ip->b))                              \
        goto take_skip;                                                 \
    SB_RETIRE();                                                        \
  }
#define SB_BRANCH(n)                                                    \
  lbl_##n: {                                                            \
    if (dp::branchTaken(Op::n, sreg, ip->b))                            \
        goto take_branch;                                               \
    SB_RETIRE();                                                        \
  }

    SB_ALU(ADD, r8[ip->b]) SB_ALU(ADC, r8[ip->b]) SB_ALU(SUB, r8[ip->b])
    SB_ALU(SBC, r8[ip->b]) SB_ALU(AND, r8[ip->b]) SB_ALU(OR, r8[ip->b])
    SB_ALU(EOR, r8[ip->b]) SB_ALU(MOV, r8[ip->b]) SB_ALU(CP, r8[ip->b])
    SB_ALU(CPC, r8[ip->b])
    SB_ALU(SUBI, static_cast<uint8_t>(ip->imm))
    SB_ALU(SBCI, static_cast<uint8_t>(ip->imm))
    SB_ALU(ANDI, static_cast<uint8_t>(ip->imm))
    SB_ALU(ORI, static_cast<uint8_t>(ip->imm))
    SB_ALU(CPI, static_cast<uint8_t>(ip->imm))
    SB_ALU(LDI, static_cast<uint8_t>(ip->imm))
    SB_MUL(MUL) SB_MUL(MULS) SB_MUL(MULSU)
    SB_MUL(FMUL) SB_MUL(FMULS) SB_MUL(FMULSU)
    SB_WIDE(ADIW) SB_WIDE(SBIW)
    SB_UNARY(COM) SB_UNARY(NEG) SB_UNARY(SWAP) SB_UNARY(INC)
    SB_UNARY(DEC) SB_UNARY(ASR) SB_UNARY(LSR) SB_UNARY(ROR)
    SB_BIT(BSET) SB_BIT(BCLR) SB_BIT(BLD) SB_BIT(BST)
    SB_IO(IN, SB_RETIRE) SB_IO(OUT, SB_RETIRE_STORE)
    SB_IO(SBI, SB_RETIRE_STORE) SB_IO(CBI, SB_RETIRE_STORE)
    SB_LOAD(LD_X) SB_LOAD(LD_X_INC) SB_LOAD(LD_X_DEC)
    SB_LOAD(LDD_Y) SB_LOAD(LD_Y_INC) SB_LOAD(LD_Y_DEC)
    SB_LOAD(LDD_Z) SB_LOAD(LD_Z_INC) SB_LOAD(LD_Z_DEC) SB_LOAD(LDS)
    SB_STORE(ST_X) SB_STORE(ST_X_INC) SB_STORE(ST_X_DEC)
    SB_STORE(STD_Y) SB_STORE(ST_Y_INC) SB_STORE(ST_Y_DEC)
    SB_STORE(STD_Z) SB_STORE(ST_Z_INC) SB_STORE(ST_Z_DEC) SB_STORE(STS)
    SB_LPM(LPM_R0) SB_LPM(LPM) SB_LPM(LPM_INC)
    SB_SKIP(SBIC, mem.in(static_cast<uint8_t>(ip->imm)), 0)
    SB_SKIP(SBIS, mem.in(static_cast<uint8_t>(ip->imm)), 0)
    SB_SKIP(CPSE, r8[ip->a], r8[ip->b])
    SB_SKIP(SBRC, r8[ip->a], 0)
    SB_SKIP(SBRS, r8[ip->a], 0)
    SB_BRANCH(BRBS) SB_BRANCH(BRBC)

#undef SB_ALU
#undef SB_UNARY
#undef SB_MUL
#undef SB_WIDE
#undef SB_BIT
#undef SB_IO
#undef SB_LOAD
#undef SB_STORE
#undef SB_LPM
#undef SB_SKIP
#undef SB_BRANCH

  lbl_MOVW: {
    dp::movw(r8, ip->a, ip->b);
    SB_RETIRE();
  }
  lbl_SWAP_MAC: {
    // Alg. 1 trigger: the low nibble enters the MAC before the swap.
    macUnit.macSwap(r8, r8[ip->a] & 0x0f);
    dp::unary(Op::SWAP, r8, ip->a, sreg);
    SB_RETIRE();
  }
  lbl_MAC_LOAD: {
    // Alg. 2 trigger after the R24 load just retired (non-retiring).
    macUnit.macLoad(r8, r8[24]);
    ip++;
    SB_NEXT();
  }
  lbl_PUSH: {
    dp::push(mem, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_POP: {
    r8[ip->a] = dp::pop(mem);
    SB_RETIRE_MEM();
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
    dp::pushPc(mem, ip->addr);
    SB_RETIRE_STORE();
  }
  lbl_EXIT_RET: {
    uint32_t ret = dp::ret(Op::RET, mem, sreg);
    if (mem.raised()) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = ret;
    goto next_block;
  }
  lbl_EXIT_RETI: {
    uint32_t ret = dp::ret(Op::RETI, mem, sreg);
    if (mem.raised()) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = ret;
    goto next_block;
  }
  lbl_EXIT_IJMP: {
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = dp::pair(r8, 30);
    goto next_block;
  }
  lbl_EXIT_ICALL: {
    // Push first, then read Z: a push that lands in the register
    // file (SP below 0x20) must be visible to the target read,
    // exactly as on the reference path. A push into I/O space that
    // changed MACCR is picked up by the mode lookup at next_block.
    dp::pushPc(mem, ip->addr);
    if (mem.raised()) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    SB_LEAVE(0);
    pc = dp::pair(r8, 30);
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
        firesLoadMac(decodeCache[ip->pc & (flashWords - 1)].inst))
        macUnit.macLoad(r8, r8[24]);
    pendingTrap = Trap{mem.kind, ip->pc, mem.addr};
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
