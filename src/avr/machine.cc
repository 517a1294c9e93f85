#include "avr/machine.hh"

#include <cstdlib>
#include <cstring>

#include "avr/datapath.hh"
#include "avr/fault.hh"
#include "avr/profiler.hh"
#include "avr/superblock.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace jaavr
{

IssBackend
issBackendFromEnv()
{
    const char *v = std::getenv("JAAVR_ISS_BACKEND");
    if (!v || !*v)
        return IssBackend::Superblock;
    if (!std::strcmp(v, "reference"))
        return IssBackend::Reference;
    if (!std::strcmp(v, "superblock"))
        return IssBackend::Superblock;
    warn("ignoring unknown JAAVR_ISS_BACKEND=%s (reference|superblock)",
         v);
    return IssBackend::Superblock;
}

const char *
issBackendName(IssBackend backend)
{
    switch (backend) {
      case IssBackend::Reference: return "reference";
      case IssBackend::Superblock: return "superblock";
    }
    return "?";
}

const char *
trapKindName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::None: return "none";
      case TrapKind::IllegalOpcode: return "illegal_opcode";
      case TrapKind::FlashOutOfBounds: return "flash_oob";
      case TrapKind::SramOutOfBounds: return "sram_oob";
      case TrapKind::StackOverflow: return "stack_overflow";
      case TrapKind::CycleBudget: return "cycle_budget";
      case TrapKind::MacHazard: return "mac_hazard";
      case TrapKind::DebugBreak: return "debug_break";
    }
    return "?";
}

std::string
Trap::describe() const
{
    switch (kind) {
      case TrapKind::None:
        return "no trap";
      case TrapKind::IllegalOpcode:
        return csprintf("illegal opcode 0x%04x at pc=0x%x", addr, pc);
      case TrapKind::FlashOutOfBounds:
        return csprintf("erased flash executed at pc=0x%x", pc);
      case TrapKind::SramOutOfBounds:
        return csprintf("data access beyond SRAM at 0x%04x (pc=0x%x)",
                        addr, pc);
      case TrapKind::StackOverflow:
        return csprintf("stack overflow into data segment at 0x%04x "
                        "(pc=0x%x)", addr, pc);
      case TrapKind::CycleBudget:
        return csprintf("cycle budget exceeded (pc=0x%x)", pc);
      case TrapKind::MacHazard:
        return addr ? csprintf("MAC hazard: back-to-back Algorithm-2 "
                               "triggers (pc=0x%x)", pc)
                    : csprintf("MAC hazard: shadow register touched "
                               "(pc=0x%x)", pc);
      case TrapKind::DebugBreak:
        return csprintf("debug stop at pc=0x%x", pc);
    }
    return "?";
}

Machine::Machine(CpuMode mode)
    : cpuMode(mode),
      sram(dataSpace - sramBase, 0),
      flash(flashWords, 0xffff),
      backendV(issBackendFromEnv())
{
    // Erased flash is uniform, so one decode fills the whole cache.
    decodeCache.assign(flashWords, makeDecoded(0xffff, 0xffff));
    reset();
}

Machine::~Machine() = default;

void
Machine::setProfiler(ProfileSink *sink)
{
    profSink = sink;
    profWantsInst = sink && sink->wantsInstructions();
}

void
Machine::loadProgram(const std::vector<uint16_t> &words, uint32_t word_addr)
{
    if (word_addr + words.size() > flashWords)
        fatal("Machine::loadProgram: program does not fit in flash");
    for (size_t i = 0; i < words.size(); i++)
        flash[word_addr + i] = words[i];
    // Refresh the predecode cache over [word_addr - 1, word_addr + n):
    // the preceding word is included because the store may have
    // changed its two-word operand.
    for (size_t i = 0; i <= words.size(); i++) {
        uint32_t a = (word_addr + static_cast<uint32_t>(i) - 1) &
                     (flashWords - 1);
        decodeCache[a] = makeDecoded(flash[a], fetch(a + 1));
    }
    // Translated traces may span the rewritten region (or chain into
    // it); invalidate conservatively. Covers the GDB flash-patch path
    // (DebugTarget::writeMemory routes flash writes through here).
    if (sbCache)
        sbCache->invalidateAll();
}

void
Machine::corruptFlashWord(uint32_t word_addr, uint16_t mask)
{
    uint32_t a = word_addr & (flashWords - 1);
    flash[a] ^= mask;
    decodeCache[a] = makeDecoded(flash[a], fetch(a + 1));
    // The predecessor's two-word operand may have been this word.
    uint32_t prev = (a - 1) & (flashWords - 1);
    decodeCache[prev] = makeDecoded(flash[prev], flash[a]);
    // Self-modifying flash (fault injection, GDB patches): any
    // translated trace may embed the old word, so drop them all.
    if (sbCache)
        sbCache->invalidateAll();
}

DecodedInst
Machine::makeDecoded(uint16_t w0, uint16_t w1) const
{
    DecodedInst d;
    d.inst = decode(w0, w1);
    d.cycles = baseCycleTable(cpuMode)[static_cast<size_t>(d.inst.op)];
    d.touchesMac = touchesMacRegs(d.inst);
    return d;
}

void
Machine::reset()
{
    regs.fill(0);
    io.fill(0);
    std::fill(sram.begin(), sram.end(), 0);
    sregBits = 0;
    pcWord = 0;
    pendingTrap = Trap();
    macUnit.reset();
    execStats.reset();
    setSp(0x10ff);  // top of the ATmega128's internal SRAM
}

uint16_t
Machine::regPair(unsigned i) const
{
    return static_cast<uint16_t>(regs[i]) |
           (static_cast<uint16_t>(regs[i + 1]) << 8);
}

void
Machine::setRegPair(unsigned i, uint16_t v)
{
    regs[i] = static_cast<uint8_t>(v);
    regs[i + 1] = static_cast<uint8_t>(v >> 8);
}

uint8_t
Machine::readData(uint16_t addr) const
{
    if (addr < 0x20)
        return regs[addr];
    if (addr < 0x60) {
        uint8_t ioaddr = addr - ioBase;
        if (ioaddr == 0x3f)
            return sregBits;
        return io[ioaddr];
    }
    if (addr < sramBase)
        return 0;  // extended I/O, unused on this ASIP
    return sram[addr - sramBase];
}

void
Machine::writeData(uint16_t addr, uint8_t v)
{
    if (addr < 0x20) {
        regs[addr] = v;
        return;
    }
    if (addr < 0x60) {
        uint8_t ioaddr = addr - ioBase;
        if (ioaddr == 0x3f) {
            sregBits = v;
            return;
        }
        if (ioaddr == ioMaccr)
            macUnit.reset();
        io[ioaddr] = v;
        return;
    }
    if (addr < sramBase)
        return;
    sram[addr - sramBase] = v;
}

void
Machine::writeBytes(uint16_t addr, const std::vector<uint8_t> &bytes)
{
    for (size_t i = 0; i < bytes.size(); i++)
        writeData(addr + i, bytes[i]);
}

std::vector<uint8_t>
Machine::readBytes(uint16_t addr, size_t len) const
{
    // Plain SRAM ranges (the common case) copy straight out.
    if (addr >= sramBase && addr + len <= dataSpace) {
        auto first = sram.begin() + (addr - sramBase);
        return std::vector<uint8_t>(first, first + len);
    }
    std::vector<uint8_t> out(len);
    for (size_t i = 0; i < len; i++)
        out[i] = readData(addr + i);
    return out;
}

uint16_t
Machine::sp() const
{
    return static_cast<uint16_t>(io[0x3d]) |
           (static_cast<uint16_t>(io[0x3e]) << 8);
}

void
Machine::setSp(uint16_t v)
{
    io[0x3d] = static_cast<uint8_t>(v);
    io[0x3e] = static_cast<uint8_t>(v >> 8);
}

void
Machine::setMaccr(uint8_t v)
{
    macUnit.reset();
    io[ioMaccr] = v;
}

uint16_t
Machine::fetch(uint32_t word_addr) const
{
    return flash[word_addr & (flashWords - 1)];
}

bool
Machine::touchesMacRegs(const Inst &inst) const
{
    auto in_set = [](unsigned r) { return r <= 8 || (r >= 16 && r <= 19); };

    switch (inst.op) {
      // MUL family writes R1:R0 and reads rd/rr.
      case Op::MUL: case Op::MULS: case Op::MULSU:
      case Op::FMUL: case Op::FMULS: case Op::FMULSU:
        return true;
      case Op::MOVW:
        return in_set(inst.rd) || in_set(inst.rd + 1) ||
               in_set(inst.rr) || in_set(inst.rr + 1);
      case Op::ADIW: case Op::SBIW:
        return in_set(inst.rd) || in_set(inst.rd + 1);
      // Two-register ops.
      case Op::ADD: case Op::ADC: case Op::SUB: case Op::SBC:
      case Op::AND: case Op::OR: case Op::EOR: case Op::MOV:
      case Op::CP: case Op::CPC: case Op::CPSE:
        return in_set(inst.rd) || in_set(inst.rr);
      // Single-register ops (loads/stores/immediates included).
      case Op::SUBI: case Op::SBCI: case Op::ANDI: case Op::ORI:
      case Op::CPI: case Op::LDI: case Op::COM: case Op::NEG:
      case Op::SWAP: case Op::INC: case Op::DEC: case Op::ASR:
      case Op::LSR: case Op::ROR: case Op::BLD: case Op::BST:
      case Op::SBRC: case Op::SBRS: case Op::IN: case Op::OUT:
      case Op::PUSH: case Op::POP: case Op::LDS: case Op::STS:
      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC:
      case Op::LDD_Y: case Op::LD_Y_INC: case Op::LD_Y_DEC:
      case Op::LDD_Z: case Op::LD_Z_INC: case Op::LD_Z_DEC:
      case Op::ST_X: case Op::ST_X_INC: case Op::ST_X_DEC:
      case Op::STD_Y: case Op::ST_Y_INC: case Op::ST_Y_DEC:
      case Op::STD_Z: case Op::ST_Z_INC: case Op::ST_Z_DEC:
      case Op::LPM: case Op::LPM_INC:
        return in_set(inst.rd);
      case Op::LPM_R0:
        return true;  // writes R0
      default:
        return false;
    }
}

unsigned
Machine::step()
{
    pendingTrap = Trap();
    const uint32_t pc0 = pcWord;
    const uint16_t w0 = fetch(pc0);
    const Inst inst = decode(w0, fetch(pc0 + 1));

    if (inst.op == Op::INVALID) {
        pendingTrap = Trap{w0 == 0xffff ? TrapKind::FlashOutOfBounds
                                        : TrapKind::IllegalOpcode,
                           pc0, w0};
        return 0;
    }

    if (trace) {
        // The legacy stderr dump, now routed through a TraceSink
        // (pre-execution, so a panicking instruction still prints).
        if (!ownedTrace)
            ownedTrace = std::make_unique<TraceSink>(stderr, "info: ");
        ownedTrace->onInst(pc0, inst, 0, execStats.cycles);
    }

    // MAC shadow hazard check (Algorithm 2's 13-register rule).
    const bool ise = cpuMode == CpuMode::ISE;
    const bool load_mac = ise && (io[ioMaccr] & MacUnit::ctrlLoadMode);
    const bool swap_mac = ise && (io[ioMaccr] & MacUnit::ctrlSwapMode);
    const uint8_t shadow = macUnit.pendingShadow();
    const MacHazard hazard =
        shadow ? macShadowHazard(shadow, touchesMacRegs(inst),
                                 load_mac && macShadowExempt(inst))
               : MacHazard::None;
    if (hazard != MacHazard::None) {
        pendingTrap = Trap{TrapKind::MacHazard, pc0,
                           uint16_t(hazard == MacHazard::Retrigger)};
        return 0;
    }

    uint32_t next_pc = pc0 + inst.words;
    unsigned cycles = baseCycles(inst.op, cpuMode);
    bool skip = false;

    // The datapath's memory-access policy (the superblock backend has
    // the fast twin): the debug hook sees every data load and store,
    // and one beyond dataLimit traps, leaving the same partial state
    // (e.g. a pre-decremented X) on both backends. I/O-space accesses
    // (IN/OUT/SBI/CBI/SBIC/SBIS) stay unguarded.
    struct Mem : dp::Faults
    {
        Machine &m;

        uint8_t load(uint16_t a)
        {
            if (m.dbgHook)
                m.dbgHook->onLoad(a);
            if (a >= sramBase && a > m.dataLimitV) {
                raise(TrapKind::SramOutOfBounds, a);
                return 0xff;
            }
            return m.readData(a);
        }
        void store(uint16_t a, uint8_t v)
        {
            if (m.dbgHook)
                m.dbgHook->onStore(a);
            if (a >= sramBase && a > m.dataLimitV) {
                raise(TrapKind::SramOutOfBounds, a);
                return;
            }
            m.writeData(a, v);
        }
        uint8_t in(uint8_t port) { return m.readData(ioBase + port); }
        void out(uint8_t port, uint8_t v) { m.writeData(ioBase + port, v); }
        uint16_t sp() const { return m.sp(); }
        void setSp(uint16_t v) { m.setSp(v); }
        uint16_t stackGuard() const { return m.stackGuardV; }
    } mem{{}, *this};

    switch (inst.op) {
      case Op::ADD: case Op::ADC: case Op::SUB: case Op::SBC:
      case Op::AND: case Op::OR: case Op::EOR: case Op::MOV:
      case Op::CP: case Op::CPC:
        dp::alu(inst.op, regs, inst.rd, regs[inst.rr], sregBits);
        break;
      case Op::SUBI: case Op::SBCI: case Op::ANDI: case Op::ORI:
      case Op::CPI: case Op::LDI:
        dp::alu(inst.op, regs, inst.rd, inst.imm, sregBits);
        break;
      case Op::MUL: case Op::MULS: case Op::MULSU:
      case Op::FMUL: case Op::FMULS: case Op::FMULSU:
        dp::mul(inst.op, regs, inst.rd, inst.rr, sregBits);
        break;
      case Op::MOVW:
        dp::movw(regs, inst.rd, inst.rr);
        break;
      case Op::ADIW: case Op::SBIW:
        dp::wide(inst.op, regs, inst.rd, inst.imm, sregBits);
        break;
      case Op::SWAP:
        // Alg. 1: in swap mode the low nibble enters the MAC first.
        if (swap_mac)
            macUnit.macSwap(regs, regs[inst.rd] & 0x0f);
        [[fallthrough]];
      case Op::COM: case Op::NEG: case Op::INC: case Op::DEC:
      case Op::ASR: case Op::LSR: case Op::ROR:
        dp::unary(inst.op, regs, inst.rd, sregBits);
        break;
      case Op::BSET: case Op::BCLR: case Op::BLD: case Op::BST:
        dp::bitOp(inst.op, regs, inst.rd, inst.bit, sregBits);
        break;
      case Op::IN: case Op::OUT: case Op::SBI: case Op::CBI:
        dp::io(inst.op, regs, inst.rd, inst.imm, inst.bit, mem);
        break;
      case Op::SBIC: case Op::SBIS:
        skip = dp::skipTaken(inst.op, mem.in(inst.imm), 0, inst.bit);
        break;
      case Op::CPSE: case Op::SBRC: case Op::SBRS:
        skip = dp::skipTaken(inst.op, regs[inst.rd], regs[inst.rr],
                             inst.bit);
        break;

      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC:
      case Op::LDD_Y: case Op::LD_Y_INC: case Op::LD_Y_DEC:
      case Op::LDD_Z: case Op::LD_Z_INC: case Op::LD_Z_DEC:
        dp::load(inst.op, regs, inst.rd, inst.disp, mem);
        break;
      case Op::LDS:
        dp::load(inst.op, regs, inst.rd, inst.k, mem);
        break;
      case Op::ST_X: case Op::ST_X_INC: case Op::ST_X_DEC:
      case Op::STD_Y: case Op::ST_Y_INC: case Op::ST_Y_DEC:
      case Op::STD_Z: case Op::ST_Z_INC: case Op::ST_Z_DEC:
        dp::store(inst.op, regs, inst.rd, inst.disp, mem);
        break;
      case Op::STS:
        dp::store(inst.op, regs, inst.rd, inst.k, mem);
        break;
      case Op::PUSH:
        dp::push(mem, regs[inst.rd]);
        break;
      case Op::POP:
        regs[inst.rd] = dp::pop(mem);
        break;
      case Op::LPM_R0: case Op::LPM: case Op::LPM_INC:
        dp::lpm(inst.op, regs, inst.rd, flash.data());
        break;

      case Op::RJMP:
        next_pc = pc0 + 1 + inst.disp;
        break;
      case Op::RCALL:
        dp::pushPc(mem, pc0 + 1);
        next_pc = pc0 + 1 + inst.disp;
        break;
      case Op::JMP:
        next_pc = inst.k;
        break;
      case Op::CALL:
        dp::pushPc(mem, pc0 + 2);
        next_pc = inst.k;
        break;
      case Op::IJMP:
        next_pc = z();
        break;
      case Op::ICALL:
        dp::pushPc(mem, pc0 + 1);
        next_pc = z();
        break;
      case Op::RET: case Op::RETI:
        next_pc = dp::ret(inst.op, mem, sregBits);
        break;
      case Op::BRBS: case Op::BRBC:
        if (dp::branchTaken(inst.op, sregBits, inst.bit)) {
            next_pc = pc0 + 1 + inst.disp;
            cycles += branchTakenExtra;
        }
        break;

      case Op::NOP: case Op::SLEEP: case Op::WDR: case Op::BREAK:
        break;

      case Op::INVALID:
        break;
    }
    if (skip) {
        bool two = isTwoWord(fetch(next_pc));
        cycles += skipExtra(two);
        next_pc += two ? 2 : 1;
    }

    // Alg. 2: a load into R24 feeds the loaded byte through the MAC.
    // The two micro-MACs are applied immediately; the shadow counter
    // plus the hazard checks above make that indistinguishable from
    // the real one-per-following-cycle retirement. A trapping load
    // triggers too (on the 0xff it left), as on the superblock path.
    const bool mac_triggered = load_mac && firesLoadMac(inst);
    if (mac_triggered)
        macUnit.macLoad(regs, regs[24]);

    // A trapping instruction does not retire: PC, shadow and
    // statistics stay as of just before it (partial side effects
    // like a pre-decremented pointer remain, identically on the
    // superblock backend).
    if (mem.raised()) {
        pendingTrap = Trap{mem.kind, pc0, mem.addr};
        return 0;
    }

    // Retire pending MAC shadow cycles.
    macUnit.setPendingShadow(macShadowAfter(shadow, cycles, mac_triggered));

    pcWord = next_pc & 0xffff;
    execStats.opCount[static_cast<size_t>(inst.op)]++;
    execStats.opCycles[static_cast<size_t>(inst.op)] += cycles;
    execStats.instructions++;
    execStats.cycles += cycles;
    if (isMacStallNop(inst.op, shadow))
        execStats.macStallNops++;

    if (profSink) {
        if (profWantsInst)
            profSink->onInst(pc0, inst, cycles,
                             execStats.cycles - cycles);
        if (inst.op == Op::CALL || inst.op == Op::RCALL ||
            inst.op == Op::ICALL)
            profSink->onCall(pc0, pcWord, execStats.cycles);
        else if (inst.op == Op::RET || inst.op == Op::RETI)
            profSink->onRet(pc0, pcWord, execStats.cycles);
    }
    return cycles;
}

bool
Machine::applyBoundaryFault()
{
    const FaultPlan &fp = faultInj->plan();
    switch (fp.target) {
      case FaultTarget::Gpr:
      case FaultTarget::MacAcc:
        regs[fp.reg & 31] ^= static_cast<uint8_t>(fp.mask);
        return false;
      case FaultTarget::Sreg:
        sregBits ^= static_cast<uint8_t>(fp.mask);
        return false;
      case FaultTarget::Sram:
        if (fp.sramAddr >= sramBase)
            sram[fp.sramAddr - sramBase] ^= static_cast<uint8_t>(fp.mask);
        return false;
      case FaultTarget::InstSkip:
        pcWord = (pcWord + decodeCache[pcWord & (flashWords - 1)].inst.words) &
                 0xffff;
        return true;
      case FaultTarget::OpcodeCorrupt:
        corruptFlashWord(fp.flashAddr == FaultPlan::kCurrentPc ? pcWord
                                                               : fp.flashAddr,
                         fp.mask);
        return false;
    }
    return false;
}

void
Machine::runReference(uint64_t max_cycles)
{
    uint64_t start = execStats.cycles;
    // Sampled once at entry, mirroring DebugHook::wantsStops() in
    // run(): a sink that activates mid-run records from the next run.
    // Both observer slots (waveform and leakage) fire identically.
    WaveSink *const wave =
        (waveSnk && waveSnk->active()) ? waveSnk : nullptr;
    WaveSink *const leak =
        (leakSnk && leakSnk->active()) ? leakSnk : nullptr;
    auto fire_trap = [&]() {
        if (wave)
            wave->onTrap(*this, pendingTrap);
        if (leak)
            leak->onTrap(*this, pendingTrap);
    };
    while (pcWord != exitAddress) {
        if (dbgHook && dbgHook->onBoundary(pcWord, execStats.cycles)) {
            pendingTrap = Trap{TrapKind::DebugBreak, pcWord, 0};
            fire_trap();
            return;
        }
        if (faultInj && faultInj->checkFire(pcWord, execStats.cycles)) {
            if (applyBoundaryFault())
                continue;  // instruction skip consumed the boundary
        }
        uint32_t pc0 = pcWord;
        unsigned cycles = step();
        if (pendingTrap) {
            fire_trap();
            return;
        }
        if (wave)
            wave->onStep(*this, pc0,
                         decodeCache[pc0 & (flashWords - 1)].inst, cycles);
        if (leak)
            leak->onStep(*this, pc0,
                         decodeCache[pc0 & (flashWords - 1)].inst, cycles);
        if (execStats.cycles - start >= max_cycles) {
            pendingTrap = Trap{TrapKind::CycleBudget, pcWord, 0};
            fire_trap();
            return;
        }
    }
}

RunResult
Machine::run(uint64_t max_cycles)
{
    pendingTrap = Trap();
    uint64_t start = execStats.cycles;
    // Every observer is honoured by the reference loop: an active
    // wave or leakage sink needs the architectural state current
    // after each retirement, and profilers, debug hooks that want
    // stops and pending faults are consulted per instruction there.
    // Idle observers leave the superblock backend untouched.
    const bool observed =
        trace || profSink || (dbgHook && dbgHook->wantsStops()) ||
        (faultInj && faultInj->pending()) ||
        (waveSnk && waveSnk->active()) || (leakSnk && leakSnk->active());
    if (observed || backendV == IssBackend::Reference)
        runReference(max_cycles);
    else
        runSuperblock(max_cycles);
    // Single count point for trap telemetry: both backends funnel
    // through here, so kinds are never counted
    // twice. The flight-recorder trap sink shares the funnel — it
    // observes the already-accounted machine, so it can never skew
    // cycles or state.
    if (pendingTrap) {
        execStats.trapCount[static_cast<size_t>(pendingTrap.kind)]++;
        if (trapSnk)
            trapSnk->onTrap(*this, pendingTrap);
    }
    return {execStats.cycles - start, pendingTrap};
}

void
Machine::enterRoutine(uint32_t word_addr)
{
    // The return address exitAddress, low byte first, SP decrementing
    // after each byte (unguarded: the harness owns the stack here).
    for (uint8_t byte : {static_cast<uint8_t>(exitAddress),
                         static_cast<uint8_t>(exitAddress >> 8)}) {
        writeData(sp(), byte);
        setSp(sp() - 1);
    }
    pcWord = word_addr & 0xffff;
}

RunResult
Machine::call(uint32_t word_addr, uint64_t max_cycles)
{
    enterRoutine(word_addr);
    // Synthetic call event so profilers see the routine entered from
    // the harness; the final RET to exitAddress closes it.
    if (profSink)
        profSink->onCall(exitAddress, pcWord, execStats.cycles);
    return run(max_cycles);
}

void
Machine::publishMetrics(MetricsRegistry &reg) const
{
    reg.counter("iss_instructions").inc(execStats.instructions);
    reg.counter("iss_cycles").inc(execStats.cycles);
    reg.counter("iss_mac_stall_nops").inc(execStats.macStallNops);
    for (size_t k = 0; k < execStats.trapCount.size(); k++) {
        if (!execStats.trapCount[k])
            continue;
        reg.counter("iss_traps",
                    {{"kind", trapKindName(static_cast<TrapKind>(k))}})
            .inc(execStats.trapCount[k]);
    }
    // MAC trigger counts split by the paper's two algorithms (Fig. 1:
    // SWAP-triggered Algorithm 1 vs load-triggered Algorithm 2).
    reg.counter("mac_triggers", {{"alg", "1"}}).inc(macUnit.alg1Macs());
    reg.counter("mac_triggers", {{"alg", "2"}}).inc(macUnit.alg2Macs());
    reg.counter("mac_ops_total").inc(macUnit.totalMacs());
    // Per-op cycle distribution: each mnemonic contributes its mean
    // cycles-per-retirement at its retirement weight (the retired
    // statistics are aggregates, so the per-op mean is the available
    // resolution). The histogram's p50/p99 answer "what does a typical /
    // tail retirement cost" without re-running under a profiler.
    Histogram &cyc = reg.histogram("iss_cycles_per_inst");
    for (size_t i = 0; i < kNumOps; i++) {
        if (!execStats.opCount[i])
            continue;
        MetricLabels op_label{{"op", opName(static_cast<Op>(i))}};
        reg.counter("iss_op_retired", op_label).inc(execStats.opCount[i]);
        reg.counter("iss_op_cycles", op_label).inc(execStats.opCycles[i]);
        cyc.observe(double(execStats.opCycles[i]) /
                        double(execStats.opCount[i]),
                    execStats.opCount[i]);
    }
    reg.gauge("iss_pc").set(pcWord);
    reg.gauge("iss_sp").set(sp());
}

} // namespace jaavr
