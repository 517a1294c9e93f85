/**
 * @file
 * The AVR datapath, defined once (DESIGN.md §6): what each
 * instruction computes — its result, its SREG flags, the pointer
 * pre-decrement/post-increment order of loads and stores, the skip
 * and branch predicates, and the stack pushes and pops — as inline
 * functions over the register file, an SREG byte and a memory-access
 * policy.
 *
 * Machine::step() calls them with the Op it decoded at run time; the
 * superblock handlers (superblock.cc) call them with a constant Op,
 * which folds each function down to its one case. Dispatch, the MAC
 * trigger decisions and shadows, trap publication, statistics and
 * observers stay with the callers. tests/test_machine_alu_exhaustive.cc
 * checks these functions against the instruction-set manual through
 * both callers.
 *
 * A memory-access policy `Mem` derives from dp::Faults and provides
 *   uint8_t load(uint16_t a), void store(uint16_t a, uint8_t v)
 *       guarded data-space accesses (a trapping access raises a fault
 *       and a load then returns 0xff);
 *   uint8_t in(uint8_t io), void out(uint8_t io, uint8_t v)
 *       unguarded I/O-space accesses;
 *   uint16_t sp(), void setSp(uint16_t v), uint16_t stackGuard().
 * The functions are forced inline so that, in the superblock loop,
 * the register file and SREG stay in its locals.
 */

#ifndef JAAVR_AVR_DATAPATH_HH
#define JAAVR_AVR_DATAPATH_HH

#include <array>
#include <cstdint>

#include "avr/flags.hh"
#include "avr/isa.hh"
#include "avr/machine.hh"

#define JAAVR_DP inline __attribute__((always_inline))

namespace jaavr::dp
{

using Regs = std::array<uint8_t, 32>;

/** The trap a data-space access raised inside one instruction. */
struct Faults
{
    TrapKind kind = TrapKind::None;
    uint16_t addr = 0;

    void raise(TrapKind k, uint16_t a)
    {
        kind = k;
        addr = a;
    }
    bool raised() const { return kind != TrapKind::None; }
};

/** Little-endian register pair (i, i+1). */
JAAVR_DP uint16_t
pair(const Regs &r, unsigned i)
{
    return static_cast<uint16_t>(r[i] | r[i + 1] << 8);
}

JAAVR_DP void
setPair(Regs &r, unsigned i, uint16_t v)
{
    r[i] = static_cast<uint8_t>(v);
    r[i + 1] = static_cast<uint8_t>(v >> 8);
}

/**
 * Two-operand ALU ops (ADD ... CPC, their immediate forms, MOV and
 * LDI): Rd op @p s, where @p s is Rr or the immediate K. Compares
 * update SREG only.
 */
JAAVR_DP void
alu(Op op, Regs &r, unsigned rd, uint8_t s, uint8_t &sreg)
{
    const uint8_t d = r[rd];
    const uint8_t c = sreg & sregC;
    switch (op) {
      case Op::ADD:
        r[rd] = static_cast<uint8_t>(d + s);
        addFlagsB(sreg, d, s, r[rd]);
        break;
      case Op::ADC:
        r[rd] = static_cast<uint8_t>(d + s + c);
        addFlagsB(sreg, d, s, r[rd]);
        break;
      case Op::SUB: case Op::SUBI:
        r[rd] = static_cast<uint8_t>(d - s);
        subFlagsB(sreg, d, s, r[rd], false);
        break;
      case Op::SBC: case Op::SBCI:
        r[rd] = static_cast<uint8_t>(d - s - c);
        subFlagsB(sreg, d, s, r[rd], true);
        break;
      case Op::CP: case Op::CPI:
        subFlagsB(sreg, d, s, static_cast<uint8_t>(d - s), false);
        break;
      case Op::CPC:
        subFlagsB(sreg, d, s, static_cast<uint8_t>(d - s - c), true);
        break;
      case Op::AND: case Op::ANDI:
        r[rd] = d & s;
        logicFlagsB(sreg, r[rd]);
        break;
      case Op::OR: case Op::ORI:
        r[rd] = d | s;
        logicFlagsB(sreg, r[rd]);
        break;
      case Op::EOR:
        r[rd] = d ^ s;
        logicFlagsB(sreg, r[rd]);
        break;
      case Op::MOV: case Op::LDI:
        r[rd] = s;
        break;
      default:
        break;
    }
}

/** Single-register ops: COM, NEG, SWAP, INC, DEC, ASR, LSR, ROR. */
JAAVR_DP void
unary(Op op, Regs &r, unsigned rd, uint8_t &sreg)
{
    const uint8_t d = r[rd];
    switch (op) {
      case Op::COM:
        r[rd] = static_cast<uint8_t>(~d);
        logicFlagsB(sreg, r[rd]);
        sreg |= sregC;
        break;
      case Op::NEG:
        r[rd] = static_cast<uint8_t>(-d);
        subFlagsB(sreg, 0, d, r[rd], false);
        break;
      case Op::SWAP:
        r[rd] = static_cast<uint8_t>(d << 4 | d >> 4);
        break;
      case Op::INC:
        r[rd] = static_cast<uint8_t>(d + 1);
        incDecFlagsB(sreg, r[rd], r[rd] == 0x80);
        break;
      case Op::DEC:
        r[rd] = static_cast<uint8_t>(d - 1);
        incDecFlagsB(sreg, r[rd], r[rd] == 0x7f);
        break;
      case Op::ASR:
        r[rd] = static_cast<uint8_t>(d >> 1 | (d & 0x80));
        shiftFlagsB(sreg, r[rd], d & 1);
        break;
      case Op::LSR:
        r[rd] = d >> 1;
        shiftFlagsB(sreg, r[rd], d & 1);
        break;
      case Op::ROR:
        r[rd] = static_cast<uint8_t>(d >> 1 | (sreg & sregC) << 7);
        shiftFlagsB(sreg, r[rd], d & 1);
        break;
      default:
        break;
    }
}

/**
 * The multiplier (MUL, MULS, MULSU, FMUL, FMULS, FMULSU): the product
 * of Rd and Rr into R1:R0; the fractional forms shift it left once,
 * with C taken from bit 15 before the shift.
 */
JAAVR_DP void
mul(Op op, Regs &r, unsigned rd, unsigned rr, uint8_t &sreg)
{
    const uint8_t a = r[rd], b = r[rr];
    const int8_t sa = static_cast<int8_t>(a), sb = static_cast<int8_t>(b);
    int p = 0;
    switch (op) {
      case Op::MUL: case Op::FMUL: p = a * b; break;
      case Op::MULS: case Op::FMULS: p = sa * sb; break;
      case Op::MULSU: case Op::FMULSU: p = sa * b; break;
      default: break;
    }
    uint16_t u = static_cast<uint16_t>(p);
    const uint8_t c = static_cast<uint8_t>(u >> 15);
    if (op == Op::FMUL || op == Op::FMULS || op == Op::FMULSU)
        u = static_cast<uint16_t>(u << 1);
    setPair(r, 0, u);
    mulFlagsB(sreg, u, c);
}

/** MOVW: copy register pair Rr+1:Rr into Rd+1:Rd. */
JAAVR_DP void
movw(Regs &r, unsigned rd, unsigned rr)
{
    r[rd] = r[rr];
    r[rd + 1] = r[rr + 1];
}

/** ADIW/SBIW: the 16-bit pair Rd+1:Rd plus/minus @p k. */
JAAVR_DP void
wide(Op op, Regs &r, unsigned rd, uint8_t k, uint8_t &sreg)
{
    const uint16_t d = pair(r, rd);
    const bool add = op == Op::ADIW;
    const uint16_t res = static_cast<uint16_t>(add ? d + k : d - k);
    setPair(r, rd, res);
    const bool d15 = d & 0x8000, r15 = res & 0x8000;
    wideFlagsB(sreg, res, add ? !d15 && r15 : d15 && !r15,
               add ? d15 && !r15 : r15 && !d15);
}

/**
 * SREG bit operations: BSET/BCLR set/clear SREG bit @p bit; BST
 * copies bit @p bit of Rd into T, BLD copies T into it.
 */
JAAVR_DP void
bitOp(Op op, Regs &r, unsigned rd, unsigned bit, uint8_t &sreg)
{
    const uint8_t m = static_cast<uint8_t>(1u << bit);
    switch (op) {
      case Op::BSET: sreg |= m; break;
      case Op::BCLR: sreg &= static_cast<uint8_t>(~m); break;
      case Op::BST:
        sreg = static_cast<uint8_t>((sreg & ~sregT) | (r[rd] & m ? sregT : 0));
        break;
      case Op::BLD:
        r[rd] = static_cast<uint8_t>((r[rd] & ~m) | (sreg & sregT ? m : 0));
        break;
      default:
        break;
    }
}

/** BRBS/BRBC: whether the branch on SREG bit @p bit is taken. */
JAAVR_DP bool
branchTaken(Op op, uint8_t sreg, unsigned bit)
{
    return ((sreg >> bit) & 1) == (op == Op::BRBS);
}

/**
 * Skip predicates: CPSE skips when @p v == @p w; SBRC/SBIC when bit
 * @p bit of @p v (a register or an I/O byte) is clear, SBRS/SBIS when
 * it is set.
 */
JAAVR_DP bool
skipTaken(Op op, uint8_t v, uint8_t w, unsigned bit)
{
    if (op == Op::CPSE)
        return v == w;
    return ((v >> bit) & 1) == (op == Op::SBRS || op == Op::SBIS);
}

/** Pointer pair (26 = X, 28 = Y, 30 = Z) of an indirect load/store. */
JAAVR_DP unsigned
pointerOf(Op op)
{
    switch (op) {
      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC:
      case Op::ST_X: case Op::ST_X_INC: case Op::ST_X_DEC:
        return 26;
      case Op::LDD_Y: case Op::LD_Y_INC: case Op::LD_Y_DEC:
      case Op::STD_Y: case Op::ST_Y_INC: case Op::ST_Y_DEC:
        return 28;
      default:
        return 30;
    }
}

/**
 * Effective address of a data-space load/store: @p q is the
 * displacement of LDD/STD and the address of LDS/STS. A
 * pre-decrement form decrements its pointer first.
 */
JAAVR_DP uint16_t
effectiveAddress(Op op, Regs &r, uint16_t q)
{
    switch (op) {
      case Op::LDS: case Op::STS:
        return q;
      case Op::LDD_Y: case Op::LDD_Z: case Op::STD_Y: case Op::STD_Z:
        return static_cast<uint16_t>(pair(r, pointerOf(op)) + q);
      case Op::LD_X_DEC: case Op::LD_Y_DEC: case Op::LD_Z_DEC:
      case Op::ST_X_DEC: case Op::ST_Y_DEC: case Op::ST_Z_DEC: {
        const uint16_t a = static_cast<uint16_t>(pair(r, pointerOf(op)) - 1);
        setPair(r, pointerOf(op), a);
        return a;
      }
      default:
        return pair(r, pointerOf(op));
    }
}

/** A post-increment form advances its pointer past @p a, after the access. */
JAAVR_DP void
postIncrement(Op op, Regs &r, uint16_t a)
{
    switch (op) {
      case Op::LD_X_INC: case Op::LD_Y_INC: case Op::LD_Z_INC:
      case Op::ST_X_INC: case Op::ST_Y_INC: case Op::ST_Z_INC:
        setPair(r, pointerOf(op), static_cast<uint16_t>(a + 1));
        break;
      default:
        break;
    }
}

/** LD/LDD/LDS into Rd (see effectiveAddress() for @p q). */
template <class Mem>
JAAVR_DP void
load(Op op, Regs &r, unsigned rd, uint16_t q, Mem &mem)
{
    const uint16_t a = effectiveAddress(op, r, q);
    r[rd] = mem.load(a);
    postIncrement(op, r, a);
}

/** ST/STD/STS of Rr (see effectiveAddress() for @p q). */
template <class Mem>
JAAVR_DP void
store(Op op, Regs &r, unsigned rr, uint16_t q, Mem &mem)
{
    const uint16_t a = effectiveAddress(op, r, q);
    mem.store(a, r[rr]);
    postIncrement(op, r, a);
}

/**
 * Guarded push: (SP) <- @p v, then SP <- SP - 1. A push below the
 * stack guard raises StackOverflow before writing; SP only moves when
 * the store succeeded.
 */
template <class Mem>
JAAVR_DP void
push(Mem &mem, uint8_t v)
{
    const uint16_t a = mem.sp();
    if (a < mem.stackGuard()) [[unlikely]] {
        mem.raise(TrapKind::StackOverflow, a);
        return;
    }
    mem.store(a, v);
    if (!mem.raised()) [[likely]]
        mem.setSp(static_cast<uint16_t>(a - 1));
}

/** Pop: SP <- SP + 1, then the byte at SP. */
template <class Mem>
JAAVR_DP uint8_t
pop(Mem &mem)
{
    const uint16_t a = static_cast<uint16_t>(mem.sp() + 1);
    mem.setSp(a);
    return mem.load(a);
}

/** Return-address push of a call: low byte first. */
template <class Mem>
JAAVR_DP void
pushPc(Mem &mem, uint16_t ret)
{
    push(mem, static_cast<uint8_t>(ret));
    push(mem, static_cast<uint8_t>(ret >> 8));
}

/** RET/RETI: pop the return address; RETI also sets I. */
template <class Mem>
JAAVR_DP uint16_t
ret(Op op, Mem &mem, uint8_t &sreg)
{
    const uint16_t hi = pop(mem);
    const uint16_t lo = pop(mem);
    if (op == Op::RETI)
        sreg |= sregI;
    return static_cast<uint16_t>(hi << 8 | lo);
}

/** LPM (into R0), LPM Rd, Z and LPM Rd, Z+: the program byte at Z. */
JAAVR_DP void
lpm(Op op, Regs &r, unsigned rd, const uint16_t *flash)
{
    const uint16_t z = pair(r, 30);
    const uint16_t w = flash[z >> 1];
    r[op == Op::LPM_R0 ? 0 : rd] = static_cast<uint8_t>(z & 1 ? w >> 8 : w);
    if (op == Op::LPM_INC)
        setPair(r, 30, static_cast<uint16_t>(z + 1));
}

/** I/O-space ops: IN, OUT, and SBI/CBI on bit @p bit of I/O @p port. */
template <class Mem>
JAAVR_DP void
io(Op op, Regs &r, unsigned rd, uint8_t port, unsigned bit, Mem &mem)
{
    switch (op) {
      case Op::IN: r[rd] = mem.in(port); break;
      case Op::OUT: mem.out(port, r[rd]); break;
      case Op::SBI:
        mem.out(port, static_cast<uint8_t>(mem.in(port) | 1u << bit));
        break;
      case Op::CBI:
        mem.out(port, static_cast<uint8_t>(mem.in(port) & ~(1u << bit)));
        break;
      default:
        break;
    }
}

} // namespace jaavr::dp

#undef JAAVR_DP

#endif // JAAVR_AVR_DATAPATH_HH
