/**
 * @file
 * AVR instruction-set definitions: the operation list, the decoded
 * instruction record, the decoder, and the disassembler.
 *
 * The set covers the full ATmega128 ISA as used by compiled and
 * hand-written code (the JAAVR soft core the paper builds on is
 * "fully instruction-set compatible with the original ATmega128").
 */

#ifndef JAAVR_AVR_ISA_HH
#define JAAVR_AVR_ISA_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace jaavr
{

/** AVR operations (addressing variants are distinct entries). */
enum class Op : uint8_t
{
    // Register-register arithmetic and logic.
    ADD, ADC, SUB, SBC, AND, OR, EOR, MOV, CP, CPC, CPSE, MUL,
    MULS, MULSU, FMUL, FMULS, FMULSU, MOVW,
    // Register-immediate.
    SUBI, SBCI, ANDI, ORI, CPI, LDI,
    // 16-bit immediate pairs.
    ADIW, SBIW,
    // Single-register.
    COM, NEG, SWAP, INC, DEC, ASR, LSR, ROR,
    // Flag and bit manipulation.
    BSET, BCLR, BLD, BST, SBI, CBI, SBIC, SBIS,
    // I/O.
    IN, OUT,
    // Data transfer.
    LD_X, LD_X_INC, LD_X_DEC,
    LDD_Y, LD_Y_INC, LD_Y_DEC,
    LDD_Z, LD_Z_INC, LD_Z_DEC,
    LDS,
    ST_X, ST_X_INC, ST_X_DEC,
    STD_Y, ST_Y_INC, ST_Y_DEC,
    STD_Z, ST_Z_INC, ST_Z_DEC,
    STS,
    PUSH, POP,
    LPM_R0, LPM, LPM_INC,
    // Control flow.
    RJMP, RCALL, JMP, CALL, RET, RETI, IJMP, ICALL,
    BRBS, BRBC, SBRC, SBRS,
    // Misc.
    NOP, SLEEP, WDR, BREAK,

    INVALID,
};

/** Number of Op values (INVALID included); sizes per-op tables. */
constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::INVALID) + 1;

/** Decoded instruction. */
struct Inst
{
    Op op = Op::INVALID;
    uint8_t rd = 0;    ///< destination register index
    uint8_t rr = 0;    ///< source register index
    uint8_t imm = 0;   ///< 8-bit immediate / I/O address / bit index
    uint8_t bit = 0;   ///< bit number (BLD/BST/SBRC/BRBS/...)
    int16_t disp = 0;  ///< signed branch displacement (words) / LDD q
    uint32_t k = 0;    ///< 16/22-bit absolute address (LDS/STS/JMP/CALL)
    uint8_t words = 1; ///< encoding length in 16-bit words
};

/**
 * Decode an instruction from its first word @p w0 and (for two-word
 * encodings) the following word @p w1. Returns Op::INVALID for
 * reserved encodings.
 */
Inst decode(uint16_t w0, uint16_t w1);

/**
 * Canonicalized synonym encodings. On the AVR four common mnemonics
 * are not distinct opcodes at all but register-register instructions
 * with rd == rr (LSL Rd = ADD Rd,Rd; ROL Rd = ADC Rd,Rd; TST Rd =
 * AND Rd,Rd; CLR Rd = EOR Rd,Rd), so decode() folds them into their
 * canonical Op implicitly and the ISS executes them as such.
 * synonymOf() recovers the classification for disassemble(), which
 * prints the idiomatic mnemonic.
 */
enum class Synonym : uint8_t
{
    None = 0,
    LSL, ///< ADD Rd,Rd — logical shift left
    ROL, ///< ADC Rd,Rd — rotate left through carry
    TST, ///< AND Rd,Rd — test for zero or minus
    CLR, ///< EOR Rd,Rd — clear register
};

/** Synonym classification of a decoded instruction (None if plain). */
Synonym synonymOf(const Inst &inst);

/** Mnemonic of an operation. */
const char *opName(Op op);

/** Human-readable disassembly ("ldd r24, Z+3"). */
std::string disassemble(const Inst &inst);

/** True for 2-word encodings (needed by skip instructions). */
bool isTwoWord(uint16_t w0);

/** True for the data-space load family (LD/LDD/LDS). */
inline bool
isLoadOp(Op op)
{
    switch (op) {
      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC:
      case Op::LDD_Y: case Op::LD_Y_INC: case Op::LD_Y_DEC:
      case Op::LDD_Z: case Op::LD_Z_INC: case Op::LD_Z_DEC:
      case Op::LDS:
        return true;
      default:
        return false;
    }
}

/** True for the data-space store family (ST/STD/STS). */
inline bool
isStoreOp(Op op)
{
    switch (op) {
      case Op::ST_X: case Op::ST_X_INC: case Op::ST_X_DEC:
      case Op::STD_Y: case Op::ST_Y_INC: case Op::ST_Y_DEC:
      case Op::STD_Z: case Op::ST_Z_INC: case Op::ST_Z_DEC:
      case Op::STS:
        return true;
      default:
        return false;
    }
}

/**
 * Algorithm-2 MAC trigger shape: a data-space load into R24 (any
 * LD/LDD/LDS form). In ISE under MACCR load mode it feeds the loaded
 * byte through the MAC unit.
 */
inline bool
firesLoadMac(const Inst &inst)
{
    return inst.rd == 24 && isLoadOp(inst.op);
}

/**
 * The triggers exempt from the MAC shadow hazard rule: every
 * firesLoadMac() form except the pre-decrement ones. An exempt load
 * may retrigger while one micro-op of the previous trigger is still
 * pending; every other instruction that touches {R0..R8, R16..R19}
 * inside a shadow is a hazard.
 */
inline bool
macShadowExempt(const Inst &inst)
{
    return firesLoadMac(inst) && inst.op != Op::LD_X_DEC &&
           inst.op != Op::LD_Y_DEC && inst.op != Op::LD_Z_DEC;
}

/** Outcome of Algorithm 2's 13-register rule for one instruction. */
enum class MacHazard : uint8_t { None, Touch, Retrigger };

/**
 * The instructions executing while MAC micro-ops are pending
 * (@p shadow cycles) must not touch {R0..R8, R16..R19}; an @p exempt
 * R24 load may retrigger unless both micro-ops of the previous
 * trigger are still outstanding.
 */
inline MacHazard
macShadowHazard(uint8_t shadow, bool touches_mac, bool exempt)
{
    if (shadow > 0 && touches_mac && !exempt)
        return MacHazard::Touch;
    return shadow >= 2 && exempt ? MacHazard::Retrigger : MacHazard::None;
}

/**
 * MAC shadow left after an instruction retires in @p cycles; a fresh
 * trigger's two micro-ops occupy the two cycles after it.
 */
constexpr uint8_t
macShadowAfter(uint8_t shadow, unsigned cycles, bool triggered = false)
{
    if (triggered)
        return 2;
    return shadow > cycles ? static_cast<uint8_t>(shadow - cycles) : 0;
}

/** A NOP retired inside a MAC shadow is a hazard stall. */
constexpr bool
isMacStallNop(Op op, uint8_t shadow)
{
    return op == Op::NOP && shadow > 0;
}

} // namespace jaavr

#endif // JAAVR_AVR_ISA_HH
