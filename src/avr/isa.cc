#include "avr/isa.hh"

#include "support/logging.hh"

namespace jaavr
{

namespace
{

/** Extract bits [hi:lo] of @p w. */
constexpr uint16_t
bits(uint16_t w, unsigned hi, unsigned lo)
{
    return (w >> lo) & ((1u << (hi - lo + 1)) - 1);
}

/** Sign-extend @p v of @p width bits. */
constexpr int16_t
sext(uint16_t v, unsigned width)
{
    uint16_t sign = 1u << (width - 1);
    return static_cast<int16_t>((v ^ sign)) - static_cast<int16_t>(sign);
}

} // anonymous namespace

bool
isTwoWord(uint16_t w0)
{
    // LDS/STS: 1001 00_d dddd 0000.
    if ((w0 & 0xfc0f) == 0x9000)
        return true;
    // JMP: 1001 010k kkkk 110k; CALL: 1001 010k kkkk 111k.
    if ((w0 & 0xfe0c) == 0x940c)
        return true;
    return false;
}

Inst
decode(uint16_t w0, uint16_t w1)
{
    Inst i;

    // 0xffff is the erased-flash fill word. Its bit pattern falls
    // into a reserved SBRS encoding (bit 3 set), which real parts
    // treat as undefined; decoding it as INVALID lets the machine
    // distinguish a run into never-programmed flash (trap
    // FlashOutOfBounds) from an in-program illegal word.
    if (w0 == 0xffff)
        return i;

    auto rr5 = [&] { return bits(w0, 9, 9) << 4 | bits(w0, 3, 0); };
    auto rd5 = [&] { return bits(w0, 8, 4); };

    switch (bits(w0, 15, 12)) {
      case 0x0:
        if (w0 == 0x0000) {
            i.op = Op::NOP;
        } else if (bits(w0, 11, 8) == 0x1) {
            i.op = Op::MOVW;
            i.rd = bits(w0, 7, 4) * 2;
            i.rr = bits(w0, 3, 0) * 2;
        } else if (bits(w0, 11, 8) == 0x2) {
            i.op = Op::MULS;
            i.rd = 16 + bits(w0, 7, 4);
            i.rr = 16 + bits(w0, 3, 0);
        } else if (bits(w0, 11, 8) == 0x3) {
            uint8_t d = 16 + bits(w0, 6, 4);
            uint8_t r = 16 + bits(w0, 2, 0);
            switch (bits(w0, 7, 7) << 1 | bits(w0, 3, 3)) {
              case 0: i.op = Op::MULSU; break;
              case 1: i.op = Op::FMUL; break;
              case 2: i.op = Op::FMULS; break;
              case 3: i.op = Op::FMULSU; break;
            }
            i.rd = d;
            i.rr = r;
        } else {
            switch (bits(w0, 11, 10)) {
              case 1: i.op = Op::CPC; break;
              case 2: i.op = Op::SBC; break;
              case 3: i.op = Op::ADD; break;
              default: i.op = Op::INVALID; break;
            }
            i.rd = rd5();
            i.rr = rr5();
        }
        break;

      case 0x1:
        switch (bits(w0, 11, 10)) {
          case 0: i.op = Op::CPSE; break;
          case 1: i.op = Op::CP; break;
          case 2: i.op = Op::SUB; break;
          case 3: i.op = Op::ADC; break;
        }
        i.rd = rd5();
        i.rr = rr5();
        break;

      case 0x2:
        switch (bits(w0, 11, 10)) {
          case 0: i.op = Op::AND; break;
          case 1: i.op = Op::EOR; break;
          case 2: i.op = Op::OR; break;
          case 3: i.op = Op::MOV; break;
        }
        i.rd = rd5();
        i.rr = rr5();
        break;

      case 0x3: case 0x4: case 0x5: case 0x6: case 0x7: case 0xe: {
        switch (bits(w0, 15, 12)) {
          case 0x3: i.op = Op::CPI; break;
          case 0x4: i.op = Op::SBCI; break;
          case 0x5: i.op = Op::SUBI; break;
          case 0x6: i.op = Op::ORI; break;
          case 0x7: i.op = Op::ANDI; break;
          case 0xe: i.op = Op::LDI; break;
        }
        i.rd = 16 + bits(w0, 7, 4);
        i.imm = bits(w0, 11, 8) << 4 | bits(w0, 3, 0);
        break;
      }

      case 0x8: case 0xa: {
        // LDD/STD with displacement: 10q0 qqsd dddd yqqq.
        uint8_t q = (bits(w0, 13, 13) << 5) | (bits(w0, 11, 10) << 3) |
                    bits(w0, 2, 0);
        bool store = bits(w0, 9, 9);
        bool y_reg = bits(w0, 3, 3);
        i.rd = rd5();
        i.disp = q;
        if (store)
            i.op = y_reg ? Op::STD_Y : Op::STD_Z;
        else
            i.op = y_reg ? Op::LDD_Y : Op::LDD_Z;
        break;
      }

      case 0x9:
        switch (bits(w0, 11, 8)) {
          case 0x0: case 0x1: {  // loads
            i.rd = rd5();
            switch (bits(w0, 3, 0)) {
              case 0x0: i.op = Op::LDS; i.k = w1; i.words = 2; break;
              case 0x1: i.op = Op::LD_Z_INC; break;
              case 0x2: i.op = Op::LD_Z_DEC; break;
              case 0x4: i.op = Op::LPM; break;
              case 0x5: i.op = Op::LPM_INC; break;
              case 0x9: i.op = Op::LD_Y_INC; break;
              case 0xa: i.op = Op::LD_Y_DEC; break;
              case 0xc: i.op = Op::LD_X; break;
              case 0xd: i.op = Op::LD_X_INC; break;
              case 0xe: i.op = Op::LD_X_DEC; break;
              case 0xf: i.op = Op::POP; break;
              default: i.op = Op::INVALID; break;
            }
            break;
          }
          case 0x2: case 0x3: {  // stores
            i.rd = rd5();
            switch (bits(w0, 3, 0)) {
              case 0x0: i.op = Op::STS; i.k = w1; i.words = 2; break;
              case 0x1: i.op = Op::ST_Z_INC; break;
              case 0x2: i.op = Op::ST_Z_DEC; break;
              case 0x9: i.op = Op::ST_Y_INC; break;
              case 0xa: i.op = Op::ST_Y_DEC; break;
              case 0xc: i.op = Op::ST_X; break;
              case 0xd: i.op = Op::ST_X_INC; break;
              case 0xe: i.op = Op::ST_X_DEC; break;
              case 0xf: i.op = Op::PUSH; break;
              default: i.op = Op::INVALID; break;
            }
            break;
          }
          case 0x4: case 0x5: {  // one-operand + misc
            uint8_t low = bits(w0, 3, 0);
            i.rd = rd5();
            if (low <= 0x7 || low == 0xa) {
                switch (low) {
                  case 0x0: i.op = Op::COM; break;
                  case 0x1: i.op = Op::NEG; break;
                  case 0x2: i.op = Op::SWAP; break;
                  case 0x3: i.op = Op::INC; break;
                  case 0x5: i.op = Op::ASR; break;
                  case 0x6: i.op = Op::LSR; break;
                  case 0x7: i.op = Op::ROR; break;
                  case 0xa: i.op = Op::DEC; break;
                  default: i.op = Op::INVALID; break;
                }
            } else if (low == 0x8 && bits(w0, 11, 8) == 0x4) {
                // BSET/BCLR: 1001 0100 Bsss 1000.
                i.bit = bits(w0, 6, 4);
                i.op = bits(w0, 7, 7) ? Op::BCLR : Op::BSET;
            } else if (low == 0x8 && bits(w0, 11, 8) == 0x5) {
                switch (bits(w0, 7, 4)) {
                  case 0x00: i.op = Op::RET; break;
                  case 0x01: i.op = Op::RETI; break;
                  case 0x08: i.op = Op::SLEEP; break;
                  case 0x09: i.op = Op::BREAK; break;
                  case 0x0a: i.op = Op::WDR; break;
                  case 0x0c: i.op = Op::LPM_R0; break;
                  default: i.op = Op::INVALID; break;
                }
            } else if (low == 0x9) {
                if (w0 == 0x9409)
                    i.op = Op::IJMP;
                else if (w0 == 0x9509)
                    i.op = Op::ICALL;
                else
                    i.op = Op::INVALID;
            } else if (low == 0xc || low == 0xd) {
                i.op = Op::JMP;
                i.k = (uint32_t(bits(w0, 8, 4)) << 17) |
                      (uint32_t(bits(w0, 0, 0)) << 16) | w1;
                i.words = 2;
            } else if (low == 0xe || low == 0xf) {
                i.op = Op::CALL;
                i.k = (uint32_t(bits(w0, 8, 4)) << 17) |
                      (uint32_t(bits(w0, 0, 0)) << 16) | w1;
                i.words = 2;
            } else {
                i.op = Op::INVALID;
            }
            break;
          }
          case 0x6: case 0x7:
            i.op = bits(w0, 8, 8) ? Op::SBIW : Op::ADIW;
            i.rd = 24 + 2 * bits(w0, 5, 4);
            i.imm = (bits(w0, 7, 6) << 4) | bits(w0, 3, 0);
            break;
          case 0x8: case 0x9: case 0xa: case 0xb:
            switch (bits(w0, 9, 8)) {
              case 0: i.op = Op::CBI; break;
              case 1: i.op = Op::SBIC; break;
              case 2: i.op = Op::SBI; break;
              case 3: i.op = Op::SBIS; break;
            }
            i.imm = bits(w0, 7, 3);
            i.bit = bits(w0, 2, 0);
            break;
          default:  // 0xc-0xf: MUL
            i.op = Op::MUL;
            i.rd = rd5();
            i.rr = rr5();
            break;
        }
        break;

      case 0xb:
        i.op = bits(w0, 11, 11) ? Op::OUT : Op::IN;
        i.rd = rd5();
        i.imm = (bits(w0, 10, 9) << 4) | bits(w0, 3, 0);
        break;

      case 0xc:
        i.op = Op::RJMP;
        i.disp = sext(bits(w0, 11, 0), 12);
        break;

      case 0xd:
        i.op = Op::RCALL;
        i.disp = sext(bits(w0, 11, 0), 12);
        break;

      case 0xf:
        switch (bits(w0, 11, 10)) {
          case 0: case 1:
            i.op = bits(w0, 10, 10) ? Op::BRBC : Op::BRBS;
            i.bit = bits(w0, 2, 0);
            i.disp = sext(bits(w0, 9, 3), 7);
            break;
          case 2:
            i.op = bits(w0, 9, 9) ? Op::BST : Op::BLD;
            i.rd = rd5();
            i.bit = bits(w0, 2, 0);
            break;
          case 3:
            i.op = bits(w0, 9, 9) ? Op::SBRS : Op::SBRC;
            i.rd = rd5();
            i.bit = bits(w0, 2, 0);
            break;
        }
        break;
    }
    return i;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::ADD: return "add";
      case Op::ADC: return "adc";
      case Op::SUB: return "sub";
      case Op::SBC: return "sbc";
      case Op::AND: return "and";
      case Op::OR: return "or";
      case Op::EOR: return "eor";
      case Op::MOV: return "mov";
      case Op::CP: return "cp";
      case Op::CPC: return "cpc";
      case Op::CPSE: return "cpse";
      case Op::MUL: return "mul";
      case Op::MULS: return "muls";
      case Op::MULSU: return "mulsu";
      case Op::FMUL: return "fmul";
      case Op::FMULS: return "fmuls";
      case Op::FMULSU: return "fmulsu";
      case Op::MOVW: return "movw";
      case Op::SUBI: return "subi";
      case Op::SBCI: return "sbci";
      case Op::ANDI: return "andi";
      case Op::ORI: return "ori";
      case Op::CPI: return "cpi";
      case Op::LDI: return "ldi";
      case Op::ADIW: return "adiw";
      case Op::SBIW: return "sbiw";
      case Op::COM: return "com";
      case Op::NEG: return "neg";
      case Op::SWAP: return "swap";
      case Op::INC: return "inc";
      case Op::DEC: return "dec";
      case Op::ASR: return "asr";
      case Op::LSR: return "lsr";
      case Op::ROR: return "ror";
      case Op::BSET: return "bset";
      case Op::BCLR: return "bclr";
      case Op::BLD: return "bld";
      case Op::BST: return "bst";
      case Op::SBI: return "sbi";
      case Op::CBI: return "cbi";
      case Op::SBIC: return "sbic";
      case Op::SBIS: return "sbis";
      case Op::IN: return "in";
      case Op::OUT: return "out";
      case Op::LD_X: return "ld";
      case Op::LD_X_INC: return "ld";
      case Op::LD_X_DEC: return "ld";
      case Op::LDD_Y: return "ldd";
      case Op::LD_Y_INC: return "ld";
      case Op::LD_Y_DEC: return "ld";
      case Op::LDD_Z: return "ldd";
      case Op::LD_Z_INC: return "ld";
      case Op::LD_Z_DEC: return "ld";
      case Op::LDS: return "lds";
      case Op::ST_X: return "st";
      case Op::ST_X_INC: return "st";
      case Op::ST_X_DEC: return "st";
      case Op::STD_Y: return "std";
      case Op::ST_Y_INC: return "st";
      case Op::ST_Y_DEC: return "st";
      case Op::STD_Z: return "std";
      case Op::ST_Z_INC: return "st";
      case Op::ST_Z_DEC: return "st";
      case Op::STS: return "sts";
      case Op::PUSH: return "push";
      case Op::POP: return "pop";
      case Op::LPM_R0: return "lpm";
      case Op::LPM: return "lpm";
      case Op::LPM_INC: return "lpm";
      case Op::RJMP: return "rjmp";
      case Op::RCALL: return "rcall";
      case Op::JMP: return "jmp";
      case Op::CALL: return "call";
      case Op::RET: return "ret";
      case Op::RETI: return "reti";
      case Op::IJMP: return "ijmp";
      case Op::ICALL: return "icall";
      case Op::BRBS: return "brbs";
      case Op::BRBC: return "brbc";
      case Op::SBRC: return "sbrc";
      case Op::SBRS: return "sbrs";
      case Op::NOP: return "nop";
      case Op::SLEEP: return "sleep";
      case Op::WDR: return "wdr";
      case Op::BREAK: return "break";
      case Op::INVALID: return "<invalid>";
    }
    return "<?>";
}

Synonym
synonymOf(const Inst &inst)
{
    if (inst.rd != inst.rr)
        return Synonym::None;
    switch (inst.op) {
      case Op::ADD: return Synonym::LSL;
      case Op::ADC: return Synonym::ROL;
      case Op::AND: return Synonym::TST;
      case Op::EOR: return Synonym::CLR;
      default: return Synonym::None;
    }
}

std::string
disassemble(const Inst &i)
{
    const char *n = opName(i.op);
    // Synonym encodings print as their idiomatic mnemonic; the
    // assembler folds these back to the canonical form, so the
    // disassemble/assemble round trip stays closed.
    switch (synonymOf(i)) {
      case Synonym::LSL: return csprintf("lsl r%d", i.rd);
      case Synonym::ROL: return csprintf("rol r%d", i.rd);
      case Synonym::TST: return csprintf("tst r%d", i.rd);
      case Synonym::CLR: return csprintf("clr r%d", i.rd);
      case Synonym::None: break;
    }
    switch (i.op) {
      case Op::ADD: case Op::ADC: case Op::SUB: case Op::SBC:
      case Op::AND: case Op::OR: case Op::EOR: case Op::MOV:
      case Op::CP: case Op::CPC: case Op::CPSE: case Op::MUL:
      case Op::MULS: case Op::MULSU: case Op::FMUL: case Op::FMULS:
      case Op::FMULSU: case Op::MOVW:
        return csprintf("%s r%d, r%d", n, i.rd, i.rr);
      case Op::SUBI: case Op::SBCI: case Op::ANDI: case Op::ORI:
      case Op::CPI: case Op::LDI:
        return csprintf("%s r%d, 0x%02x", n, i.rd, i.imm);
      case Op::ADIW: case Op::SBIW:
        return csprintf("%s r%d, %d", n, i.rd, i.imm);
      case Op::COM: case Op::NEG: case Op::SWAP: case Op::INC:
      case Op::DEC: case Op::ASR: case Op::LSR: case Op::ROR:
      case Op::PUSH: case Op::POP:
        return csprintf("%s r%d", n, i.rd);
      case Op::BSET: case Op::BCLR:
        return csprintf("%s %d", n, i.bit);
      case Op::BLD: case Op::BST: case Op::SBRC: case Op::SBRS:
        return csprintf("%s r%d, %d", n, i.rd, i.bit);
      case Op::SBI: case Op::CBI: case Op::SBIC: case Op::SBIS:
        return csprintf("%s 0x%02x, %d", n, i.imm, i.bit);
      case Op::IN:
        return csprintf("in r%d, 0x%02x", i.rd, i.imm);
      case Op::OUT:
        return csprintf("out 0x%02x, r%d", i.imm, i.rd);
      case Op::LD_X: return csprintf("ld r%d, X", i.rd);
      case Op::LD_X_INC: return csprintf("ld r%d, X+", i.rd);
      case Op::LD_X_DEC: return csprintf("ld r%d, -X", i.rd);
      case Op::LD_Y_INC: return csprintf("ld r%d, Y+", i.rd);
      case Op::LD_Y_DEC: return csprintf("ld r%d, -Y", i.rd);
      case Op::LD_Z_INC: return csprintf("ld r%d, Z+", i.rd);
      case Op::LD_Z_DEC: return csprintf("ld r%d, -Z", i.rd);
      case Op::LDD_Y: return csprintf("ldd r%d, Y+%d", i.rd, i.disp);
      case Op::LDD_Z: return csprintf("ldd r%d, Z+%d", i.rd, i.disp);
      case Op::ST_X: return csprintf("st X, r%d", i.rd);
      case Op::ST_X_INC: return csprintf("st X+, r%d", i.rd);
      case Op::ST_X_DEC: return csprintf("st -X, r%d", i.rd);
      case Op::ST_Y_INC: return csprintf("st Y+, r%d", i.rd);
      case Op::ST_Y_DEC: return csprintf("st -Y, r%d", i.rd);
      case Op::ST_Z_INC: return csprintf("st Z+, r%d", i.rd);
      case Op::ST_Z_DEC: return csprintf("st -Z, r%d", i.rd);
      case Op::STD_Y: return csprintf("std Y+%d, r%d", i.disp, i.rd);
      case Op::STD_Z: return csprintf("std Z+%d, r%d", i.disp, i.rd);
      case Op::LDS: return csprintf("lds r%d, 0x%04x", i.rd, i.k);
      case Op::STS: return csprintf("sts 0x%04x, r%d", i.k, i.rd);
      case Op::LPM_R0: return "lpm";
      case Op::LPM: return csprintf("lpm r%d, Z", i.rd);
      case Op::LPM_INC: return csprintf("lpm r%d, Z+", i.rd);
      case Op::RJMP: case Op::RCALL:
        return csprintf("%s .%+d", n, i.disp * 2);
      case Op::JMP: case Op::CALL:
        return csprintf("%s 0x%x", n, i.k);
      case Op::BRBS: case Op::BRBC:
        return csprintf("%s %d, .%+d", n, i.bit, i.disp * 2);
      default:
        return n;
    }
}

} // namespace jaavr
