/**
 * @file
 * Branchless SREG flag evaluation for the superblock backend
 * (superblock.cc): one read-modify-write of SREG per instruction
 * instead of one per flag. The reference path (Machine::step) keeps
 * the original setFlag-based helpers; tests/test_superblock.cc and
 * tests/test_decode_cache.cc pin both backends to bit-identical SREG
 * values.
 */

#ifndef JAAVR_AVR_FLAGS_HH
#define JAAVR_AVR_FLAGS_HH

#include <cstdint>

namespace jaavr
{

// SREG bit masks (bit order as in Machine: C Z N V S H T I).
inline constexpr uint8_t sregC = 0x01, sregZ = 0x02, sregN = 0x04,
                         sregV = 0x08, sregS = 0x10, sregH = 0x20,
                         sregT = 0x40, sregI = 0x80;

/** addFlags(): writes H, S, V, N, Z, C. */
inline void
addFlagsB(uint8_t &sreg, uint8_t d, uint8_t s, uint8_t r)
{
    uint8_t carries = (d & s) | (s & ~r) | (~r & d);
    uint8_t ovf = (d & s & ~r) | (~d & ~s & r);
    uint8_t n = (r >> 7) & 1;
    uint8_t v = (ovf >> 7) & 1;
    uint8_t f = static_cast<uint8_t>((carries >> 7) & 1);      // C
    f |= static_cast<uint8_t>(r == 0) << 1;                    // Z
    f |= n << 2;                                               // N
    f |= v << 3;                                               // V
    f |= (n ^ v) << 4;                                         // S
    f |= ((carries >> 3) & 1) << 5;                            // H
    sreg = (sreg & 0xc0) | f;
}

/** subFlags(): writes H, S, V, N, Z, C; Z sticky when @p keep_z. */
inline void
subFlagsB(uint8_t &sreg, uint8_t d, uint8_t s, uint8_t r, bool keep_z)
{
    uint8_t borrows = (~d & s) | (s & r) | (r & ~d);
    uint8_t ovf = (d & ~s & ~r) | (~d & s & r);
    uint8_t n = (r >> 7) & 1;
    uint8_t v = (ovf >> 7) & 1;
    uint8_t z = static_cast<uint8_t>(r == 0);
    if (keep_z)  // constant at every call site
        z &= (sreg >> 1) & 1;
    uint8_t f = static_cast<uint8_t>((borrows >> 7) & 1);
    f |= z << 1;
    f |= n << 2;
    f |= v << 3;
    f |= (n ^ v) << 4;
    f |= ((borrows >> 3) & 1) << 5;
    sreg = (sreg & 0xc0) | f;
}

/** AND/OR/EOR flags: V=0, S=N, plus N and Z; C and H untouched. */
inline void
logicFlagsB(uint8_t &sreg, uint8_t r)
{
    uint8_t n = (r >> 7) & 1;
    uint8_t f = static_cast<uint8_t>(static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | n << 4);
    sreg = (sreg & ~(sregZ | sregN | sregV | sregS)) | f;
}

/** INC/DEC flags: S, V (given), N, Z; C and H untouched. */
inline void
incDecFlagsB(uint8_t &sreg, uint8_t r, bool v)
{
    uint8_t n = (r >> 7) & 1;
    uint8_t vb = v ? 1 : 0;
    uint8_t f = static_cast<uint8_t>(static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | vb << 3 | (n ^ vb) << 4);
    sreg = (sreg & ~(sregZ | sregN | sregV | sregS)) | f;
}

/** ASR/LSR/ROR flags: S, V=N^C, N, Z, C; H untouched. */
inline void
shiftFlagsB(uint8_t &sreg, uint8_t r, uint8_t carry_bit)
{
    uint8_t n = (r >> 7) & 1;
    uint8_t c = carry_bit & 1;
    uint8_t v = n ^ c;
    uint8_t f = static_cast<uint8_t>(c | static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | v << 3 | (n ^ v) << 4);
    sreg = (sreg & ~(sregC | sregZ | sregN | sregV | sregS)) | f;
}

/** ADIW/SBIW flags on the 16-bit result: S, V, N, Z, C; H untouched. */
inline void
wideFlagsB(uint8_t &sreg, uint16_t r, bool v, bool c)
{
    uint8_t n = (r >> 15) & 1;
    uint8_t vb = v ? 1 : 0;
    uint8_t f = static_cast<uint8_t>((c ? 1 : 0) |
                                     static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | vb << 3 | (n ^ vb) << 4);
    sreg = (sreg & ~(sregC | sregZ | sregN | sregV | sregS)) | f;
}

/** MUL/MULS/MULSU/FMUL* flags: Z and C only. */
inline void
mulFlagsB(uint8_t &sreg, uint16_t product, bool carry)
{
    uint8_t f = static_cast<uint8_t>((carry ? 1 : 0) |
                                     static_cast<uint8_t>(product == 0)
                                         << 1);
    sreg = (sreg & ~(sregC | sregZ)) | f;
}

} // namespace jaavr

#endif // JAAVR_AVR_FLAGS_HH
