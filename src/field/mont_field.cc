#include "field/mont_field.hh"

#include "support/logging.hh"

namespace jaavr
{

namespace
{

using u128 = unsigned __int128;

/** r = x - y over N limbs; returns the borrow. */
template <size_t N>
uint64_t
subLimbs(std::array<uint64_t, N> &r, const std::array<uint64_t, N> &x,
         const std::array<uint64_t, N> &y)
{
    uint64_t borrow = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < N; i++) {
        u128 d = u128(x[i]) - y[i] - borrow;
        r[i] = uint64_t(d);
        borrow = uint64_t(d >> 64) & 1;
    }
    return borrow;
}

/** r = x + y over N limbs; returns the carry. */
template <size_t N>
uint64_t
addLimbs(std::array<uint64_t, N> &r, const std::array<uint64_t, N> &x,
         const std::array<uint64_t, N> &y)
{
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < N; i++) {
        u128 s = u128(x[i]) + y[i] + carry;
        r[i] = uint64_t(s);
        carry = uint64_t(s >> 64);
    }
    return carry;
}

} // namespace

template <size_t N>
MontField<N>::MontField(const BigUInt &modulus) : PrimeField(modulus)
{
    if (pBits > 64 * N)
        fatal("MontField<%zu>: a %u-bit modulus does not fit", N, pBits);
    mod = toLimbs(p);
    // Newton's iteration doubles the correct low bits of p^-1 each
    // step: 1 (p odd) -> 64 within six steps.
    uint64_t inv = 1;
    for (int i = 0; i < 6; i++)
        inv *= 2 - mod[0] * inv;
    n0 = 0 - inv;
    r2 = toLimbs(BigUInt::powerOfTwo(128 * N) % p);
    montOne = toLimbs(BigUInt::powerOfTwo(64 * N) % p);

    BigUInt e = p - BigUInt(2);
    numExpDigits = (e.bitLength() + 3) / 4;
    for (size_t i = 0; i < numExpDigits; i++) {
        size_t at = 4 * (numExpDigits - 1 - i);
        expDigits[i] = uint8_t((e.limb(at / 32) >> (at % 32)) & 0xf);
    }
}

template <size_t N>
typename MontField<N>::Limbs
MontField<N>::toLimbs(const BigUInt &a)
{
    Limbs r{};
    for (size_t i = 0; i < N; i++)
        r[i] = uint64_t(a.limb(2 * i)) | uint64_t(a.limb(2 * i + 1)) << 32;
    return r;
}

template <size_t N>
typename MontField<N>::Limbs
MontField<N>::montMul(const Limbs &a, const Limbs &b) const
{
    // CIOS: interleave one row of a * b[i] with one word of REDC.
    // Inputs below p keep t below 2p, so t[N] is 0 or 1 at the end.
    uint64_t t[N + 2] = {};
#pragma GCC unroll 8
    for (size_t i = 0; i < N; i++) {
        u128 c = 0;
#pragma GCC unroll 8
        for (size_t j = 0; j < N; j++) {
            c += u128(a[j]) * b[i] + t[j];
            t[j] = uint64_t(c);
            c >>= 64;
        }
        c += t[N];
        t[N] = uint64_t(c);
        t[N + 1] = uint64_t(c >> 64);

        uint64_t m = t[0] * n0;
        c = (u128(m) * mod[0] + t[0]) >> 64;
#pragma GCC unroll 8
        for (size_t j = 1; j < N; j++) {
            c += u128(m) * mod[j] + t[j];
            t[j - 1] = uint64_t(c);
            c >>= 64;
        }
        c += t[N];
        t[N - 1] = uint64_t(c);
        t[N] = t[N + 1] + uint64_t(c >> 64);
    }
    Limbs lo{}, d{};
    for (size_t i = 0; i < N; i++)
        lo[i] = t[i];
    uint64_t borrow = subLimbs(d, lo, mod);
    return (t[N] || !borrow) ? d : lo;
}

template <size_t N>
BigUInt
MontField<N>::add(const BigUInt &a, const BigUInt &b) const
{
    if (a >= p || b >= p)
        return PrimeField::add(a, b);
    if (counter)
        counter->add++;
    Limbs s{}, d{};
    uint64_t carry = addLimbs(s, toLimbs(a), toLimbs(b));
    uint64_t borrow = subLimbs(d, s, mod);
    return BigUInt((carry || !borrow) ? d : s);
}

template <size_t N>
BigUInt
MontField<N>::sub(const BigUInt &a, const BigUInt &b) const
{
    if (a >= p || b >= p)
        return PrimeField::sub(a, b);
    if (counter)
        counter->sub++;
    Limbs d{};
    if (subLimbs(d, toLimbs(a), toLimbs(b)))
        addLimbs(d, d, mod);
    return BigUInt(d);
}

template <size_t N>
BigUInt
MontField<N>::neg(const BigUInt &a) const
{
    if (a >= p)
        return PrimeField::neg(a);
    if (counter)
        counter->sub++;
    if (a.isZero())
        return a;
    Limbs d{};
    subLimbs(d, mod, toLimbs(a));
    return BigUInt(d);
}

template <size_t N>
BigUInt
MontField<N>::mul(const BigUInt &a, const BigUInt &b) const
{
    if (a >= p || b >= p)
        return PrimeField::mul(a, b);
    if (counter)
        counter->mul++;
    return BigUInt(mulNormal(toLimbs(a), toLimbs(b)));
}

template <size_t N>
BigUInt
MontField<N>::sqr(const BigUInt &a) const
{
    if (a >= p)
        return PrimeField::sqr(a);
    if (counter)
        counter->sqr++;
    Limbs x = toLimbs(a);
    return BigUInt(mulNormal(x, x));
}

template <size_t N>
BigUInt
MontField<N>::mulSmall(const BigUInt &a, uint32_t c) const
{
    if (a >= p || (pBits <= 32 && c >= p.low32()))
        return PrimeField::mulSmall(a, c);
    if (counter)
        counter->mulSmall++;
    Limbs k{};
    k[0] = c;
    return BigUInt(mulNormal(toLimbs(a), k));
}

template <size_t N>
BigUInt
MontField<N>::inv(const BigUInt &a) const
{
    if (a.isZero() || a >= p)
        return PrimeField::inv(a);
    if (counter)
        counter->inv++;
    // Fermat: a^(p-2) = a^-1, with a 4-bit fixed window over the
    // public exponent p - 2, all in the Montgomery domain.
    std::array<Limbs, 16> table{};
    table[0] = montOne;
    table[1] = montMul(toLimbs(a), r2);
    for (size_t i = 2; i < 16; i++)
        table[i] = montMul(table[i - 1], table[1]);
    Limbs acc = table[expDigits[0]];
    for (size_t i = 1; i < numExpDigits; i++) {
        for (int s = 0; s < 4; s++)
            acc = montMul(acc, acc);
        if (expDigits[i])
            acc = montMul(acc, table[expDigits[i]]);
    }
    Limbs one{};
    one[0] = 1;
    return BigUInt(montMul(acc, one));
}

template class MontField<3>;

} // namespace jaavr
