#include "field/secp160.hh"

namespace jaavr
{

BigUInt
pseudoMersenneReduce(const BigUInt &t, const BigUInt &p, unsigned bits,
                     const BigUInt &c)
{
    BigUInt r = t;
    while (r.bitLength() > bits) {
        BigUInt hi = r >> bits;
        BigUInt lo = r - (hi << bits);
        r = hi * c + lo;
    }
    while (r >= p)
        r -= p;
    return r;
}

BigUInt
Secp160r1Field::primeValue()
{
    return BigUInt::powerOfTwo(160) - BigUInt::powerOfTwo(31) - BigUInt(1);
}

// 2^160 = 2^31 + 1 (mod p)
Secp160r1Field::Secp160r1Field()
    : PrimeField(primeValue()), fold(BigUInt::powerOfTwo(31) + BigUInt(1))
{
}

BigUInt
Secp160r1Field::reduceProduct(const BigUInt &t) const
{
    return pseudoMersenneReduce(t, p, 160, fold);
}

BigUInt
Secp160k1Field::primeValue()
{
    return BigUInt::powerOfTwo(160) - BigUInt::powerOfTwo(32) -
           BigUInt(21389);
}

// 2^160 = 2^32 + 21389 (mod p)
Secp160k1Field::Secp160k1Field()
    : PrimeField(primeValue()),
      fold(BigUInt::powerOfTwo(32) + BigUInt(21389))
{
}

BigUInt
Secp160k1Field::reduceProduct(const BigUInt &t) const
{
    return pseudoMersenneReduce(t, p, 160, fold);
}

} // namespace jaavr
