/**
 * @file
 * Unit and property tests for BigUInt.
 */

#include <gtest/gtest.h>

#include "bigint/big_uint.hh"
#include "support/random.hh"

using namespace jaavr;

TEST(BigUInt, ZeroBasics)
{
    BigUInt z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.numLimbs(), 0u);
    EXPECT_EQ(z.bitLength(), 0u);
    EXPECT_EQ(z.toHex(), "0");
    EXPECT_FALSE(z.isOdd());
    EXPECT_EQ(z, BigUInt(0));
}

TEST(BigUInt, FromUint64)
{
    BigUInt v(0x123456789abcdef0ULL);
    EXPECT_EQ(v.toHex(), "123456789abcdef0");
    EXPECT_EQ(v.toUint64(), 0x123456789abcdef0ULL);
    EXPECT_EQ(v.numLimbs(), 2u);
    EXPECT_EQ(v.bitLength(), 61u);
}

TEST(BigUInt, HexRoundTrip)
{
    const char *cases[] = {
        "0", "1", "ff", "100", "ffffffff", "100000000",
        "ff4c0000000000000000000000000000000000000001",
        "deadbeefcafebabe0123456789abcdef",
    };
    for (const char *c : cases) {
        BigUInt v = BigUInt::fromHex(c);
        EXPECT_EQ(v.toHex(), std::string(c)) << c;
    }
}

TEST(BigUInt, HexPrefixAndSeparators)
{
    EXPECT_EQ(BigUInt::fromHex("0xff_00 11").toHex(), "ff0011");
    EXPECT_EQ(BigUInt::fromHex("0x0").toHex(), "0");
    // Odd number of digits implies a leading zero nibble.
    EXPECT_EQ(BigUInt::fromHex("abc").toHex(), "abc");
}

TEST(BigUInt, BytesRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 50; i++) {
        BigUInt v = BigUInt::randomBits(rng, 1 + rng.below(256));
        auto bytes = v.toBytes();
        EXPECT_EQ(BigUInt::fromBytes(bytes), v);
    }
}

TEST(BigUInt, BytesPadding)
{
    BigUInt v(0x1234);
    auto b = v.toBytes(4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0);
    EXPECT_EQ(b[1], 0);
    EXPECT_EQ(b[2], 0x12);
    EXPECT_EQ(b[3], 0x34);
}

TEST(BigUInt, WordsRoundTrip)
{
    BigUInt v = BigUInt::fromHex("0123456789abcdef0011223344556677");
    auto w = v.toWords(5);
    ASSERT_EQ(w.size(), 5u);
    EXPECT_EQ(w[0], 0x44556677u);
    EXPECT_EQ(w[4], 0u);
    EXPECT_EQ(BigUInt::fromWords(w), v);
}

TEST(BigUInt, FromLimbs64)
{
    std::array<uint64_t, 3> l = {0x8899aabbccddeeffull, 0x0011223344556677ull,
                                 0};
    BigUInt v(l);
    EXPECT_EQ(v, BigUInt::fromHex("00112233445566778899aabbccddeeff"));
    EXPECT_EQ(v.numLimbs(), 4u);  // normalized: zero top limb dropped
    EXPECT_TRUE(BigUInt(std::array<uint64_t, 3>{}).isZero());
    Rng rng(64);
    for (int i = 0; i < 50; i++) {
        BigUInt r = BigUInt::randomBits(rng, 192);
        std::vector<uint32_t> w = r.toWords(6);
        std::array<uint64_t, 3> r64;
        for (size_t j = 0; j < 3; j++)
            r64[j] = uint64_t(w[2 * j]) | uint64_t(w[2 * j + 1]) << 32;
        EXPECT_EQ(BigUInt(r64), r);
    }
}

TEST(BigUInt, AddSubInverse)
{
    Rng rng(2);
    for (int i = 0; i < 200; i++) {
        BigUInt a = BigUInt::randomBits(rng, 200);
        BigUInt b = BigUInt::randomBits(rng, 200);
        BigUInt s = a + b;
        EXPECT_EQ(s - a, b);
        EXPECT_EQ(s - b, a);
        EXPECT_GE(s, a);
    }
}

TEST(BigUInt, AddCarryChain)
{
    BigUInt a = BigUInt::fromHex("ffffffffffffffffffffffffffffffff");
    BigUInt one(1);
    EXPECT_EQ((a + one).toHex(), "100000000000000000000000000000000");
}

TEST(BigUInt, SubUnderflowPanics)
{
    EXPECT_DEATH(BigUInt(1) - BigUInt(2), "underflow");
}

TEST(BigUInt, MulCommutativeAssociative)
{
    Rng rng(3);
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::randomBits(rng, 150);
        BigUInt b = BigUInt::randomBits(rng, 150);
        BigUInt c = BigUInt::randomBits(rng, 150);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST(BigUInt, MulKnownValue)
{
    BigUInt a = BigUInt::fromHex("ffffffffffffffff");
    EXPECT_EQ((a * a).toHex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUInt, ShiftRoundTrip)
{
    Rng rng(4);
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::randomBits(rng, 180);
        unsigned k = rng.below(120);
        EXPECT_EQ((a << k) >> k, a);
        EXPECT_EQ(a << k, a * BigUInt::powerOfTwo(k));
    }
}

TEST(BigUInt, ShiftByZeroAndMultiples)
{
    BigUInt a = BigUInt::fromHex("deadbeef12345678");
    EXPECT_EQ(a << 0, a);
    EXPECT_EQ(a >> 0, a);
    EXPECT_EQ((a << 32).limb(0), 0u);
    EXPECT_EQ((a << 32).limb(1), 0x12345678u);
    EXPECT_EQ((a << 64) >> 64, a);
}

TEST(BigUInt, DivModIdentityProperty)
{
    Rng rng(5);
    for (int i = 0; i < 300; i++) {
        BigUInt n = BigUInt::randomBits(rng, 1 + rng.below(400));
        BigUInt d = BigUInt::randomBits(rng, 1 + rng.below(250));
        if (d.isZero())
            d = BigUInt(1);
        BigUInt q, r;
        BigUInt::divMod(n, d, q, r);
        EXPECT_LT(r, d);
        EXPECT_EQ(q * d + r, n);
    }
}

TEST(BigUInt, DivModKnuthAddBackCase)
{
    // Crafted to exercise the rare add-back branch of Algorithm D:
    // divisor with top limb 0x80000000 and dividend top pattern that
    // overestimates qhat.
    BigUInt d = BigUInt::fromHex("800000000000000000000001");
    BigUInt n = (d << 96) - BigUInt(1);
    BigUInt q, r;
    BigUInt::divMod(n, d, q, r);
    EXPECT_EQ(q * d + r, n);
    EXPECT_LT(r, d);
}

TEST(BigUInt, DivBySingleLimb)
{
    BigUInt n = BigUInt::fromHex("123456789abcdef0123456789");
    BigUInt d(0x10000);
    EXPECT_EQ(n / d, BigUInt::fromHex("123456789abcdef012345"));
    EXPECT_EQ((n % d).toUint64(), 0x6789ULL);
}

TEST(BigUInt, DivByLargerIsZero)
{
    BigUInt n(5), d(7);
    EXPECT_TRUE((n / d).isZero());
    EXPECT_EQ(n % d, n);
}

TEST(BigUInt, CompareOrdering)
{
    BigUInt a(1), b(2), c = BigUInt::powerOfTwo(100);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_GT(c, a);
    EXPECT_LE(a, a);
    EXPECT_GE(c, c);
    EXPECT_NE(a, b);
}

TEST(BigUInt, BitAccess)
{
    BigUInt v = BigUInt::powerOfTwo(97) + BigUInt(5);
    EXPECT_TRUE(v.bit(0));
    EXPECT_FALSE(v.bit(1));
    EXPECT_TRUE(v.bit(2));
    EXPECT_TRUE(v.bit(97));
    EXPECT_FALSE(v.bit(96));
    EXPECT_FALSE(v.bit(300));
    EXPECT_EQ(v.bitLength(), 98u);
}

TEST(BigUInt, TrailingZeros)
{
    EXPECT_EQ(BigUInt(1).trailingZeros(), 0u);
    EXPECT_EQ(BigUInt(8).trailingZeros(), 3u);
    EXPECT_EQ(BigUInt::powerOfTwo(144).trailingZeros(), 144u);
}

TEST(BigUInt, ModularHelpers)
{
    Rng rng(6);
    BigUInt m = (BigUInt(65356) << 144) + BigUInt(1);  // the paper OPF prime
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::random(rng, m);
        BigUInt b = BigUInt::random(rng, m);
        BigUInt s = a.addMod(b, m);
        EXPECT_LT(s, m);
        EXPECT_EQ(s, (a + b) % m);
        BigUInt d = a.subMod(b, m);
        EXPECT_LT(d, m);
        EXPECT_EQ(d.addMod(b, m), a);
        EXPECT_EQ(a.mulMod(b, m), (a * b) % m);
    }
}

TEST(BigUInt, PowModSmall)
{
    BigUInt m(1000000007ULL);
    EXPECT_EQ(BigUInt(2).powMod(BigUInt(10), m).toUint64(), 1024u);
    // Fermat: a^(p-1) = 1 mod p.
    EXPECT_EQ(BigUInt(12345).powMod(m - BigUInt(1), m).toUint64(), 1u);
    EXPECT_EQ(BigUInt(5).powMod(BigUInt(0), m).toUint64(), 1u);
}

TEST(BigUInt, InvModProperty)
{
    Rng rng(7);
    BigUInt m = (BigUInt(65356) << 144) + BigUInt(1);  // the paper OPF prime
    for (int i = 0; i < 50; i++) {
        BigUInt a = BigUInt::random(rng, m);
        if (a.isZero())
            continue;
        BigUInt inv = a.invMod(m);
        EXPECT_LT(inv, m);
        EXPECT_TRUE(a.mulMod(inv, m).isOne());
    }
}

TEST(BigUInt, InvModSmallKnown)
{
    // 3 * 4 = 12 = 1 mod 11.
    EXPECT_EQ(BigUInt(3).invMod(BigUInt(11)).toUint64(), 4u);
    EXPECT_EQ(BigUInt(1).invMod(BigUInt(7)).toUint64(), 1u);
}

TEST(BigUInt, Gcd)
{
    EXPECT_EQ(BigUInt(12).gcd(BigUInt(18)).toUint64(), 6u);
    EXPECT_EQ(BigUInt(17).gcd(BigUInt(31)).toUint64(), 1u);
    EXPECT_EQ(BigUInt(0).gcd(BigUInt(5)).toUint64(), 5u);
    Rng rng(8);
    for (int i = 0; i < 30; i++) {
        BigUInt a = BigUInt::randomBits(rng, 128);
        BigUInt b = BigUInt::randomBits(rng, 128);
        if (a.isZero() || b.isZero())
            continue;
        BigUInt g = a.gcd(b);
        EXPECT_TRUE((a % g).isZero());
        EXPECT_TRUE((b % g).isZero());
    }
}

TEST(BigUInt, RandomBelowBound)
{
    Rng rng(9);
    BigUInt bound = BigUInt::fromHex("10000000000000000000001");
    for (int i = 0; i < 100; i++)
        EXPECT_LT(BigUInt::random(rng, bound), bound);
}

TEST(BigUInt, RandomBitsRespectsWidth)
{
    Rng rng(10);
    for (int i = 0; i < 100; i++) {
        unsigned bits = 1 + rng.below(300);
        EXPECT_LE(BigUInt::randomBits(rng, bits).bitLength(), bits);
    }
}

TEST(BigUInt, CapacityOverflowPanics)
{
    BigUInt big = BigUInt::powerOfTwo(1270);
    EXPECT_DEATH(big * big, "capacity");
}
