/**
 * @file
 * Differential tests: MontField<3> (the service workers' fixed-width
 * Montgomery field) against the BigUInt PrimeField oracle on every
 * modulus the service computes over.
 */

#include <gtest/gtest.h>

#include "curves/ecdsa.hh"
#include "curves/standard_curves.hh"
#include "field/mont_field.hh"

using namespace jaavr;

namespace
{

struct Modulus
{
    const char *name;
    const PrimeField &(*oracle)();
};

const PrimeField &
secp160r1OrderField()
{
    static const PrimeField f(secp160r1Generator().order);
    return f;
}

/** NIST P-192's prime 2^192 - 2^64 - 1: fills all three limbs, so
 *  the kernel's carry out of the top limb is exercised. */
const PrimeField &
p192Field()
{
    static const PrimeField f(BigUInt::powerOfTwo(192) -
                              BigUInt::powerOfTwo(64) - BigUInt(1));
    return f;
}

const Modulus kModuli[] = {
    {"secp160r1", [] () -> const PrimeField & { return secp160r1Field(); }},
    {"secp160k1", [] () -> const PrimeField & { return secp160k1Field(); }},
    {"paper_opf", paperOpfField},
    {"glv_opf", glvOpfField},
    {"secp160r1_order", secp160r1OrderField},
    {"p192", p192Field},
};

class MontFieldDiff : public ::testing::TestWithParam<Modulus>
{
  protected:
    MontFieldDiff()
        : oracle(GetParam().oracle()), mont(oracle.modulus()),
          p(oracle.modulus())
    {}

    /** The edge operands, reduced into [0, p). */
    std::vector<BigUInt>
    edges() const
    {
        BigUInt one(1);
        return {BigUInt(0),
                one,
                BigUInt(2),
                p - one,
                p - BigUInt(2),
                BigUInt(~uint64_t(0)) % p,
                (BigUInt::powerOfTwo(128) - one) % p,
                BigUInt::powerOfTwo(159) % p};
    }

    /** Every overridden op on (a, b) agrees with the oracle. */
    void
    checkAll(const BigUInt &a, const BigUInt &b) const
    {
        SCOPED_TRACE("a=" + a.toHex() + " b=" + b.toHex());
        EXPECT_EQ(mont.add(a, b), oracle.add(a, b));
        EXPECT_EQ(mont.sub(a, b), oracle.sub(a, b));
        EXPECT_EQ(mont.mul(a, b), oracle.mul(a, b));
        EXPECT_EQ(mont.neg(a), oracle.neg(a));
        EXPECT_EQ(mont.sqr(a), oracle.sqr(a));
        for (uint32_t c : {0u, 1u, 3u, 65535u, ~0u})
            EXPECT_EQ(mont.mulSmall(a, c), oracle.mulSmall(a, c));
        if (!(a % p).isZero()) {
            EXPECT_EQ(mont.inv(a), oracle.inv(a));
        }
    }

    const PrimeField &oracle;
    MontField<3> mont;
    BigUInt p;
};

} // namespace

TEST_P(MontFieldDiff, EdgeOperands)
{
    for (const BigUInt &a : edges())
        for (const BigUInt &b : edges())
            checkAll(a, b);
}

TEST_P(MontFieldDiff, RandomOperands)
{
    Rng rng(0x4d6f6e74);
    std::vector<BigUInt> e = edges();
    for (int i = 0; i < 2000; i++) {
        BigUInt a = oracle.random(rng);
        checkAll(a, oracle.random(rng));
        checkAll(a, e[i % e.size()]);
    }
}

TEST_P(MontFieldDiff, OperandsAtOrAboveModulusTakeOraclePath)
{
    // PrimeField accepts unreduced operands; MontField must answer
    // exactly as it does (the answer may itself be unreduced).
    BigUInt one(1);
    std::vector<BigUInt> wide = {p, p + one, p + p - one,
                                 BigUInt::powerOfTwo(192) - one,
                                 BigUInt::powerOfTwo(200) + BigUInt(7)};
    for (const BigUInt &a : wide) {
        for (const BigUInt &b : edges()) {
            SCOPED_TRACE("a=" + a.toHex() + " b=" + b.toHex());
            EXPECT_EQ(mont.add(a, b), oracle.add(a, b));
            EXPECT_EQ(mont.add(b, a), oracle.add(b, a));
            EXPECT_EQ(mont.sub(a, b), oracle.sub(a, b));
            EXPECT_EQ(mont.mul(a, b), oracle.mul(a, b));
            EXPECT_EQ(mont.mul(b, a), oracle.mul(b, a));
        }
        EXPECT_EQ(mont.sqr(a), oracle.sqr(a));
        EXPECT_EQ(mont.mulSmall(a, 65535), oracle.mulSmall(a, 65535));
        if (!(a % p).isZero()) {
            EXPECT_EQ(mont.inv(a), oracle.inv(a));
        }
    }
    EXPECT_TRUE(mont.neg(p).isZero());
}

TEST_P(MontFieldDiff, PanicsLikeOracle)
{
    EXPECT_DEATH(oracle.inv(BigUInt(0)), "inv of zero");
    EXPECT_DEATH(mont.inv(BigUInt(0)), "inv of zero");
    EXPECT_DEATH(oracle.inv(p), "invMod");
    EXPECT_DEATH(mont.inv(p), "invMod");
    EXPECT_DEATH(oracle.neg(p + BigUInt(1)), "underflow");
    EXPECT_DEATH(mont.neg(p + BigUInt(1)), "underflow");
}

TEST_P(MontFieldDiff, CountsEveryOpLikeOracle)
{
    FieldOpCounts want, got;
    Rng rng(26);
    BigUInt a = oracle.random(rng), b = oracle.random(rng);
    for (auto [f, counts] : {std::pair<const PrimeField *, FieldOpCounts *>{
                                 &oracle, &want},
                             {&mont, &got}}) {
        f->attachCounter(counts);
        f->add(a, b);
        f->sub(a, b);
        f->neg(a);
        f->mul(a, b);
        f->sqr(a);
        f->mulSmall(a, 7);
        f->inv(BigUInt(2));
        f->mul(p, b);  // oracle path, still counted once
        f->attachCounter(nullptr);
    }
    EXPECT_EQ(got.add, want.add);
    EXPECT_EQ(got.sub, want.sub);
    EXPECT_EQ(got.mul, want.mul);
    EXPECT_EQ(got.sqr, want.sqr);
    EXPECT_EQ(got.mulSmall, want.mulSmall);
    EXPECT_EQ(got.inv, want.inv);
    EXPECT_EQ(want.mul, 2u);
}

INSTANTIATE_TEST_SUITE_P(ServiceModuli, MontFieldDiff,
                         ::testing::ValuesIn(kModuli),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(MontField, RejectsTooWideModulus)
{
    BigUInt p = BigUInt::powerOfTwo(192) + BigUInt(1);
    EXPECT_DEATH(MontField<3> f(p), "does not fit");
}

TEST(MontField, Secp160r1SignAndVerifyMatchOracleOpForOp)
{
    // The fields behind perfbench's field.mul_per_sign/_per_verify:
    // the worker field must run the identical op sequence.
    const CurveGenerator &gen = secp160r1Generator();
    const WeierstrassCurve &ref = secp160r1Curve();
    Secp160r1Field oracleField;
    MontField<3> montField(oracleField.modulus());
    WeierstrassCurve oracleCurve(oracleField, ref.coeffA(), ref.coeffB(),
                                 "secp160r1");
    WeierstrassCurve montCurve(montField, ref.coeffA(), ref.coeffB(),
                               "secp160r1");
    Ecdsa oracle(oracleCurve, gen.g, gen.order);
    Ecdsa mont(montCurve, gen.g, gen.order);

    Rng rng(160);
    for (int i = 0; i < 4; i++) {
        BigUInt d = BigUInt(1) + BigUInt::random(rng, gen.order - BigUInt(1));
        BigUInt k = BigUInt(1) + BigUInt::random(rng, gen.order - BigUInt(1));
        std::string msg = "message " + std::to_string(i);
        AffinePoint q = oracle.mulG(d);

        FieldOpCounts want, got;
        oracleField.attachCounter(&want);
        montField.attachCounter(&got);
        auto wantSig = oracle.signWithNonce(msg, d, k);
        auto gotSig = mont.signWithNonce(msg, d, k);
        ASSERT_TRUE(wantSig && gotSig);
        EXPECT_EQ(gotSig->r, wantSig->r);
        EXPECT_EQ(gotSig->s, wantSig->s);
        EXPECT_TRUE(oracle.verify(msg, *wantSig, q));
        EXPECT_TRUE(mont.verify(msg, *gotSig, q));
        EXPECT_FALSE(mont.verify(msg + "!", *gotSig, q));
        EXPECT_FALSE(oracle.verify(msg + "!", *wantSig, q));
        oracleField.attachCounter(nullptr);
        montField.attachCounter(nullptr);

        EXPECT_GT(want.mul + want.sqr, 0u);
        EXPECT_EQ(got.mul, want.mul);
        EXPECT_EQ(got.sqr, want.sqr);
        EXPECT_EQ(got.add, want.add);
        EXPECT_EQ(got.sub, want.sub);
        EXPECT_EQ(got.mulSmall, want.mulSmall);
        EXPECT_EQ(got.inv, want.inv);
    }
}
