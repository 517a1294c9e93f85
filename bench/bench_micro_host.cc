/**
 * @file
 * google-benchmark microbenchmarks of the host-side library layers:
 * bigint primitives, OPF word-level arithmetic, curve group
 * operations, full scalar multiplications, and the raw simulation
 * rate of the AVR ISS. These measure the reproduction itself (host
 * performance), not the paper's cycle counts.
 */

#include <benchmark/benchmark.h>

#include "avrgen/opf_harness.hh"
#include "curves/standard_curves.hh"
#include "field/mont_field.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

void
BM_BigUIntMul(benchmark::State &state)
{
    Rng rng(1);
    BigUInt a = BigUInt::randomBits(rng, 160);
    BigUInt b = BigUInt::randomBits(rng, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigUIntMul);

void
BM_BigUIntDivMod(benchmark::State &state)
{
    Rng rng(2);
    BigUInt n = BigUInt::randomBits(rng, 320);
    BigUInt d = BigUInt::randomBits(rng, 160);
    BigUInt q, r;
    for (auto _ : state) {
        BigUInt::divMod(n, d, q, r);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BigUIntDivMod);

void
BM_OpfMontMul(benchmark::State &state)
{
    OpfField f(paperOpfPrime());
    Rng rng(3);
    auto a = f.fromBig(BigUInt::randomBits(rng, 160));
    auto b = f.fromBig(BigUInt::randomBits(rng, 160));
    for (auto _ : state)
        benchmark::DoNotOptimize(f.montMul(a, b));
}
BENCHMARK(BM_OpfMontMul);

/**
 * Host field ops over {BigUInt PrimeField oracle, MontField<3>} x
 * {secp160r1, paper OPF}: Arg(0) picks the field, as labelled.
 */
struct FieldCase
{
    const char *label;
    const PrimeField &field;
};

FieldCase
fieldCase(int64_t arg)
{
    static const MontField<3> montR1(secp160r1Field().modulus());
    static const MontField<3> montOpf(paperOpfField().modulus());
    switch (arg) {
      case 0:
        return {"biguint/secp160r1", secp160r1Field()};
      case 1:
        return {"biguint/opf", paperOpfField()};
      case 2:
        return {"mont3/secp160r1", montR1};
      default:
        return {"mont3/opf", montOpf};
    }
}

template <class Op>
void
fieldBench(benchmark::State &state, Op op)
{
    FieldCase fc = fieldCase(state.range(0));
    Rng rng(4);
    BigUInt a = fc.field.random(rng), b = fc.field.random(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(op(fc.field, a, b));
    state.SetLabel(fc.label);
}

void
BM_FieldMul(benchmark::State &state)
{
    fieldBench(state, [](const PrimeField &f, const BigUInt &a,
                         const BigUInt &b) { return f.mul(a, b); });
}
BENCHMARK(BM_FieldMul)->DenseRange(0, 3);

void
BM_FieldSqr(benchmark::State &state)
{
    fieldBench(state, [](const PrimeField &f, const BigUInt &a,
                         const BigUInt &) { return f.sqr(a); });
}
BENCHMARK(BM_FieldSqr)->DenseRange(0, 3);

void
BM_FieldInv(benchmark::State &state)
{
    fieldBench(state, [](const PrimeField &f, const BigUInt &a,
                         const BigUInt &) { return f.inv(a); });
}
BENCHMARK(BM_FieldInv)->DenseRange(0, 3);

void
BM_JacobianDouble(benchmark::State &state)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    Rng rng(5);
    JacobianPoint p = c.toJacobian(c.randomPoint(rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(c.dbl(p));
}
BENCHMARK(BM_JacobianDouble);

void
BM_ScalarMult(benchmark::State &state)
{
    // Arg selects the configuration.
    Rng rng(6);
    BigUInt k = BigUInt::randomBits(rng, 160);
    switch (state.range(0)) {
      case 0: {
        const WeierstrassCurve &c = secp160r1Curve();
        AffinePoint g = secp160r1Generator().g;
        for (auto _ : state)
            benchmark::DoNotOptimize(c.mulNaf(k, g));
        break;
      }
      case 1: {
        const MontgomeryCurve &c = montgomeryOpfCurve();
        BigUInt x = montgomeryOpfBasePoint().x;
        for (auto _ : state)
            benchmark::DoNotOptimize(c.ladder(k, x));
        break;
      }
      case 2: {
        const GlvCurve &c = glvOpfCurve();
        AffinePoint g = c.generator();
        for (auto _ : state)
            benchmark::DoNotOptimize(c.mulGlvJsf(k, g));
        break;
      }
    }
}
BENCHMARK(BM_ScalarMult)->Arg(0)->Arg(1)->Arg(2);

void
BM_IssSimulationRate(benchmark::State &state)
{
    // Instructions per second of the ISS on the native OPF mul.
    OpfField f(paperOpfPrime());
    OpfAvrLibrary lib(paperOpfPrime(), CpuMode::CA);
    Rng rng(7);
    auto a = f.fromBig(BigUInt::randomBits(rng, 160));
    auto b = f.fromBig(BigUInt::randomBits(rng, 160));
    uint64_t instructions = 0;
    for (auto _ : state) {
        uint64_t before = lib.machine().stats().instructions;
        benchmark::DoNotOptimize(lib.mul(a, b));
        instructions += lib.machine().stats().instructions - before;
    }
    state.counters["insns/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssSimulationRate);

} // anonymous namespace

BENCHMARK_MAIN();
