#include "model/field_costs.hh"

#include <functional>
#include <map>
#include <mutex>
#include <tuple>

#include "avrgen/opf_harness.hh"
#include "field/secp160.hh"
#include "support/random.hh"

namespace jaavr
{

namespace
{

/**
 * Measure a routine set on the ISS: add, sub and mul once on an
 * operand pair of random full-width words, inv as the mean of five
 * runs on uniform nonzero residues mod @p p (the Kaliski loop is
 * data-dependent). Operands come from Rng(@p seed).
 */
FieldCycleCosts
measure(FieldAvrLibrary &lib, const BigUInt &p, uint64_t seed)
{
    const size_t s = lib.words();
    Rng rng(seed);
    auto a = BigUInt::randomBits(rng, unsigned(32 * s)).toWords(s);
    auto b = BigUInt::randomBits(rng, unsigned(32 * s)).toWords(s);

    FieldCycleCosts c;
    c.add = lib.add(a, b).cycles;
    c.sub = lib.sub(a, b).cycles;
    c.mul = lib.mul(a, b).cycles;
    c.sqr = c.mul;
    c.mulSmall = c.mul * 28 / 100;
    const int inv_samples = 5;
    uint64_t inv_total = 0;
    for (int i = 0; i < inv_samples; i++) {
        BigUInt x = BigUInt(1) + BigUInt::random(rng, p - BigUInt(1));
        inv_total += lib.inv(x.toWords(s)).cycles;
    }
    c.inv = inv_total / inv_samples;
    return c;
}

// The memo cache below is the only function-local mutable static in
// the library (global-state audit, DESIGN.md §14); the mutex makes it
// safe for concurrent callers. std::map never invalidates element
// references, so returning `const FieldCycleCosts &` into the cache
// stays valid after unlock. secp160r1 is keyed as u = 0.
using Key = std::tuple<uint32_t, unsigned, CpuMode>;

const FieldCycleCosts &
cached(const Key &key, const std::function<FieldCycleCosts()> &measureSet)
{
    static std::mutex cache_mutex;
    static std::map<Key, FieldCycleCosts> cache;
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    FieldCycleCosts c = measureSet();
    std::lock_guard<std::mutex> lock(cache_mutex);
    return cache.emplace(key, c).first->second;
}

} // anonymous namespace

const FieldCycleCosts &
opfFieldCosts(const OpfPrime &prime, CpuMode mode)
{
    return cached({prime.u, prime.k, mode}, [&] {
        OpfAvrLibrary lib(prime, mode);
        return measure(lib, prime.p, 0xc057);
    });
}

const FieldCycleCosts &
secp160r1FieldCosts(CpuMode mode)
{
    return cached({0, 160, mode}, [&] {
        Secp160AvrLibrary lib(mode);
        return measure(lib, Secp160r1Field::primeValue(), 0x5ec0);
    });
}

} // namespace jaavr
