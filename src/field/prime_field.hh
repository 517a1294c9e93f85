/**
 * @file
 * Generic prime-field arithmetic context (the host "golden model").
 *
 * Elements are BigUInt values kept in the least non-negative residue
 * range [0, p). The counted operations (add, sub, neg, mul, sqr,
 * mulSmall, inv) are virtual: MontField<N> (mont_field.hh) overrides
 * them with a fixed-width Montgomery kernel and is what the service
 * workers compute on, while this class stays the BigUInt oracle.
 * Subclasses that only want a faster reduction override
 * reduceProduct() (pseudo-Mersenne for secp160r1/k1). The OPF
 * word-level model in opf_field.hh mirrors the AVR implementation and
 * is cross-checked against this class.
 */

#ifndef JAAVR_FIELD_PRIME_FIELD_HH
#define JAAVR_FIELD_PRIME_FIELD_HH

#include <optional>

#include "bigint/big_int.hh"
#include "bigint/big_uint.hh"
#include "field/op_counts.hh"
#include "support/random.hh"

namespace jaavr
{

class PrimeField
{
  public:
    /** @param p odd prime modulus (primality is the caller's duty). */
    explicit PrimeField(const BigUInt &p);
    virtual ~PrimeField() = default;

    const BigUInt &modulus() const { return p; }
    unsigned bits() const { return pBits; }

    virtual BigUInt add(const BigUInt &a, const BigUInt &b) const;
    virtual BigUInt sub(const BigUInt &a, const BigUInt &b) const;
    virtual BigUInt neg(const BigUInt &a) const;
    virtual BigUInt mul(const BigUInt &a, const BigUInt &b) const;
    virtual BigUInt sqr(const BigUInt &a) const;

    /**
     * Multiplication by a small constant (at most 16 bits). Counted
     * separately: the paper measures it at 0.25-0.3 of a full field
     * multiplication (Section II-B).
     */
    virtual BigUInt mulSmall(const BigUInt &a, uint32_t c) const;

    /** Multiplicative inverse (extended Euclid); panics on zero. */
    virtual BigUInt inv(const BigUInt &a) const;

    /** a^e mod p. Not op-counted (used only in setup paths). */
    BigUInt exp(const BigUInt &a, const BigUInt &e) const;

    /** Legendre symbol test. */
    bool isSquare(const BigUInt &a) const;

    /** Square root if it exists. */
    std::optional<BigUInt> sqrt(const BigUInt &a, Rng &rng) const;

    /** Reduce an arbitrary BigUInt into [0, p). */
    BigUInt reduce(const BigUInt &a) const { return a % p; }

    /** Reduce a signed value into [0, p). */
    BigUInt reduceSigned(const BigInt &a) const { return a.mod(p); }

    BigUInt fromUint(uint64_t v) const { return reduce(BigUInt(v)); }
    BigUInt fromHex(const std::string &h) const
    {
        return reduce(BigUInt::fromHex(h));
    }
    BigUInt random(Rng &rng) const { return BigUInt::random(rng, p); }

    /**
     * Attach an operation counter; all subsequent counted operations
     * increment it. Pass nullptr to detach.
     *
     * Thread-safety: the attachment is per-instance mutable state —
     * a field shared across threads with a counter attached would
     * race on the increments. The service layer therefore gives each
     * worker context its own PrimeField instance (they are cheap
     * value objects; see DESIGN.md §14) and never attaches a counter
     * to a shared field.
     */
    void attachCounter(FieldOpCounts *c) const { counter = c; }
    FieldOpCounts *attachedCounter() const { return counter; }

  protected:
    /** Reduce a product (< p^2) into [0, p); overridable per prime. */
    virtual BigUInt reduceProduct(const BigUInt &t) const;

    BigUInt p;
    unsigned pBits;
    mutable FieldOpCounts *counter = nullptr;
};

} // namespace jaavr

#endif // JAAVR_FIELD_PRIME_FIELD_HH
