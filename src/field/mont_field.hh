/**
 * @file
 * Fixed-width Montgomery field: the host analogue of the paper's FIPS
 * Montgomery multiplication on fixed-width limbs (Section II-B).
 *
 * MontField<N> keeps the modulus in N 64-bit limbs and runs every
 * counted field operation through one generic CIOS Montgomery kernel
 * (Koc-Acar-Kaliski) on unsigned __int128 partial products. Elements
 * stay normal-form BigUInt values at the interface, so it drops in
 * wherever a PrimeField is used: curves, comb tables, invBatch and
 * Ecdsa compute bit-identical results on either. A product is
 * montMul(montMul(a, b), R^2 mod p); inv is Fermat's a^(p-2) with a
 * fixed 4-bit window, inside the Montgomery domain.
 *
 * Operands >= p (which PrimeField accepts) take PrimeField's own path,
 * so answers, op counts and panics match the BigUInt oracle exactly.
 * The modulus must be an odd prime below 2^(64 N) (Fermat inversion
 * needs primality). Instantiated for N = 3, which covers every
 * 160-bit prime and the 161-bit secp160r1 order the service uses.
 */

#ifndef JAAVR_FIELD_MONT_FIELD_HH
#define JAAVR_FIELD_MONT_FIELD_HH

#include <array>
#include <cstdint>

#include "field/prime_field.hh"

namespace jaavr
{

template <size_t N>
class MontField : public PrimeField
{
  public:
    using Limbs = std::array<uint64_t, N>;

    /** @param p odd prime modulus below 2^(64 N). */
    explicit MontField(const BigUInt &p);

    BigUInt add(const BigUInt &a, const BigUInt &b) const override;
    BigUInt sub(const BigUInt &a, const BigUInt &b) const override;
    BigUInt neg(const BigUInt &a) const override;
    BigUInt mul(const BigUInt &a, const BigUInt &b) const override;
    BigUInt sqr(const BigUInt &a) const override;
    BigUInt mulSmall(const BigUInt &a, uint32_t c) const override;
    BigUInt inv(const BigUInt &a) const override;

  private:
    static Limbs toLimbs(const BigUInt &a);

    /** a * b * R^-1 mod p for a, b < p, R = 2^(64 N). */
    Limbs montMul(const Limbs &a, const Limbs &b) const;

    /** a * b mod p for a, b < p. */
    Limbs mulNormal(const Limbs &a, const Limbs &b) const
    {
        return montMul(montMul(a, b), r2);
    }

    Limbs mod{};      ///< p
    uint64_t n0 = 0;  ///< -p^-1 mod 2^64
    Limbs r2{};       ///< R^2 mod p
    Limbs montOne{};  ///< R mod p
    /** p - 2 in 4-bit digits, most significant (nonzero) first. */
    std::array<uint8_t, 16 * N> expDigits{};
    size_t numExpDigits = 0;
};

extern template class MontField<3>;

} // namespace jaavr

#endif // JAAVR_FIELD_MONT_FIELD_HH
