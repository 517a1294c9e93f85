/**
 * @file
 * The x-only Montgomery ladder over Montgomery-domain OPF words,
 * written once: the RFC 7748-shaped step (10 mul, 8 add/sub) and its
 * conditional-swap bookkeeping (host-side data movement: register
 * renaming on a real implementation), for any backend with add, sub
 * and mul — the generated assembly on the ISS harness (IssLadderOps)
 * or the host OpfField model it is validated against word for word
 * (HostLadderOps). The start state is the caller's: xLadderStart() is
 * the plain (1 : 0), (x1 : 1); Coron's randomized projective
 * coordinates scale both points and cancel in the final X/Z.
 */

#ifndef JAAVR_AVRGEN_X_LADDER_HH
#define JAAVR_AVRGEN_X_LADDER_HH

#include <utility>

#include "avrgen/opf_harness.hh"

namespace jaavr
{

/** R0 = (x2 : z2), R1 = (x3 : z3), exchanged while swap is set. */
struct XLadderState
{
    OpfField::Words x2, z2, x3, z3;
    unsigned swap = 0;
};

/** The unblinded start (1 : 0), (x1 : 1), Montgomery domain. */
XLadderState xLadderStart(const OpfField &fm, const OpfField::Words &x1m);

/**
 * One step for scalar bit @p bit: the conditional swap, then
 * R0 <- 2 R0 and R1 <- R0 + R1 given the difference's x @p x1m;
 * @p a24m is (A + 2) / 4.
 */
template <typename Ops>
void
xLadderStep(Ops &ops, XLadderState &s, const OpfField::Words &x1m,
            const OpfField::Words &a24m, unsigned bit)
{
    using W = OpfField::Words;
    s.swap ^= bit;
    if (s.swap) {
        std::swap(s.x2, s.x3);
        std::swap(s.z2, s.z3);
    }
    s.swap = bit;

    W a = ops.add(s.x2, s.z2);
    W aa = ops.mul(a, a);
    W b = ops.sub(s.x2, s.z2);
    W bb = ops.mul(b, b);
    W e = ops.sub(aa, bb);
    W c = ops.add(s.x3, s.z3);
    W d = ops.sub(s.x3, s.z3);
    W da = ops.mul(d, a);
    W cb = ops.mul(c, b);
    W t0 = ops.add(da, cb);
    s.x3 = ops.mul(t0, t0);
    W t1 = ops.sub(da, cb);
    W t2 = ops.mul(t1, t1);
    s.z3 = ops.mul(x1m, t2);
    s.x2 = ops.mul(aa, bb);
    W t3 = ops.mul(a24m, e);
    W t4 = ops.add(bb, t3);
    s.z2 = ops.mul(e, t4);
}

/**
 * Steps for bits @p nbits - 1 .. 0 of @p k, @p beforeStep(j) ahead of
 * step j, then the final swap: (x2 : z2) = k R0. Stops at a step
 * boundary once ops.ok() is false.
 */
template <typename Ops, typename BeforeStep>
void
xLadder(Ops &ops, XLadderState &s, const OpfField::Words &x1m,
        const OpfField::Words &a24m, const BigUInt &k, unsigned nbits,
        BeforeStep beforeStep)
{
    for (unsigned j = 0; j < nbits && ops.ok(); j++) {
        beforeStep(j);
        xLadderStep(ops, s, x1m, a24m, k.bit(nbits - 1 - j) ? 1 : 0);
    }
    if (s.swap) {
        std::swap(s.x2, s.x3);
        std::swap(s.z2, s.z3);
        s.swap = 0;
    }
}

/** The field operations on the ISS harness; keeps the first trap. */
struct IssLadderOps
{
    using W = OpfField::Words;
    OpfAvrLibrary &lib;
    Trap trap;

    bool ok() const { return !trap; }
    W add(const W &a, const W &b) { return keep(lib.add(a, b)); }
    W sub(const W &a, const W &b) { return keep(lib.sub(a, b)); }
    W mul(const W &a, const W &b) { return keep(lib.mul(a, b)); }

    W
    keep(OpfRun r)
    {
        if (r.trap && !trap)
            trap = r.trap;
        return std::move(r.result);
    }
};

/** The same operations on the host OpfField model. */
struct HostLadderOps
{
    using W = OpfField::Words;
    const OpfField &fm;

    bool ok() const { return true; }
    W add(const W &a, const W &b) const { return fm.add(a, b); }
    W sub(const W &a, const W &b) const { return fm.sub(a, b); }
    W mul(const W &a, const W &b) const { return fm.montMul(a, b); }
};

/** A whole ladder on the ISS, reduced to the affine x. */
struct IssLadderX
{
    Trap trap;             ///< first trap raised by any field routine
    bool infinity = false; ///< k R0 is the point at infinity
    BigUInt x;             ///< canonical affine x when finite and clean
};

/** k P from @p start, the inversion and X * Z^-1 included, on @p lib. */
IssLadderX issLadderX(OpfAvrLibrary &lib, const OpfField::Words &a24m,
                      const OpfField::Words &x1m, XLadderState start,
                      const BigUInt &k, unsigned nbits);

} // namespace jaavr

#endif // JAAVR_AVRGEN_X_LADDER_HH
