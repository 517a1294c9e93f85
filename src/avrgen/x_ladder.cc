#include "avrgen/x_ladder.hh"

namespace jaavr
{

XLadderState
xLadderStart(const OpfField &fm, const OpfField::Words &x1m)
{
    OpfField::Words one = fm.toMont(BigUInt(1));
    return {one, OpfField::Words(fm.words(), 0), x1m, one};
}

IssLadderX
issLadderX(OpfAvrLibrary &lib, const OpfField::Words &a24m,
           const OpfField::Words &x1m, XLadderState start,
           const BigUInt &k, unsigned nbits)
{
    const OpfField &fm = lib.field();
    IssLadderOps ops{lib, {}};
    xLadder(ops, start, x1m, a24m, k, nbits, [](unsigned) {});
    IssLadderX out;
    BigUInt zc = fm.canonical(start.z2);
    out.infinity = ops.ok() && zc.isZero();
    if (ops.ok() && !out.infinity) {
        // inv(Z R) = Z^-1; montMul(X R, Z^-1) = X/Z in plain domain.
        OpfField::Words zinv = ops.keep(lib.inv(fm.fromBig(zc)));
        OpfField::Words x;
        if (ops.ok())
            x = ops.mul(start.x2, zinv);
        if (ops.ok())
            out.x = fm.canonical(x);
    }
    out.trap = ops.trap;
    return out;
}

} // namespace jaavr
