"""Literal routes kept only as test oracles: long division over Fraction,
the flag walk over strict_supersets and the degeneration along a flag."""

from fractions import Fraction

from matzeta.algebra import Polynomial
from matzeta.matroid import _compress, uniform


def poly_divmod(p, d):
    """(quotient, remainder) of p by the nonzero d, by long division over Q."""
    rem = list(p.coefficients)
    dd = d.degree
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        q = quo[i - dd] = rem[i] / d.leading
        for j, c in enumerate(d.coefficients):
            rem[i - dd + j] -= q * c
    return Polynomial(quo), Polynomial(rem)


def flags(lat):
    """Every chain of flats 0 = F_0 < ... < F_k = E, as a tuple of masks."""
    open_chains, out = [(0,)], []
    while open_chains:
        chain = open_chains.pop()
        if chain[-1] == lat.top:
            out.append(chain)
        else:
            open_chains += [chain + (g,) for g in lat.strict_supersets(chain[-1])]
    return out


def degeneration(m, flag):
    """Direct sum of the step minors restriction(F_i) / F_{i-1} along a flag."""
    out = uniform(0, 0)
    for low, high in zip(flag, flag[1:]):
        out = out.direct_sum(m.restriction(high).contraction(_compress(low, high)))
    return out
