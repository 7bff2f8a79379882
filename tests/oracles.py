"""Literal routes kept only as test oracles: the subset helpers ``mask_of``
and ``submasks``, the cycle matroid by a union-find over every edge subset of
the forest size (``graphic_by_union_find``), the rank table by every single
deletion and the rank as max |S & B| over the bases, the girth by a scan of
every subset (``girth_by_scan``), the least witness against the local rank
axiom by trying every X, e and f (``exchange_witness``), long division over Fraction,
the Taylor recurrence over Fraction (``taylor_prefix_by_fractions``), the mask
view of the up-set index (``strict_supersets``) and the flag walk over it, the
restriction key of a flat by every (rk F)-subset of F
(``restriction_key_by_combinations``), the contraction at a set and the degeneration
along a flag, lower intervals by containment (``lower_interval``), the
lower-interval fold one comparable pair at a time, keyed by mask
(``flat_table_per_pair``), the characteristic polynomial of a minor by a
loop over the signed subset expansion (``chi_by_subsets``, and ``chi`` for
the whole matroid), the covers of a flat by closing every one-element
extension (``covers_by_closure``), the two-flats identity and the Stirling
lemma checked term by term, the k-derivative lemma with each canonical value
differentiated to every order (``k_derivative_lemma_per_value``), the
re-evaluation of a failure witness (``witness_reverifies``), and the
connected components by every circuit of the rank table
(``components_by_circuits``)."""

import itertools
from fractions import Fraction

from matzeta.algebra import RationalFunction, _iadd, _itrim
from matzeta import checks
from matzeta.checks import FAILS, HOLDS, K_DERIVATIVE_CHECK, SKIPPED, CheckReport, _Bundle, _fails
from matzeta.combinat import stirling_first, stirling_second_rows
from matzeta.lattice import lattice_of, minor_reduced_chi
from matzeta.matroid import Matroid, _compress, iter_bits, uniform
from matzeta.zeta import (
    _F_ONE,
    _factored_to_rf,
    _norm_factor,
    _reduce,
    _sum,
    _y_sum,
)


def mask_of(elements):
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def submasks(mask):
    """All subsets of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _union_count(edges):
    """Edges that join two different components when added in turn: the
    endpoints minus the component count of the edge set, and len(edges)
    exactly for a forest."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unions = 0
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            unions += 1
    return unions


def graphic_by_union_find(edges):
    """The cycle matroid with a union-find run on every edge subset of the
    forest size: the subsets it finds to be forests are the bases."""
    forest_size = _union_count(edges)
    bases = [
        mask_of(combo)
        for combo in itertools.combinations(range(len(edges)), forest_size)
        if _union_count([edges[i] for i in combo]) == forest_size
    ]
    return Matroid(len(edges), bases, validate=False)


def ranks_by_all_deletions(size, bases):
    """The rank table of a family of equal-size sets: |S| on the subsets of
    its sets, else the max over every single deletion of S."""
    independent = {s for b in bases for s in submasks(b)}
    table = []
    for m in range(1 << size):
        if m in independent:
            table.append(m.bit_count())
        else:
            table.append(max(table[m ^ (1 << e)] for e in iter_bits(m)))
    return table


def rank_by_bases(bases, s):
    """rk S = max |S & B| over the bases B."""
    return max((s & b).bit_count() for b in bases)


def components_by_circuits(m):
    """The connected components as masks, ordered by least element: e and f
    share one iff some circuit holds both, the circuits taken as the minimal
    dependent sets of the rank table."""
    ranks = m._ranks
    circuits = [
        s for s in range(1 << m.size)
        if ranks[s] < s.bit_count()
        and all(ranks[s & ~(1 << e)] == s.bit_count() - 1 for e in iter_bits(s))
    ]
    out = []
    for e in range(m.size):
        part = 1 << e
        for c in circuits:
            if c >> e & 1:
                part |= c
        if part not in out:
            out.append(part)
    return out


def girth_by_scan(m):
    """Size of the smallest dependent nonempty set, one rank lookup per subset
    of ``ranks_by_all_deletions``; |E| + 1 when there is none."""
    ranks = ranks_by_all_deletions(m.size, m.bases)
    best = m.size + 1
    for s in range(1, 1 << m.size):
        c = s.bit_count()
        if ranks[s] < c < best:
            best = c
    return best


def exchange_witness(size, bases):
    """The least (X, e, f) against the local rank axiom: X keeps its rank with
    e and with f but not with both, least X, then least e, then least f; None
    when the axiom holds.  The ranks are ``ranks_by_all_deletions``."""
    ranks = ranks_by_all_deletions(size, bases)
    for x in range(1 << size):
        r = ranks[x]
        keeps = [e for e in range(size) if not x >> e & 1 and ranks[x | 1 << e] == r]
        for e in keeps:
            for f in keeps:
                if f != e and ranks[x | 1 << e | 1 << f] != r:
                    return x, e, f
    return None


def poly_divmod(p, d):
    """(quotient, remainder) of p by d, ascending coefficient lists with no
    trailing zeros, by long division over Q; d has a nonzero lead."""
    rem = [Fraction(c) for c in p]
    dd = len(d) - 1
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        q = quo[i - dd] = rem[i] / d[-1]
        for j, c in enumerate(d):
            rem[i - dd + j] -= q * c
    return _itrim(quo), _itrim(rem)


def taylor_prefix_by_fractions(f, k):
    """The first k+1 expansion coefficients of f around 0 by the denominator's
    recurrence over Fraction, one reduced Fraction per coefficient and step."""
    num, den = f.num, f.den
    out = []
    for i in range(k + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(Fraction(acc, den[0]))
    return tuple(out)


def strict_supersets(lat, f):
    """The flats strictly containing the flat f, as masks in (rank, mask)
    order: the up-set index, which is kept by position, read by mask."""
    flats = lat.flats
    return tuple(flats[j] for j in lat._supersets[flats.index(f)])


def flags(lat):
    """Every chain of flats 0 = F_0 < ... < F_k = E, as a tuple of masks."""
    open_chains, out = [(0,)], []
    while open_chains:
        chain = open_chains.pop()
        if chain[-1] == lat.top:
            out.append(chain)
        else:
            open_chains += [chain + (g,) for g in strict_supersets(lat, chain[-1])]
    return out


def restriction_key_by_combinations(ranks, f):
    """The exact key of the restriction to the flat f in its long form: |f|,
    rk f and the positions of its bases among the (rk f)-subsets of f, in
    ``itertools.combinations`` order, enumerated for every flat."""
    r = ranks[f]
    elems = [1 << e for e in iter_bits(f)]
    combos = itertools.combinations(elems, r)
    return (len(elems), r, tuple(i for i, c in enumerate(combos) if ranks[sum(c)] == r))


def contraction(m, f):
    """The matroid on E - f with rank S -> rk(S | f) - rk(f)."""
    m._check_subset(f)
    rest = m.full_mask & ~f
    ranks = m._ranks
    target = m.rank - ranks[f]
    bases = [
        _compress(s, rest)
        for s in submasks(rest)
        if s.bit_count() == target and ranks[s | f] == m.rank
    ]
    return Matroid(rest.bit_count(), bases, validate=False)


def degeneration(m, flag):
    """Direct sum of the step minors restriction(F_i) / F_{i-1} along a flag."""
    out = uniform(0, 0)
    for low, high in zip(flag, flag[1:]):
        out = out.direct_sum(contraction(m.restriction(high), _compress(low, high)))
    return out


def lower_interval(lat, f):
    """The flats strictly inside the flat f, as masks, by a containment test
    on every flat: not ``lat.strict_subsets``, which the oracles check."""
    return [g for g in lat.flats if g != f and not g & ~f]


def flat_table_per_pair(lat, row, term):
    """The lower-interval fold with one term per comparable pair, keyed by
    mask: T[0] = 1 and
    T[F] = sum over flats G < F of term(num_G, x_G, F) / (scale_G * prod fct_G),
    divided by (|F| s + rk F), where T[G] = (num_G, scale_G, fct_G) and x_G is
    G's entry in row(F, below), a sequence parallel to
    below = lower_interval(lat, F)."""
    tbl = {0: _F_ONE}
    for f in lat.flats[1:]:
        below = lower_interval(lat, f)
        terms = []
        for g, x in zip(below, row(f, below)):
            num, scale, fct = tbl[g]
            terms.append(((term(num, x, f), scale, fct), [1]))  # one object per term
        total = _sum(terms)
        c, pair = _norm_factor(f.bit_count(), lat.matroid.rank_of(f))
        tbl[f] = _reduce(total[0], total[1] * c, tuple(sorted(total[2] + (pair,))))
    return tbl


def free_extension_by_near_bases(m):
    """The free extension by its definition, the new element last: the bases
    of M, and the new element joined to every independent (r - 1)-set, each
    a basis less one element."""
    e = 1 << m.size
    near = {b & ~(1 << x) for b in m.bases for x in iter_bits(b)}
    return Matroid(m.size + 1, list(m.bases) + [b | e for b in near], validate=False)


def chi_by_subsets(m, low, high):
    """Integer coefficients of the characteristic polynomial of
    restriction(high) contracted at low (low <= high): the signed subset
    expansion, one rank lookup per subset T with low <= T <= high."""
    ranks = m._ranks
    r_high = ranks[high]
    coeffs = [0] * (r_high - ranks[low] + 1)
    sub = high & ~low
    for s in submasks(sub):
        coeffs[r_high - ranks[s | low]] += -1 if s.bit_count() & 1 else 1
    return tuple(_itrim(coeffs))


def chi(m):
    """Characteristic polynomial by the signed subset expansion, as ascending
    integer coefficients; with loops the expansion cancels to ()."""
    return chi_by_subsets(m, 0, m.full_mask)


def covers_by_closure(m, f):
    """The covers of the flat f: the distinct closures of f + e over every
    element e outside f, each closed over the whole ground set."""
    return {m.closure_of(f | 1 << e) for e in iter_bits(m.full_mask & ~f)}


def verify_two_flats_identity(m):
    """For every nested flat pair F1 <= F2, check that the q-analogue of the
    rank gap equals the sum of reduced characteristic polynomials of the
    minors restriction(F2) / F over flats F1 <= F < F2."""
    lat = lattice_of(m)
    memo = {}
    for f2 in lat.flats:
        below = lower_interval(lat, f2)
        for f1 in below + [f2]:
            rhs = []
            for f in below:
                if f1 & ~f == 0:
                    term = memo.get((f, f2))
                    if term is None:
                        term = memo[(f, f2)] = minor_reduced_chi(m, f, f2)
                    rhs = _iadd(rhs, term)
            if rhs != [1] * (lat.matroid.rank_of(f2) - lat.matroid.rank_of(f1)):
                return False
    return True


def verify_stirling_lemma(k):
    """Check j * sum_i c(k,i)S(i,j) = k * sum_i c(k-1,i-1)S(i,j) for 1 <= j <= k."""
    if k < 1:
        raise ValueError("k must be positive")
    first = [stirling_first(k, i) for i in range(k + 1)]
    first_prev = [stirling_first(k - 1, i) for i in range(k)]
    second = [[1], *stirling_second_rows(k)]
    for j in range(1, k + 1):
        lhs = j * sum(first[i] * second[i][j] for i in range(j, k + 1))
        rhs = k * sum(first_prev[i - 1] * second[i][j] for i in range(j, k + 1))
        if lhs != rhs:
            return False
    return True


def k_derivative_lemma_per_value(entry, kmax=3, bundle=None):
    """The k-derivative lemma with each side built at every order on canonical
    values: the weights are summed flat by flat, chi-bar_[F, E] read through
    ``checks.minor_reduced_chi`` at call time (so a planted weight reaches
    it) and never through the bundle's class sums; Z is the bundle's
    ``zeta`` and each Z(M|F) the sum of the bundle's Y entries on the flats
    G <= F, found by containment, flat by flat (so a planted Z or Y entry
    reaches it), and Z and
    every distinct Z(M|F) of nonzero summed weight are differentiated k times by
    ``RationalFunction.derivative``, and
    D^k Z = (sum of w D^k Z(M|F) - k n D^(k-1) Z) / (n s + r) is tested order
    by order, for k = 1..kmax."""
    m = entry.matroid
    if m.is_trivial or not m.is_loopless():
        return CheckReport(
            K_DERIVATIVE_CHECK, entry.name, SKIPPED, "needs a loopless nontrivial matroid"
        )
    b = bundle or _Bundle(m)
    lat = b.lattice
    n, r = m.size, m.rank
    weights = {}  # canonical Z(M|F) -> summed weight
    for f in lat.flats[1:-1]:  # the reduced flats
        entries = [e for g, e in zip(lat.flats, b.upsilon_table) if not g & ~f]  # G <= F
        v = _factored_to_rf(_y_sum(entries))
        weights[v] = weights.get(v, 0) + sum(checks.minor_reduced_chi(m, f, lat.top))
    weights = {v: w for v, w in weights.items() if w}
    z = _factored_to_rf(b.zeta)
    derivs = {v: [v] for v in (z, *weights)}
    for k in range(1, kmax + 1):
        for chain in derivs.values():
            chain.append(chain[-1].derivative())
        rhs = sum(
            (w * derivs[v][k] for v, w in weights.items()), start=RationalFunction.zero()
        )
        rhs = (rhs - k * n * derivs[z][k - 1]) / RationalFunction((r, n))
        if derivs[z][k] != rhs:
            return _fails(
                K_DERIVATIVE_CHECK, entry, f"order {k} mismatch",
                k=k, lhs=derivs[z][k].to_json(), rhs=rhs.to_json(),
            )
    return CheckReport(K_DERIVATIVE_CHECK, entry.name, HOLDS)


def witness_reverifies(report):
    """Re-evaluate both recorded sides of a failing report: they must still differ."""
    if report.status != FAILS or not report.witness:
        return False
    w = report.witness
    if "lhs" not in w or "rhs" not in w:
        return False
    return _parse_side(w["lhs"]) != _parse_side(w["rhs"])


def _parse_side(x):
    if isinstance(x, dict):
        return RationalFunction.from_json(x)
    if isinstance(x, list):
        return tuple(Fraction(s) for s in x)
    return Fraction(x)

