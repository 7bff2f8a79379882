import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matzeta.checks as checks
from matzeta.checks import (
    CONJECTURE_CHECK_NAMES,
    FAILS,
    HOLDS,
    SKIPPED,
    THEOREM_CHECK_NAMES,
    K_DERIVATIVE_CHECK,
    CatalogEntry,
    CheckReport,
    build_catalog,
    check_conjecture_truncation,
    check_conjecture_upsilon,
    check_girth_theorem,
    check_k_derivative_lemma,
    check_counting_identities,
    run_all_checks,
    summarize,
)
from matzeta.cli import parse_matroid_spec
from matzeta.lattice import LatticeOfFlats, lattice_of, minor_reduced_chi, reduced_chi_sum
from matzeta.matroid import Matroid, graphic, iter_bits, uniform
from matzeta.algebra import RationalFunction, _div_linear, _imul_linear, _iadd, taylor_prefix
from matzeta.zeta import (
    _upsilon_table,
    _y_sum,
    upsilon_by_flags,
    upsilon_by_recurrence,
    zeta_by_flags,
    zeta_by_recurrence,
    zeta_of_truncation_via_transfer,
)
from oracles import k_derivative_lemma_per_value, rank_size_counts_unbounded, witness_reverifies


def entry_named(catalog, name):
    return next(e for e in catalog if e.name == name)


def test_catalog_contents(catalog4):
    import re

    names = [e.name for e in catalog4]
    uniforms = [n for n in names if re.fullmatch(r"U\(\d+,\d+\)", n)]
    assert len(uniforms) == 10  # U(1,1) .. U(4,4)
    # the triangle's cycle matroid is present as a bases set (named U(2,3))
    triangle = graphic([(0, 1), (1, 2), (0, 2)])
    assert any(e.matroid == triangle for e in catalog4)
    # no duplicates, all loopless
    matroids = [e.matroid for e in catalog4]
    assert len(set(matroids)) == len(matroids)
    assert all(m.is_loopless() for m in matroids)
    assert all(e.matroid.size <= 4 for e in catalog4)


def test_catalog_includes_constructions(catalog5):
    names = {e.name for e in catalog5}
    assert "U(1,2)+U(1,2)" in names
    assert any(name.startswith("tr(") for name in names)
    assert any(name.startswith("ext(") for name in names)
    # uniform truncations/extensions deduplicate into uniform entries
    assert "tr(U(2,3))" not in names
    assert "ext(U(2,3))" not in names


def test_catalog_deterministic(catalog5):
    again = build_catalog(5)
    assert [e.name for e in again] == [e.name for e in catalog5]
    assert [e.matroid for e in again] == [e.matroid for e in catalog5]


def test_catalog_bound_guard():
    with pytest.raises(ValueError):
        build_catalog(17)


def test_girth_check_holds(catalog4):
    for entry in catalog4:
        report = check_girth_theorem(entry)
        assert report.status == HOLDS, entry.name


def test_conjecture_checks_hold(catalog4):
    for entry in catalog4:
        t = check_conjecture_truncation(entry)
        if entry.matroid.rank < 2:
            assert t.status == SKIPPED and "rank" in t.reason
        else:
            assert t.status == HOLDS, entry.name
        u = check_conjecture_upsilon(entry)
        assert u.status == HOLDS, entry.name


def test_k_derivative_check(catalog4):
    for entry in catalog4:
        report = check_k_derivative_lemma(entry)
        assert report.status == HOLDS, entry.name


def test_counting_identities_check(catalog4):
    for entry in catalog4:
        report = check_counting_identities(entry, kmax=4)
        assert report.status == HOLDS, entry.name


def test_counting_power_identity_to_order_five(catalog4):
    for entry in catalog4:
        assert check_counting_identities(entry, kmax=5).status == HOLDS, entry.name


def test_run_all_checks_order_and_determinism(catalog4):
    first = run_all_checks(catalog4, kmax=3)
    second = run_all_checks(catalog4, kmax=3)
    assert first == second
    per_entry = len(THEOREM_CHECK_NAMES) + len(CONJECTURE_CHECK_NAMES)
    assert len(first) == per_entry * len(catalog4)
    assert [r.entry for r in first[:per_entry]] == [catalog4[0].name] * per_entry
    counts = summarize(first)
    assert counts[FAILS] == 0
    assert counts[HOLDS] + counts[SKIPPED] == len(first)


def test_run_all_checks_suite_selection(catalog4):
    theorems = run_all_checks(catalog4, suites=("theorems",))
    assert {r.check for r in theorems} == set(THEOREM_CHECK_NAMES)
    conjectures = run_all_checks(catalog4, suites=("conjectures",))
    assert {r.check for r in conjectures} == set(CONJECTURE_CHECK_NAMES)
    assert run_all_checks([], suites=("theorems", "conjectures")) == []


def test_run_all_checks_parallel_matches_serial():
    catalog = build_catalog(3)
    serial = run_all_checks(catalog)
    try:
        parallel = run_all_checks(catalog, jobs=2)
    except (OSError, PermissionError) as exc:  # no subprocess support here
        pytest.skip(f"process pool unavailable: {exc}")
    assert parallel == serial


@pytest.mark.parametrize("jobs, entries, cpus, workers", [
    (1000, 3, 8, 3),
    (1000, 10, 4, 4),
    (3, 10, 8, 3),
    (1000, 10, None, None),
    (2, 1, 8, None),
    (1, 10, 8, None),
    (1, 10, RuntimeError, None),  # one worker reads no CPU count
])
def test_run_all_checks_bounds_workers(monkeypatch, catalog4, jobs, entries, cpus, workers):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(checks, "ProcessPoolExecutor", InProcessPool)
    def cpu_count():
        if cpus is RuntimeError:
            raise RuntimeError("the CPU count was read")
        return cpus

    monkeypatch.setattr(checks.os, "cpu_count", cpu_count)
    catalog = catalog4[:entries]
    reports = run_all_checks(catalog, jobs=jobs)
    assert pools == ([] if workers is None else [workers])
    assert reports == run_all_checks(catalog)


def test_a_catalog_pass_builds_one_lattice_per_entry_and_truncation(monkeypatch, catalog7):
    """Every check of an entry reads one lattice: the truncation's is read
    off the entry's, so ``lattice_of`` sees the catalog's matroids, once
    each and in order, and no truncation beyond them.  None outlives its
    entry."""
    built, seen = [], []

    def recording(m):
        seen.append(m)
        lat = lattice_of(m)
        built.append(weakref.ref(lat))
        return lat

    monkeypatch.setattr(checks, "lattice_of", recording)
    gc.disable()  # a reference cycle would keep a lattice until a collection
    try:
        run_all_checks(catalog7)
        assert [r() for r in built] == [None] * len(built)
    finally:
        gc.enable()
    assert seen == [e.matroid for e in catalog7]
    assert len(built) == len(catalog7) == 165


def _class_calls(m, lat):
    """One (m, flats of the class, E) per restriction class of reduced flats."""
    classes = (tuple(map(lat.flats.__getitem__, at)) for at, _ in lat.classes[:-1])
    return Counter((m, flats, m.full_mask) for flats in classes)


def _class_ids(lat):
    """The index in ``lat.classes`` of each reduced flat's class, by position."""
    return dict(sorted((i, k) for k, (at, _) in enumerate(lat.classes[:-1]) for i in at))


def _counting_class_sums(monkeypatch):
    """Record each call of ``checks.reduced_chi_sum`` as (m, lows, high)."""
    calls = Counter()

    def counting(m, lows, high):
        calls[m, tuple(lows), high] += 1
        return reduced_chi_sum(m, lows, high)

    monkeypatch.setattr(checks, "reduced_chi_sum", counting)
    return calls


def _per_flat(calls):
    out = Counter()
    for (m, lows, high), n in calls.items():
        for f in lows:
            out[m, f, high] += n
    return out


def test_chibar_is_expanded_once_per_reduced_flat(monkeypatch, catalog5):
    """chi-bar_[F, E] is summed by one ``checks.reduced_chi_sum`` call per
    restriction class, and the calls cover each reduced flat exactly once."""
    calls = _counting_class_sums(monkeypatch)
    reports = run_all_checks(catalog5, suites=("theorems",))
    assert {r.status for r in reports} == {HOLDS}
    assert calls == sum((_class_calls(e.matroid, lattice_of(e.matroid)) for e in catalog5), Counter())
    assert _per_flat(calls) == Counter(
        (e.matroid, f, e.matroid.full_mask)
        for e in catalog5
        for f in lattice_of(e.matroid).flats[1:-1]  # the reduced flats
    )


def test_one_bundle_expands_chibar_once_per_reduced_flat(monkeypatch, catalog5):
    """The k-derivative and counting checks of one bundle read chi-bar_[F, E]
    through ``checks.reduced_chi_sum``, once per restriction class between
    them, which covers each reduced flat once."""
    calls = _counting_class_sums(monkeypatch)
    checked = 0
    for entry in catalog5:
        m = entry.matroid
        if m.is_trivial:
            continue
        bundle = checks._Bundle(m)
        calls.clear()
        assert check_k_derivative_lemma(entry, bundle).status == HOLDS
        assert check_counting_identities(entry, bundle=bundle).status == HOLDS
        assert calls == _class_calls(m, bundle.lattice)
        assert _per_flat(calls) == Counter((m, f, m.full_mask) for f in bundle.lattice.flats[1:-1])
        checked += bool(calls)
    assert checked > 0


def test_a_catalog_pass_scans_each_lower_interval_once_per_class(monkeypatch, catalog7):
    """The Y table and the k-derivative lemma of one bundle share its
    lattice's class list, so the lower interval of each class's first flat,
    the top's included, is scanned once per lattice: 834 scans over a
    catalog7 pass, where the lemma's own scans made 1,378."""
    built, scanned = [], []
    original, strict_subsets = checks.lattice_of, LatticeOfFlats.strict_subsets

    def recording(m):
        built.append(original(m))
        return built[-1]

    def counting(self, i):
        scanned.append(i)
        return strict_subsets(self, i)

    monkeypatch.setattr(checks, "lattice_of", recording)
    monkeypatch.setattr(LatticeOfFlats, "strict_subsets", counting)
    run_all_checks(catalog7)
    monkeypatch.undo()
    assert sorted(scanned) == sorted(at[0] for lat in built for at, _ in lat.classes)
    assert len(scanned) == 834


def test_check_memos_keep_their_benchmark_hooks(catalog4):
    # perfbench/workloads.py:77-78 (_clear_check_memos) clears both memos
    # before every pass and perfbench/run.py:158 (_layer_metrics) reads
    # _zeta.cache_info(), so both stay lru_cache functions of a matroid
    memos = ((checks._zeta, zeta_by_recurrence), (checks._upsilon, upsilon_by_recurrence))
    for memo, _ in memos:
        memo.cache_clear()
    run_all_checks(catalog4)
    for memo, route in memos:
        assert memo.cache_info().currsize == 0  # no check warms them
        assert memo(uniform(2, 3)) == route(uniform(2, 3))
        assert memo.cache_info().currsize == 1


def _perturbing(original, victim, index, delta=Fraction(1)):
    def wrapper(b, k):
        prefix = original(b, k)
        if b.matroid == victim and index < len(prefix):
            coeffs = list(prefix)
            coeffs[index] += delta
            return tuple(coeffs)
        return prefix

    return wrapper


def test_mutation_is_detected_by_truncation_check(monkeypatch, catalog4):
    entry = entry_named(catalog4, "U(2,4)")
    victim = entry.matroid.truncation()
    monkeypatch.setattr(
        checks,
        "zeta_taylor_prefix",
        _perturbing(checks.zeta_taylor_prefix, victim, 1),
    )
    report = check_conjecture_truncation(entry)
    assert report.status == FAILS
    assert report.witness is not None
    assert report.witness["first_divergence"] == 1
    assert witness_reverifies(report)
    # the harness surfaces it end to end
    reports = run_all_checks([entry], suites=("conjectures",))
    assert any(
        r.check == checks.TRUNCATION_CONJECTURE and r.status == FAILS for r in reports
    )


def test_mutation_is_detected_by_upsilon_check(monkeypatch, catalog4):
    entry = entry_named(catalog4, "U(2,3)")
    monkeypatch.setattr(
        checks,
        "upsilon_taylor_prefix",
        _perturbing(checks.upsilon_taylor_prefix, entry.matroid, 2),
    )
    report = check_conjecture_upsilon(entry)
    assert report.status == FAILS
    assert report.witness is not None
    assert witness_reverifies(report)


def _skew_constant(chibar, by=1):
    return (chibar[0] + by,) + chibar[1:]


def _skew_every_flat(m, lows, high):
    # each flat's chi-bar_[F, E] + 1, summed over the class
    return _skew_constant(reduced_chi_sum(m, lows, high), len(lows))


def _skew_first_class(victim):
    # the first class of each matroid read + 1, as one flat's chi-bar + 1
    def skewed(m, lows, high):
        chibar = reduced_chi_sum(m, lows, high)
        return _skew_constant(chibar) if victim.setdefault(m, lows[0]) == lows[0] else chibar

    return skewed


def test_mutated_flat_sum_yields_parseable_witness(monkeypatch, catalog4):
    monkeypatch.setattr(checks, "reduced_chi_sum", _skew_every_flat)
    entry = entry_named(catalog4, "U(2,3)")
    report = check_counting_identities(entry)
    assert report.status == FAILS
    assert isinstance(report.witness["lhs"], list)
    assert witness_reverifies(report)


@pytest.mark.parametrize("entry", [
    CatalogEntry("U(2,3)", uniform(2, 3), "uniform(2,3)"),
    CatalogEntry(
        "K4",
        graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),
        "graphic(K4)",
    ),
], ids=lambda e: e.name)
def test_mutated_weight_fails_k_derivative_check(monkeypatch, entry):
    monkeypatch.setattr(checks, "reduced_chi_sum", _skew_first_class({}))
    report = check_k_derivative_lemma(entry)
    assert report.status == FAILS
    assert isinstance(report.witness["lhs"], dict)
    assert isinstance(report.witness["rhs"], dict)
    assert witness_reverifies(report)
    reports = run_all_checks([entry], suites=("theorems",))
    assert any(r.check == K_DERIVATIVE_CHECK and r.status == FAILS for r in reports)


_U23 = CatalogEntry("U(2,3)", uniform(2, 3), "uniform(2,3)")
_U24 = CatalogEntry("U(2,4)", uniform(2, 4), "uniform(2,4)")


def _counting_failure(report):
    assert report.status == FAILS
    w = report.witness
    return w["identity"], w["params"], w["lhs"], w["rhs"]


def test_planted_rank_size_count_fails_the_partition(monkeypatch):
    original = checks._rank_size_counts

    def skewed(m, mask):
        counts = original(m, mask)
        if mask == m.full_mask:
            counts[1, 1] += 1  # four singletons of rank 1 on three elements
        return counts

    monkeypatch.setattr(checks, "_rank_size_counts", skewed)
    report = check_counting_identities(_U23)
    assert _counting_failure(report) == ("rank-size-partition", {"s": 1}, "3", "4")


def test_planted_stirling_row_fails_the_ground_powers(monkeypatch):
    original = checks.stirling_second_rows

    def skewed(nmax, width=None):
        for k, row in enumerate(original(nmax, width), start=1):
            # S(2, 2) = 1 read as 2
            yield [x + 1 if (k, j) == (2, 2) else x for j, x in enumerate(row)]

    monkeypatch.setattr(checks, "stirling_second_rows", skewed)
    report = check_counting_identities(_U23)
    # 3^2 against 1! S(2, 1) 3 + 2! 2 3, over the three singletons and three pairs
    assert _counting_failure(report) == ("ground-power-surjections", {"k": 2}, "9", "15")


def _planted_girth(monkeypatch):
    monkeypatch.setattr(
        checks, "zeta_taylor_prefix", _perturbing(checks.zeta_taylor_prefix, _U23.matroid, 1)
    )
    return check_girth_theorem(_U23)


def _planted_weight(monkeypatch):
    monkeypatch.setattr(checks, "reduced_chi_sum", _skew_first_class({}))
    return check_k_derivative_lemma(_U23)


def _planted_flat_sum(monkeypatch):
    monkeypatch.setattr(checks, "reduced_chi_sum", _skew_every_flat)
    return check_counting_identities(_U23)


def _planted_powers(monkeypatch):
    original = checks.stirling_second_rows

    def skewed(nmax, width=None):
        for k, row in enumerate(original(nmax, width), start=1):
            # S(2, .) = [0, 1, 1] read as [0, 3, 0]: 1! 3 C(3, 1) = 1! 1 C(3, 1)
            # + 2! 1 C(3, 2), so 3^2 still holds, but the flat sum moves
            yield [0, 3, 0] if k == 2 else row

    monkeypatch.setattr(checks, "stirling_second_rows", skewed)
    return check_counting_identities(_U23)


def _planted_truncation(monkeypatch):
    victim = _U24.matroid.truncation()
    monkeypatch.setattr(
        checks, "zeta_taylor_prefix", _perturbing(checks.zeta_taylor_prefix, victim, 1)
    )
    return check_conjecture_truncation(_U24)


def _planted_upsilon(index):
    def plant(monkeypatch):
        monkeypatch.setattr(
            checks,
            "upsilon_taylor_prefix",
            _perturbing(checks.upsilon_taylor_prefix, _U23.matroid, index),
        )
        return check_conjecture_upsilon(_U23)

    return plant


def _planted_crash(monkeypatch):
    def boom(m, k):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(checks, "zeta_taylor_prefix", boom)
    return run_all_checks([_U23], suites=("theorems",))[0]


@pytest.mark.parametrize("plant, entry, reason, found", [
    (_planted_girth, _U23, "derivative 1 mismatch",
     {"k": 1, "girth": 3, "lhs": "-2", "rhs": "-3"}),
    (_planted_weight, _U23, "order 1 mismatch", {"k": 1, "lhs": None, "rhs": None}),
    (_planted_flat_sum, _U23, "flat-sum-of-counts {'i': 1, 'j': 1}", {
        "identity": "flat-sum-of-counts", "params": {"i": 1, "j": 1}, "lhs": ["6"],
        "rhs": ["3"],
    }),
    (_planted_powers, _U23, "flat-sum-of-powers {'k': 2}", {
        "identity": "flat-sum-of-powers", "params": {"k": 2}, "lhs": ["3"], "rhs": ["9"],
    }),
    (_planted_truncation, _U24, "coefficients diverge at order 1", {
        "first_divergence": 1, "lhs": None, "rhs": None, "prefix": None,
        "truncation_prefix": None,
    }),
    (_planted_upsilon(1), _U23, "coefficient 1 is nonzero",
     {"coefficient_index": 1, "lhs": "1", "rhs": "0", "prefix": None}),
    (_planted_upsilon(2), _U23, "leading coefficient is not the signed basis count",
     {"coefficient_index": 2, "lhs": "4", "rhs": "3", "prefix": None}),
    (_planted_crash, _U23, "check raised an exception",
     {"error": "RuntimeError: injected failure"}),
], ids=["girth", "k-derivative", "counting", "powers", "truncation", "upsilon-below-rank",
        "upsilon-leading", "raised"])
def test_failure_witness_fields(monkeypatch, plant, entry, reason, found):
    """Every failure site records the entry, its bases and exactly its own
    fields (None: any value), and the recorded sides still differ."""
    report = plant(monkeypatch)
    assert (report.status, report.entry, report.reason) == (FAILS, entry.name, reason)
    w = report.witness
    assert set(w) == {"entry", "provenance", "size", "bases", *found}
    assert (w["entry"], w["provenance"], w["size"]) == (
        entry.name, entry.provenance, entry.matroid.size
    )
    assert w["bases"] == [sorted(iter_bits(b)) for b in sorted(entry.matroid.bases)]
    for key, value in found.items():
        if value is not None:
            assert w[key] == value, key
    assert witness_reverifies(report) == ("lhs" in found)


def test_integer_holds_paths_build_no_rational_function(monkeypatch, catalog5):
    from matzeta.algebra import RationalFunction

    def refuse(self, num, den=1):
        raise AssertionError("a RationalFunction was built")

    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    with pytest.raises(AssertionError, match="RationalFunction was built"):
        RationalFunction((1,))
    for entry in catalog5:
        assert check_counting_identities(entry).status == HOLDS, entry.name
        assert check_k_derivative_lemma(entry).status == HOLDS, entry.name
    # a whole pass: the runner reports a raised AssertionError as a failure
    reports = run_all_checks(build_catalog(5))
    assert summarize(reports)[FAILS] == 0


def _with_truncations(catalog):
    for entry in catalog:
        yield entry
        if entry.matroid.rank >= 2:
            tr = entry.matroid.truncation()
            yield CatalogEntry(f"tr({entry.name})", tr, f"truncation({entry.provenance})")


def _shuffled_k6():
    # K6 with its edges shuffled, so equal restrictions sit on unequal masks
    edges = list(itertools.combinations(range(6), 2))
    random.Random(6).shuffle(edges)
    return CatalogEntry("shuffled K6", graphic(edges), "graphic(shuffled K6)")


def test_residual_k_derivative_matches_the_per_value_oracle(catalog7):
    """The one constancy test of the residual agrees with differentiating
    each canonical value to every order up to kmax, for kmax = 1..6.  The
    oracle tests the orders 1..kmax in turn and the report does not fail,
    so its one call at kmax = 6 decides every kmax <= 6, on the same entries."""
    for entry in [*_with_truncations(catalog7), _shuffled_k6()]:
        bundle = checks._Bundle(entry.matroid)
        report = check_k_derivative_lemma(entry, bundle)
        assert report.status != FAILS, entry.name
        assert report == k_derivative_lemma_per_value(entry, 6, bundle), entry.name


def _bump_constant(num):
    # + 1 / D, D the level product the numerator is over
    return (num[0] + 1,) + num[1:]


def _offset_by(num, den, n, r):
    # + 1 / (n s + r), which changes the residual by the constant 1; the
    # level product D has the factor n s + r of the top level
    return tuple(_iadd(num, _div_linear(den, n, r)))


@pytest.mark.parametrize("name", ["U(2,3)", "K4", "U(2,3)+U(2,3)", "tr(U(1,2)+U(2,4))"])
@pytest.mark.parametrize("plant", ["weight", "top", "flat", "flat-constant"])
def test_planted_k_derivative_failures_match_the_oracle(monkeypatch, catalog7, name, plant):
    """A plant on what the residual reads, a chi-bar weight, Z or one Y
    entry below a weighed class, makes the residual check and the
    per-value oracle fail at order 1 with the same witness, at every kmax;
    ``flat-constant`` adds c / (n s + r) to Z, which changes the residual by
    the constant c, so both hold.  A Y entry is planted on every flat of the victim's
    restriction class, as the table gives them one value."""
    entry = entry_named(catalog7, name)
    m = entry.matroid
    lat = lattice_of(m)
    cls = _class_ids(lat)  # by the positions of the reduced flats
    weight = Counter()
    for i in cls:
        weight[cls[i]] += sum(minor_reduced_chi(m, lat.flats[i], m.full_mask))
    at = next(  # in a class of nonzero weight, so a planted entry shows
        i for i in cls if weight[cls[i]]
    )
    victim = lat.flats[at]
    if plant == "weight":  # the class sum holding the victim, + 1, or the victim's own
        def skewed(matroid, lows, high):
            chibar = reduced_chi_sum(matroid, lows, high)
            return _skew_constant(chibar) if victim in lows else chibar

        monkeypatch.setattr(checks, "reduced_chi_sum", skewed)
    bundle = checks._Bundle(m)
    top = m.full_mask
    if plant == "flat":
        entries = bundle.upsilon_table.entries
        for i in cls:
            if cls[i] == cls[at]:
                entries[i] = _bump_constant(entries[i])
    elif plant == "top":
        bundle.zeta = _bump_constant(bundle.zeta)
    elif plant == "flat-constant":
        bundle.zeta = _offset_by(bundle.zeta, bundle.upsilon_table.den, m.size, m.rank)
    report = check_k_derivative_lemma(entry, bundle)
    assert report.status == (HOLDS if plant == "flat-constant" else FAILS)
    for kmax in range(1, 7):
        oracle = k_derivative_lemma_per_value(entry, kmax, bundle)
        assert report == oracle
        assert report.witness == oracle.witness


def _per_flat_sums(entry):
    """The counting sums of the flat identities, one flat at a time."""
    m = entry.matroid
    counts, powers = {}, {}
    for f in lattice_of(m).flats[1:-1]:  # the reduced flats
        poly = minor_reduced_chi(m, f, m.full_mask)
        for key, c in checks._rank_size_counts(m, f).items():
            counts[key] = _iadd(counts.get(key, []), [c * x for x in poly])
        for k in range(1, 7):
            powers[k] = _iadd(powers.get(k, []), [f.bit_count() ** k * x for x in poly])
    return counts, powers


def test_class_grouped_counting_sums_match_per_flat_sums(catalog7):
    for entry in [*catalog7, _shuffled_k6()]:
        m = entry.matroid
        bundle = checks._Bundle(m)
        counts, powers = {}, {}
        for f, poly in ((bundle.lattice.flats[i], c) for i, c in bundle.class_chibar):
            for key, c in checks._rank_size_counts(m, f).items():
                counts[key] = _iadd(counts.get(key, []), [c * x for x in poly])
            for k in range(1, 7):
                powers[k] = _iadd(powers.get(k, []), [f.bit_count() ** k * x for x in poly])
        assert (counts, powers) == _per_flat_sums(entry), entry.name


def _assert_class_sums_match_per_flat_chibar(m):
    """Each class sum of the bundle is the sum of ``minor_reduced_chi`` over
    the flats of its class, with the class's first flat, in class order."""
    bundle = checks._Bundle(m)
    lat = bundle.lattice
    per_flat = {}
    for i, cls in _class_ids(lat).items():
        rep, total = per_flat.get(cls, (i, []))
        per_flat[cls] = (rep, _iadd(total, minor_reduced_chi(m, lat.flats[i], lat.top)))
    assert bundle.class_chibar == [(i, tuple(total)) for i, total in per_flat.values()], m


def test_class_chibar_sums_match_per_flat_chibar(catalog7):
    for entry in [*catalog7, _shuffled_k6()]:
        _assert_class_sums_match_per_flat_chibar(entry.matroid)


_edges = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1])
_loopless_matroids = st.one_of(  # at most 7 elements
    st.lists(_edges, min_size=1, max_size=7).map(graphic),
    st.integers(1, 7).flatmap(lambda n: st.integers(1, n).map(lambda r: uniform(r, n))),
    st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
        lambda rn: uniform(min(rn), rn[0]).direct_sum(uniform(min(rn), rn[1]))
    ),
).flatmap(lambda m: st.sampled_from([m, m.truncation()] if m.rank >= 2 else [m]))


@given(_loopless_matroids)
def test_class_chibar_sums_match_per_flat_chibar_on_drawn_matroids(m):
    assert m.is_loopless() and m.size <= 7
    _assert_class_sums_match_per_flat_chibar(m)


def test_rank_size_counts_match_the_unbounded_count(catalog6):
    for entry in catalog6:
        m = entry.matroid
        for f in lattice_of(m).flats:
            assert checks._rank_size_counts(m, f) == rank_size_counts_unbounded(m, f), entry.name


def test_a_planted_bottom_weight_fails_the_truncation_conjecture(monkeypatch, catalog7):
    """The bottom flat weighed r instead of r - 1 in the fused sum adds
    Y(M|0) / (n s + r - 1) to Z(tr M), so the constant term moves: every
    rank >= 2 entry fails, and no other."""
    fused = checks._truncated_zeta

    def planted(lat, table):
        tr_table, num = fused(lat, table)
        return tr_table, tuple(_iadd(num, table.entries[0]))  # entries[0] is Y(M|0), over D

    monkeypatch.setattr(checks, "_truncated_zeta", planted)
    reports = run_all_checks(catalog7, suites=("conjectures",))
    truncation = [r for r in reports if r.check == checks.TRUNCATION_CONJECTURE]
    assert len(truncation) == len(catalog7)
    for entry, report in zip(catalog7, truncation):
        expected = FAILS if entry.matroid.rank >= 2 else SKIPPED
        assert report.status == expected, entry.name
        if expected == FAILS:
            assert report.witness["first_divergence"] == 0, entry.name
            assert witness_reverifies(report), entry.name
    assert sum(r.status == FAILS for r in truncation) == 158


def test_subsets_are_counted_once_per_restriction_class(monkeypatch, catalog7):
    counted = []
    original = checks._rank_size_counts

    def counting(m, mask):
        counted.append(mask)
        return original(m, mask)

    monkeypatch.setattr(checks, "_rank_size_counts", counting)
    for entry in [*catalog7, _shuffled_k6()]:
        counted.clear()
        m = entry.matroid
        assert check_counting_identities(entry).status == HOLDS, entry.name
        classes = 0 if m.is_trivial else len(lattice_of(m).classes) - 1  # less the top's
        assert counted[0] == m.full_mask and len(counted) == classes + 1, entry.name


def test_taylor_prefixes_over_the_level_product_match_the_canonical_expansion(catalog7):
    """The seams expand a numerator over the level product as it stands,
    unreduced, as the canonical value expands; so does one more common
    factor, here an integer and a linear one."""
    for entry in _with_truncations(catalog7):
        bundle = checks._Bundle(entry.matroid)
        order = entry.matroid.rank + 3
        table = _upsilon_table(bundle.lattice)
        assert table.den == bundle.upsilon_table.den, entry.name
        for seam, top in (
            (checks.zeta_taylor_prefix, bundle.zeta),
            (checks.upsilon_taylor_prefix, table.entries[-1]),
        ):
            expected = taylor_prefix(table.value(top), order)
            assert seam(bundle, order) == expected, entry.name
            wider = checks._Bundle(entry.matroid)
            wider.upsilon_table = table._replace(
                entries=table.entries[:-1] + [tuple(_imul_linear([3 * c for c in top], 2, 5))],
                den=tuple(_imul_linear([3 * c for c in table.den], 2, 5)),
            )
            wider.zeta = wider.upsilon_table.entries[-1]
            assert seam(wider, order) == expected, entry.name


def _truncatable(catalog):
    """Each rank >= 2 matroid of the catalog, a shuffled K6 and two nested
    specs."""
    specs = ("tr(u:3,5+u:2,4)", "ext(u:2,3+u:2,3)")
    for m in [
        *(e.matroid for e in catalog), _shuffled_k6().matroid,
        *map(parse_matroid_spec, specs),
    ]:
        if m.rank >= 2:
            yield m


def test_truncated_bundle_reads_no_second_lattice(monkeypatch, catalog7):
    """Z(tr M) is one weighted sum of M's Y table, which equals tr M's own Y
    table on the flats it reads, flat by flat, in lattice order, and Z(tr M)
    equals the sum of tr M's own table, the transfer formula and the flag
    sum, with the same Taylor prefix; the bundle takes no closure of tr M and
    folds nothing."""
    folded, checked = [], 0
    strict_subsets = LatticeOfFlats.strict_subsets

    def recording(self, f):
        folded.append(f)
        return strict_subsets(self, f)

    for m in _truncatable(catalog7):
        tr = m.truncation()
        bundle = checks._Bundle(m)
        bundle.upsilon_table
        folded.clear()
        monkeypatch.setattr(LatticeOfFlats, "strict_subsets", recording)
        monkeypatch.setattr(Matroid, "_closure", None)
        truncated = bundle.truncation
        table = truncated.upsilon_table
        monkeypatch.undo()
        assert folded == [], m
        assert truncated.matroid == tr
        assert "_ranks" not in vars(truncated.matroid), m
        assert table.entries == [], m  # no Y table of tr M
        own = lattice_of(tr)
        read = len(own.flats) - 1  # the flats of M of rank <= r - 2, then tr M's top
        assert own.flats[:read] == bundle.lattice.flats[:read], m
        own_table = _upsilon_table(own)
        mine = bundle.upsilon_table
        values = [mine.value(e) for e in mine.entries[:read]]
        assert values == [own_table.value(e) for e in own_table.entries[:read]], m  # position by position
        assert table.levels == bundle.upsilon_table.levels + ((tr.size, tr.rank),), m
        z = table.value(truncated.zeta)
        assert z == own_table.value(_y_sum(own_table.entries)), m
        assert z == zeta_of_truncation_via_transfer(m) == zeta_by_flags(tr), m
        order = m.rank + 2
        assert checks.zeta_taylor_prefix(truncated, order) == taylor_prefix(z, order), m
        checked += 1
    assert checked == 158 + 3


def test_upsilon_of_a_truncation_adds_the_hyperplanes(catalog7):
    """Y(tr M) = Y(M) (n s + r) / (n s + r - 1) + sum over the hyperplanes H
    of Y(M|H), with Y(tr M) from the flag product."""
    checked = 0
    for entry in catalog7:
        m = entry.matroid
        n, r = m.size, m.rank
        if r < 2:
            continue
        rhs = upsilon_by_recurrence(m) * RationalFunction((r, n)) / RationalFunction((r - 1, n))
        for h in lattice_of(m).by_rank[r - 1]:
            rhs = rhs + upsilon_by_recurrence(m.restriction(h))
        assert upsilon_by_flags(m.truncation()) == rhs, entry.name
        checked += 1
    assert checked == 158


def test_truncation_check_skips_a_matroid_with_loops():
    m = uniform(2, 3).direct_sum(uniform(0, 1))
    entry = CatalogEntry("U(2,3)+U(0,1)", m, "direct_sum(uniform(2,3), uniform(0,1))")
    reports = run_all_checks([entry])
    assert [r.status for r in reports] == [SKIPPED] * 5
    (truncation,) = (r for r in reports if r.check == checks.TRUNCATION_CONJECTURE)
    assert truncation.reason == "matroid has loops"


def test_a_bundle_sums_z_only_where_the_checks_read_it(monkeypatch, catalog7):
    """One y-sum per bundle, Z(M) for the Taylor prefixes, over its whole Y
    table, and for the truncation's bundle one fused sum, Z(tr M), over the
    same table, and the truncation's bundle holds no lattice: the
    k-derivative lemma counts Y entries and sums no Z(M|F)."""
    summed, fused = [], []
    y_sum, truncated_zeta = checks._y_sum, checks._truncated_zeta

    def recording(entries):
        summed.append(entries)
        return y_sum(entries)

    def recording_fused(lat, table):
        fused.append(table.entries)
        return truncated_zeta(lat, table)

    monkeypatch.setattr(checks, "_y_sum", recording)
    monkeypatch.setattr(checks, "_truncated_zeta", recording_fused)
    for entry in catalog7:
        summed.clear()
        fused.clear()
        bundle = checks._Bundle(entry.matroid)
        for check in (
            check_girth_theorem, check_k_derivative_lemma,
            check_conjecture_truncation, check_conjecture_upsilon,
        ):
            assert check(entry, bundle).status != FAILS, entry.name
        truncated = entry.matroid.rank >= 2
        assert len(summed) == 1 and len(fused) == truncated, entry.name
        for entries in summed + fused:
            assert entries is bundle.upsilon_table.entries, entry.name
        if truncated:
            assert "lattice" not in vars(bundle.truncation), entry.name


def test_crashing_check_is_reported_not_raised(monkeypatch, catalog4):
    def boom(m, k):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(checks, "zeta_taylor_prefix", boom)
    entry = entry_named(catalog4, "U(2,3)")
    reports = run_all_checks([entry], suites=("conjectures",))
    crashed = [r for r in reports if r.status == FAILS]
    assert crashed and all("error" in r.witness for r in crashed)


def test_witness_carries_reproducible_data(monkeypatch, catalog4):
    entry = entry_named(catalog4, "U(2,3)")
    monkeypatch.setattr(
        checks,
        "zeta_taylor_prefix",
        _perturbing(checks.zeta_taylor_prefix, entry.matroid.truncation(), 0),
    )
    report = check_conjecture_truncation(entry)
    assert report.status == FAILS
    w = report.witness
    assert w["entry"] == "U(2,3)"
    assert w["bases"] == [[0, 1], [0, 2], [1, 2]]
    assert Fraction(w["lhs"]) != Fraction(w["rhs"])


def test_witness_reverifies_is_false_for_passes(catalog4):
    report = check_girth_theorem(catalog4[0])
    assert report.status == HOLDS
    assert not witness_reverifies(report)


def test_report_json_shape():
    report = CheckReport("girth-theorem", "U(2,3)", HOLDS)
    assert report.to_json() == {
        "check": "girth-theorem",
        "entry": "U(2,3)",
        "status": "holds",
    }
    report = CheckReport("x", "y", FAILS, "boom", {"lhs": "1", "rhs": "2"})
    as_json = report.to_json()
    assert as_json["reason"] == "boom" and as_json["witness"]["lhs"] == "1"
