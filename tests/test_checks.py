import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

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
from matzeta.lattice import LatticeOfFlats, _restriction_key, lattice_of, minor_reduced_chi
from matzeta.matroid import graphic, iter_bits, uniform
from matzeta.algebra import _iadd, _imul_linear, taylor_prefix
from matzeta.zeta import (
    _expand_den,
    _factored_to_rf,
    _upsilon_table,
    upsilon_by_recurrence,
    zeta_by_recurrence,
)
from oracles import k_derivative_lemma_per_value, witness_reverifies


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
    monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
    catalog = catalog4[:entries]
    reports = run_all_checks(catalog, jobs=jobs)
    assert pools == ([] if workers is None else [workers])
    assert reports == run_all_checks(catalog)


def test_a_catalog_pass_builds_one_lattice_per_entry_and_truncation(monkeypatch, catalog7):
    """Every check of an entry reads one lattice; Z(tr M) needs the
    truncation's own, so each rank >= 2 entry adds one.  None outlives its
    entry."""
    built = []

    def recording(m):
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
    truncations = sum(e.matroid.rank >= 2 for e in catalog7)
    assert (len(catalog7), truncations) == (165, 158)
    assert len(built) == len(catalog7) + truncations == 323


def test_chibar_is_expanded_once_per_reduced_flat(monkeypatch, catalog5):
    calls = Counter()

    def counting(m, low, high):
        calls[m, low, high] += 1
        return minor_reduced_chi(m, low, high)

    monkeypatch.setattr(checks, "minor_reduced_chi", counting)
    reports = run_all_checks(catalog5, suites=("theorems",))
    assert {r.status for r in reports} == {HOLDS}
    assert calls == Counter(
        (e.matroid, f, e.matroid.full_mask)
        for e in catalog5
        for f in lattice_of(e.matroid).reduced_flats()
    )


def test_one_bundle_expands_chibar_once_per_reduced_flat(monkeypatch, catalog5):
    """The k-derivative and counting checks of one bundle read chi-bar_[F, E]
    through ``checks.minor_reduced_chi``, once per reduced flat between them."""
    calls = Counter()

    def counting(m, low, high):
        calls[m, low, high] += 1
        return minor_reduced_chi(m, low, high)

    monkeypatch.setattr(checks, "minor_reduced_chi", counting)
    checked = 0
    for entry in catalog5:
        m = entry.matroid
        if m.is_trivial:
            continue
        bundle = checks._Bundle(m)
        calls.clear()
        assert check_k_derivative_lemma(entry, bundle).status == HOLDS
        assert check_counting_identities(entry, bundle=bundle).status == HOLDS
        assert calls == Counter((m, f, m.full_mask) for f in bundle.lattice.reduced_flats())
        checked += bool(calls)
    assert checked > 0


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


def _skew_constant(chibar):
    return (chibar[0] + 1,) + chibar[1:]


def test_mutated_flat_sum_yields_parseable_witness(monkeypatch, catalog4):
    def skewed(m, low, high):
        return _skew_constant(minor_reduced_chi(m, low, high))

    monkeypatch.setattr(checks, "minor_reduced_chi", skewed)
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
    victim = {}

    def skewed(m, low, high):
        chibar = minor_reduced_chi(m, low, high)
        return _skew_constant(chibar) if victim.setdefault(m, low) == low else chibar

    monkeypatch.setattr(checks, "minor_reduced_chi", skewed)
    report = check_k_derivative_lemma(entry)
    assert report.status == FAILS
    assert isinstance(report.witness["lhs"], dict)
    assert isinstance(report.witness["rhs"], dict)
    assert witness_reverifies(report)
    reports = run_all_checks([entry], suites=("theorems",))
    assert any(r.check == K_DERIVATIVE_CHECK and r.status == FAILS for r in reports)


_U23 = CatalogEntry("U(2,3)", uniform(2, 3), "uniform(2,3)")
_U24 = CatalogEntry("U(2,4)", uniform(2, 4), "uniform(2,4)")


def _planted_girth(monkeypatch):
    monkeypatch.setattr(
        checks, "zeta_taylor_prefix", _perturbing(checks.zeta_taylor_prefix, _U23.matroid, 1)
    )
    return check_girth_theorem(_U23)


def _planted_weight(monkeypatch):
    victim = {}

    def skewed(m, low, high):
        chibar = minor_reduced_chi(m, low, high)
        return _skew_constant(chibar) if victim.setdefault(m, low) == low else chibar

    monkeypatch.setattr(checks, "minor_reduced_chi", skewed)
    return check_k_derivative_lemma(_U23)


def _planted_flat_sum(monkeypatch):
    def skewed(m, low, high):
        return _skew_constant(minor_reduced_chi(m, low, high))

    monkeypatch.setattr(checks, "minor_reduced_chi", skewed)
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
], ids=["girth", "k-derivative", "counting", "truncation", "upsilon-below-rank",
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
    each canonical value to every order up to kmax, for kmax = 1..6."""
    for entry in [*_with_truncations(catalog7), _shuffled_k6()]:
        bundle = checks._Bundle(entry.matroid)
        report = check_k_derivative_lemma(entry, bundle)
        assert report.status != FAILS, entry.name
        for kmax in range(1, 7):
            assert report == k_derivative_lemma_per_value(entry, kmax, bundle), entry.name


def _bump_constant(f):
    num, scale, fct = f
    return ((num[0] + 1,) + num[1:], scale, fct)


def _shift_by_one(f):
    # + 1 as a fraction: num + scale * prod factors over the same denominator
    num, scale, fct = f
    return (tuple(_iadd(num, _expand_den(scale, fct))), scale, fct)


@pytest.mark.parametrize("name", ["U(2,3)", "K4", "U(2,3)+U(2,3)", "tr(U(1,2)+U(2,4))"])
@pytest.mark.parametrize("plant", ["weight", "top", "flat", "flat-constant"])
def test_planted_k_derivative_failures_match_the_oracle(monkeypatch, catalog7, name, plant):
    """A planted weight or table entry makes the residual check and the
    per-value oracle fail at order 1 with the same witness, at every kmax;
    shifting a flat's value by a constant changes no derivative, so both hold.
    A table entry is planted on every flat of the victim's restriction class,
    as the table gives them one value."""
    entry = entry_named(catalog7, name)
    m = entry.matroid
    lat = lattice_of(m)
    cls = lat.restriction_class
    weight = Counter()
    for f in lat.reduced_flats():
        weight[cls[f]] += sum(minor_reduced_chi(m, f, m.full_mask))
    victim = next(  # in a class of nonzero weight, so a planted entry shows
        f for f in lat.reduced_flats() if weight[cls[f]]
    )
    if plant == "weight":
        def skewed(matroid, low, high):
            chibar = minor_reduced_chi(matroid, low, high)
            return _skew_constant(chibar) if low == victim else chibar

        monkeypatch.setattr(checks, "minor_reduced_chi", skewed)
    bundle = checks._Bundle(m)
    if plant != "weight":
        planted = [m.full_mask] if plant == "top" else [f for f in cls if cls[f] == cls[victim]]
        for f in planted:
            shift = _shift_by_one if plant == "flat-constant" else _bump_constant
            bundle.zeta_at[f] = shift(bundle.zeta(f))
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
    for f in lattice_of(m).reduced_flats():
        poly = minor_reduced_chi(m, f, m.full_mask)
        for key, c in checks._rank_size_counts(m._ranks, f).items():
            counts[key] = _iadd(counts.get(key, []), [c * x for x in poly])
        for k in range(1, 7):
            powers[k] = _iadd(powers.get(k, []), [f.bit_count() ** k * x for x in poly])
    return counts, powers


def test_class_grouped_counting_sums_match_per_flat_sums(catalog7):
    for entry in [*catalog7, _shuffled_k6()]:
        m = entry.matroid
        classes = checks._Bundle(m).class_chibar
        counts, powers = {}, {}
        for f, poly in classes:
            for key, c in checks._rank_size_counts(m._ranks, f).items():
                counts[key] = _iadd(counts.get(key, []), [c * x for x in poly])
            for k in range(1, 7):
                powers[k] = _iadd(powers.get(k, []), [f.bit_count() ** k * x for x in poly])
        assert (counts, powers) == _per_flat_sums(entry), entry.name


def test_subsets_are_counted_once_per_restriction_class(monkeypatch, catalog7):
    counted = []
    original = checks._rank_size_counts

    def counting(ranks, mask):
        counted.append(mask)
        return original(ranks, mask)

    monkeypatch.setattr(checks, "_rank_size_counts", counting)
    for entry in [*catalog7, _shuffled_k6()]:
        counted.clear()
        m = entry.matroid
        assert check_counting_identities(entry).status == HOLDS, entry.name
        classes = 0 if m.is_trivial else len(set(lattice_of(m).restriction_class.values()))
        assert counted[0] == m.full_mask and len(counted) == classes + 1, entry.name


def test_factored_taylor_prefixes_match_the_canonical_expansion(catalog7):
    for entry in _with_truncations(catalog7):
        bundle = checks._Bundle(entry.matroid)
        order = entry.matroid.rank + 3
        lat = bundle.lattice
        for seam, top in (
            (checks.zeta_taylor_prefix, bundle.zeta(lat.top)),
            (checks.upsilon_taylor_prefix, _upsilon_table(lat)[lat.top]),
        ):
            num, scale, fct = top
            expected = taylor_prefix(_factored_to_rf(top), order)
            assert seam(bundle, order) == expected, entry.name
            # a common integer and a common linear factor change no coefficient
            unreduced = (_imul_linear([3 * c for c in num], 2, 5), 3 * scale, fct + ((2, 5),))
            assert checks._factored_taylor(unreduced, order) == expected, entry.name


def test_truncation_takes_every_proper_flat_from_the_memo(monkeypatch, catalog7):
    """tr(M)|F = M|F when rk F <= r - 2, and their restriction keys are
    equal, so the truncation's Y table built with M's memo equals its own,
    flat by flat, and folds only its top."""
    folded = []
    strict_subsets = LatticeOfFlats.strict_subsets

    def recording(self, f):
        folded.append(f)
        return strict_subsets(self, f)

    checked = 0
    for entry in catalog7:
        m = entry.matroid
        if m.rank < 2:
            continue
        tr = m.truncation()
        own = _upsilon_table(lattice_of(tr))
        bundle = checks._Bundle(m)
        bundle.upsilon_table
        folded.clear()
        monkeypatch.setattr(LatticeOfFlats, "strict_subsets", recording)
        shared = checks._Bundle(tr, bundle.memo).upsilon_table
        monkeypatch.undo()
        assert shared == own, entry.name
        assert folded == [tr.full_mask], entry.name
        checked += 1
    assert checked == 158


@pytest.mark.parametrize("name", ["U(3,5)", "K4", "U(2,3)+U(2,3)", "U(1,2)+U(2,4)"])
def test_a_memo_entry_under_a_foreign_key_changes_nothing(catalog7, name):
    m = entry_named(catalog7, name).matroid
    tr = m.truncation()
    own = _upsilon_table(lattice_of(tr))
    bundle = checks._Bundle(m)
    bundle.upsilon_table
    keys = lattice_of(tr).restriction_key
    planted = ((7,), 1, ())
    # M's own key: a real restriction, on more elements than any proper flat of tr(M)
    foreign = _restriction_key(m._ranks, m.full_mask)
    assert foreign not in keys.values()
    memo = {**bundle.memo, foreign: planted}
    assert checks._Bundle(tr, memo).upsilon_table == own
    # the same plant under a key tr(M) has is read
    f = next(iter(keys))
    memo = {**bundle.memo, keys[f]: planted}
    assert checks._Bundle(tr, memo).upsilon_table[f] == planted


def test_a_bundle_sums_z_only_where_the_checks_read_it(catalog7):
    """Z(M) for the Taylor prefixes, and Z(M|F) only for the restriction
    classes of nonzero summed chi-bar weight: no second Z table."""
    for entry in catalog7:
        bundle = checks._Bundle(entry.matroid)
        for check in (
            check_girth_theorem, check_k_derivative_lemma,
            check_conjecture_truncation, check_conjecture_upsilon,
        ):
            assert check(entry, bundle).status != FAILS, entry.name
        weighed = {f for f, chibar in bundle.class_chibar if sum(chibar)}
        assert set(bundle.zeta_at) == {bundle.lattice.top} | weighed, entry.name


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
