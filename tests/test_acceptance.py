"""Acceptance suite: one test per criterion, exact equality throughout
(tolerance zero everywhere -- every assertion is on canonical exact values).
One pass/fail line per criterion is printed in the terminal summary.
"""

import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import conftest
import matzeta.checks as checks
from matzeta.algebra import RationalFunction, _iadd, _ieval, _imul, taylor_prefix
from matzeta.checks import FAILS, HOLDS, SKIPPED, run_all_checks
from matzeta.cli import main as cli_main
from matzeta.combinat import rising_factorial, stirling_first, stirling_second
from matzeta.lattice import lattice_of, minor_reduced_chi
from matzeta.matroid import uniform
from matzeta.zeta import (
    upsilon_by_flags,
    upsilon_by_mobius,
    upsilon_by_recurrence,
    upsilon_uniform_closed,
    zeta_by_flags,
    zeta_by_recurrence,
    zeta_of_free_extension_via_transfer,
    zeta_of_truncation_via_transfer,
    zeta_uniform_closed,
)
from oracles import (
    chi,
    contraction,
    verify_stirling_lemma,
    verify_two_flats_identity,
    witness_reverifies,
)

Z23 = RationalFunction((2, -1), (2, 5, 3))
Y23 = RationalFunction((0, 0, 6), (2, 5, 3))


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.record_criterion(number, description, "FAIL")
                raise
            conftest.record_criterion(number, description, "PASS")

        return wrapper

    return decorate


@criterion(1, "flag-sum and recurrence zeta agree exactly on the whole catalog")
def test_criterion_1_zeta_oracle_equivalence(catalog7):
    for entry in catalog7:
        assert entry.matroid.size <= 7 and entry.matroid.is_loopless()
        assert zeta_by_flags(entry.matroid) == zeta_by_recurrence(entry.matroid), entry.name


@criterion(2, "the three Mobius-inversion algorithms agree exactly on the catalog")
def test_criterion_2_upsilon_triple_agreement(catalog7):
    for entry in catalog7:
        a = upsilon_by_mobius(entry.matroid)
        b = upsilon_by_recurrence(entry.matroid)
        c = upsilon_by_flags(entry.matroid)
        assert a == b == c, entry.name


@criterion(3, "uniform closed forms match the general algorithms for r <= n <= 7")
def test_criterion_3_uniform_closed_forms():
    for n in range(1, 8):
        for r in range(1, n + 1):
            m = uniform(r, n)
            zc = zeta_uniform_closed(r, n)
            assert zc == zeta_by_recurrence(m) == zeta_by_flags(m), (r, n)
            yc = upsilon_uniform_closed(r, n)
            assert yc == upsilon_by_recurrence(m), (r, n)
        assert zeta_uniform_closed(n, n) == RationalFunction(1, (1, 1)) ** n
    assert zeta_uniform_closed(2, 3) == Z23
    assert upsilon_uniform_closed(2, 3) == Y23


@criterion(4, "truncation and free-extension transfer formulas match direct computation")
def test_criterion_4_transfer_theorems(catalog7):
    assert zeta_of_truncation_via_transfer(uniform(2, 3)) == RationalFunction(1, (1, 3))
    assert zeta_of_free_extension_via_transfer(uniform(1, 1)) == RationalFunction(1, (1, 2))
    for entry in catalog7:
        m = entry.matroid
        if m.rank >= 2:
            assert zeta_of_truncation_via_transfer(m) == zeta_by_recurrence(
                m.truncation()
            ), entry.name
        assert zeta_of_free_extension_via_transfer(m) == zeta_by_recurrence(
            m.free_extension()
        ), entry.name


@criterion(5, "derivatives at 0 below the girth are signed rising factorials")
def test_criterion_5_girth_theorem(catalog7):
    for entry in catalog7:
        m = entry.matroid
        g = m.girth()
        prefix = taylor_prefix(checks._zeta(m), g - 1)
        for k in range(g):
            assert math.factorial(k) * prefix[k] == (-1) ** k * rising_factorial(
                m.size, k
            ), (entry.name, k)
        # the first expansion coefficient is -|E| for every loopless matroid
        assert taylor_prefix(checks._zeta(m), 1)[1] == -m.size, entry.name


@criterion(6, "zeta and its inversion factor over direct sums, combined size <= 8")
def test_criterion_6_multiplicativity(catalog7):
    for i, left in enumerate(catalog7):
        for right in catalog7[i:]:
            if left.matroid.size + right.matroid.size > 8:
                continue
            s = left.matroid.direct_sum(right.matroid)
            assert zeta_by_recurrence(s) == checks._zeta(left.matroid) * checks._zeta(
                right.matroid
            ), (left.name, right.name)
            assert upsilon_by_recurrence(s) == checks._upsilon(
                left.matroid
            ) * checks._upsilon(right.matroid), (left.name, right.name)


@criterion(7, "the counting/derivative identity suite holds exactly on the catalog")
def test_criterion_7_identity_suite(catalog7):
    reports = run_all_checks(catalog7, suites=("theorems",), kmax=4)
    failing = [r for r in reports if r.status == FAILS]
    assert not failing, failing[:3]
    assert all(r.status == HOLDS for r in reports)
    q = (0, 1)
    for entry in catalog7:
        m = entry.matroid
        assert verify_two_flats_identity(m), entry.name
        if m.rank >= 2:
            whole = chi(m)
            at_0 = _ieval(whole, 0)
            tr = m.truncation()
            assert _imul(chi(tr), q) == _iadd(whole, _imul((-1, 1), [at_0]))
            assert _imul(minor_reduced_chi(tr, 0, tr.full_mask), q) == (
                _iadd(minor_reduced_chi(m, 0, m.full_mask), [at_0])
            )
            lat = lattice_of(m)
            for r in range(m.rank - 1):
                for f in lat.by_rank[r]:
                    assert tr.restriction(f) == m.restriction(f), entry.name
                    assert contraction(tr, f) == contraction(m, f).truncation(), entry.name


@criterion(8, "Stirling identities hold: lemma to k=15, factorial expansions to n=12")
def test_criterion_8_stirling_suite():
    for k in range(1, 16):
        assert verify_stirling_lemma(k)
    for n in range(13):
        assert rising_factorial(n, 0) == 1
        for k in range(1, 13):
            assert rising_factorial(n, k) == sum(
                stirling_first(k, i) * n**i for i in range(1, k + 1)
            )
    for n in range(1, 13):
        for m in range(1, n + 1):
            lhs = sum(
                stirling_first(n, k) * stirling_second(k, m) for k in range(m, n + 1)
            )
            assert lhs == math.comb(n, m) * math.perm(n - 1, n - m)


@criterion(9, "conjecture harness: no counterexamples, and planted violations are caught")
def test_criterion_9_conjecture_harness(catalog7, monkeypatch):
    reports = run_all_checks(catalog7, suites=("conjectures",))
    assert not [r for r in reports if r.status == FAILS]
    skipped = [r for r in reports if r.status == SKIPPED]
    assert all(r.reason for r in skipped)

    # mutation test: perturb one expansion coefficient, expect a witnessed failure
    entry = next(e for e in catalog7 if e.name == "U(2,4)")
    victim = entry.matroid.truncation()
    original = checks.zeta_taylor_prefix

    def perturbed(b, k):
        prefix = original(b, k)
        if b.matroid == victim:
            coeffs = list(prefix)
            coeffs[1] += Fraction(1)
            return tuple(coeffs)
        return prefix

    monkeypatch.setattr(checks, "zeta_taylor_prefix", perturbed)
    mutated = run_all_checks([entry], suites=("conjectures",))
    flagged = [r for r in mutated if r.status == FAILS]
    assert flagged, "planted violation was not detected"
    assert all(r.witness for r in flagged)
    assert all(witness_reverifies(r) for r in flagged)


@criterion(10, "CLI output is byte-deterministic and JSON round-trips to equal values")
def test_criterion_10_determinism_roundtrip(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    invocations = [
        ("zeta", "tr(u:3,4)+ext(u:1,2)", "--format", "json"),
        ("upsilon", "u:2,4", "--format", "json"),
        ("lattice", "u:2,4", "--format", "json"),
        ("taylor", "u:2,3", "-k", "3", "--format", "json"),
        ("check", "all", "--max-ground", "4"),
    ]
    for argv in invocations:
        first = run(*argv)
        second = run(*argv)
        assert first == second, argv
        assert first[0] == 0
    # JSON parses back to the identical canonical value
    code, out = run("zeta", "u:2,3", "--format", "json")
    assert RationalFunction.from_json(json.loads(out)) == Z23
    code, out = run("upsilon", "u:2,3", "--format", "json")
    assert RationalFunction.from_json(json.loads(out)) == Y23
    # byte-identical across separate processes as well
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "matzeta", "zeta", "u:2,4", "--format", "json"]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
