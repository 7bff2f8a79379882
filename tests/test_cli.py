import gc
import itertools
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matzeta.cli as cli
import matzeta.zeta as zeta
from matzeta.algebra import RationalFunction
from matzeta.checks import CheckReport, run_all_checks, summarize
from matzeta.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_THEOREM_FAILURE,
    EXIT_USAGE,
    MAX_NESTING,
    SpecParseError,
    _check_exit_code,
    main,
    parse_matroid_spec,
)
from matzeta.files import dump_bases, dump_graph
from matzeta.lattice import LatticeOfFlats, lattice_of
from matzeta.matroid import Matroid, graphic, iter_bits, uniform
from matzeta.zeta import (
    compute_upsilon,
    compute_zeta,
    uniform_taylor_coefficients,
    upsilon_by_flags,
    upsilon_uniform_closed,
    zeta_by_flags,
    zeta_by_recurrence,
    zeta_of_free_extension_via_transfer,
    zeta_of_truncation_via_transfer,
    zeta_uniform_closed,
)

Z23 = RationalFunction((2, -1), (2, 5, 3))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Spec grammar


def test_parse_uniform_and_compounds():
    assert parse_matroid_spec("u:2,3") == uniform(2, 3)
    assert parse_matroid_spec(" tr( u:3,4 ) ") == uniform(2, 4)
    assert parse_matroid_spec("ext(u:1,2)") == uniform(1, 3)
    assert parse_matroid_spec("u:1,1 + u:1,1") == uniform(2, 2)


def test_parse_precedence_is_prefix_then_sum():
    # one tree: (tr(u:3,4)) + (ext(u:1,2)), not tr applied to the sum
    m = parse_matroid_spec("tr(u:3,4) + ext(u:1,2)")
    assert m == uniform(2, 4).direct_sum(uniform(1, 3))


def test_parse_nested():
    m = parse_matroid_spec("tr(u:2,3 + u:1,1)")
    assert m == uniform(2, 3).direct_sum(uniform(1, 1)).truncation()


@pytest.mark.parametrize(
    "text, pos",
    [
        ("u:9,", 0),
        ("u:2,3 + ", 8),
        ("tr(u:2,3", 8),
        ("u:2,3 junk", 6),
        ("bases:/no/such/file", 6),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(SpecParseError) as err:
        parse_matroid_spec(text)
    assert err.value.pos == pos
    assert f"position {pos}" in str(err.value)


def test_nesting_depth_is_bounded(capsys):
    def nested(depth):
        return "ext(" * depth + "u:0,0" + ")" * depth

    # MAX_NESTING levels parse; the 17th extension then exceeds the ground bound
    code, _, err = run_cli(capsys, "zeta", nested(MAX_NESTING))
    assert code == EXIT_DOMAIN and "ground-size bound" in err
    code, _, err = run_cli(capsys, "zeta", nested(MAX_NESTING + 1))
    assert code == EXIT_USAGE and "nested deeper" in err
    code, out, err = run_cli(capsys, "zeta", "tr(" * 2000 + "u:1,1" + ")" * 2000)
    assert code == EXIT_USAGE and out == "" and "Traceback" not in err


def test_parse_file_atoms(tmp_path):
    bases = tmp_path / "m.bases"
    dump_bases(uniform(2, 3), bases)
    graph = tmp_path / "g.graph"
    dump_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], graph)
    assert parse_matroid_spec(f"bases:{bases}") == uniform(2, 3)
    assert parse_matroid_spec(f"graph:{graph}") == graphic(
        [(0, 1), (1, 2), (2, 3), (0, 3)], 4
    )
    combined = parse_matroid_spec(f"bases:{bases} + u:1,1")
    assert combined == uniform(2, 3).direct_sum(uniform(1, 1))


# ---------------------------------------------------------------------------
# Commands


def test_zeta_command_json(capsys):
    code, out, _ = run_cli(capsys, "zeta", "u:2,3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["num"] == ["2", "-1"]
    assert payload["den"] == ["2", "5", "3"]
    assert RationalFunction.from_json(payload) == Z23


def test_zeta_command_text(capsys):
    code, out, _ = run_cli(capsys, "zeta", "u:2,3")
    assert code == EXIT_OK
    assert out == "Z(s) = (-s + 2) / (3*s^2 + 5*s + 2)\n"


def test_zeta_trivial(capsys):
    code, out, _ = run_cli(capsys, "zeta", "u:0,0")
    assert code == EXIT_OK
    assert out.strip() == "Z(s) = 1"


def test_zeta_sum_is_product(capsys):
    code, out, _ = run_cli(capsys, "zeta", "u:2,3 + u:1,1", "--format", "json")
    assert code == EXIT_OK
    value = RationalFunction.from_json(json.loads(out))
    assert value == Z23 * zeta_by_recurrence(uniform(1, 1))


def test_zeta_with_loops_reports_and_prints_zero(capsys):
    code, out, err = run_cli(capsys, "zeta", "u:0,2")
    assert code == EXIT_OK
    assert out.strip() == "Z(s) = 0"
    assert "loops" in err


def test_zeta_verify(capsys):
    code, out, _ = run_cli(capsys, "zeta", "u:2,4", "--verify")
    assert code == EXIT_OK
    assert "Z(s)" in out


def _skew_every_mu(monkeypatch):
    """Add 1 to every mu(G, F) with F > G and keep the flag weights, so the
    flag sum still agrees with the recurrence and only the chi cross-check
    can fail."""
    original = LatticeOfFlats._mobius_rows

    def skewed(self):
        row = original(self)
        return lambda g: [(f, mu + 1, w) for f, mu, w in row(g)]

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", skewed)


def test_zeta_verify_checks_chi_against_the_subset_expansion(capsys, monkeypatch):
    _skew_every_mu(monkeypatch)
    code, out, err = run_cli(capsys, "zeta", "u:3,6", "--verify")
    assert code == EXIT_THEOREM_FAILURE and out == ""
    assert "verification failed: Mobius and subset-expansion chi disagree" in err


def test_the_flag_route_checks_chi_against_the_subset_expansion(capsys, monkeypatch):
    """The flag route checks chi on the bottom row it sweeps, so the skew
    fails ``--algorithm flags`` and ``zeta_by_flags`` too, not only
    ``--verify``."""
    _skew_every_mu(monkeypatch)
    code, out, err = run_cli(capsys, "zeta", "u:3,6", "--algorithm", "flags")
    assert code == EXIT_THEOREM_FAILURE and out == ""
    assert err == "verification failed: Mobius and subset-expansion chi disagree\n"
    with pytest.raises(zeta.VerificationError, match="subset-expansion chi"):
        zeta_by_flags(uniform(3, 6))


@pytest.mark.parametrize("spec", ["u:3,6", "u:3,7+u:3,7"])
def test_zeta_verify_sweeps_the_bottom_row_once(capsys, monkeypatch, spec):
    """The chi check reads the row of the bottom flat the flag route swept:
    on each component's lattice, every row is swept once."""
    original = LatticeOfFlats._mobius_rows
    swept = Counter()  # (lattice, flat position) -> sweeps

    def counting(self):
        row = original(self)

        def counted(g):
            swept[self, g] += 1
            return row(g)

        return counted

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", counting)
    code, out, _ = run_cli(capsys, "zeta", spec, "--verify")
    assert code == EXIT_OK and out.startswith("Z(s) = ")
    lattices = {lat for lat, _ in swept}
    assert len(lattices) == spec.count("+") + 1
    assert all(swept[lat, 0] == 1 for lat in lattices) and set(swept.values()) == {1}


def test_zeta_verify_catches_a_wrong_flag_weight(capsys, monkeypatch):
    original = LatticeOfFlats._mobius_rows

    def skewed(self):
        # a wrong top entry in the row of one rank-1 flat: the chi of the
        # whole lattice reads only the row of the bottom, so it stays right
        row, first, top = original(self), self.flats.index(self.by_rank[1][0]), len(self) - 1

        def skewed_row(g):
            out = row(g)
            if g == first:
                out = [(f, mu + 1, w + 1) if f == top else (f, mu, w) for f, mu, w in out]
            return out

        return skewed_row

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", skewed)
    code, out, err = run_cli(capsys, "zeta", "u:3,5", "--verify")
    assert code == EXIT_THEOREM_FAILURE and out == ""
    assert "verification failed: flags disagrees with y-sum" in err


@pytest.mark.parametrize("command", ["zeta", "upsilon"])
def test_verify_over_the_cap_fails_fast(capsys, command):
    # 12!/2 maximal chains on a connected matroid: refused on the covers,
    # before any pair-sized index
    code, out, err = run_cli(capsys, command, "u:11,12", "--verify")
    assert code == EXIT_DOMAIN and out == ""
    assert "at least 239500800 flags exceed the cap of 10000000" in err


def test_upsilon_verify_checks_flag_cap_first(capsys, monkeypatch):
    def never(lat):
        raise AssertionError("upsilon_by_mobius ran although the flag cap is exceeded")

    monkeypatch.setitem(zeta._UPSILON_ROUTES, "mobius", ("mobius-def", never))
    code, out, err = run_cli(capsys, "upsilon", "u:2,3", "--verify", "--max-flags", "1")
    assert code == EXIT_DOMAIN and out == ""
    assert "flags exceed" in err


def _routes(command):
    """The route table ``command`` dispatches through."""
    return zeta._ZETA_ROUTES if command == "zeta" else zeta._UPSILON_ROUTES


@pytest.mark.parametrize("command, route, mode", [
    ("upsilon", "mobius", ["--verify"]),
    ("zeta", "recurrence", ["--verify"]),
    ("upsilon", "mobius", ["--algorithm", "flags"]),
    ("zeta", "recurrence", ["--algorithm", "flags"]),
], ids=["upsilon-_upsilon_by_mobius", "zeta-_zeta_by_recurrence", "upsilon-flags", "zeta-flags"])
def test_verify_checks_every_components_flag_cap_first(capsys, monkeypatch, command, route, mode):
    """u:2,3 fits the cap and u:11,12 does not: no route and no flag sum
    runs on either, under ``--verify`` or the flag route."""
    def never(*args):
        raise AssertionError("a route ran although a component exceeds the flag cap")

    routes = _routes(command)
    monkeypatch.setitem(routes, route, (routes[route][0], never))
    monkeypatch.setattr(zeta, "_flag_sum", never)
    code, out, err = run_cli(capsys, command, "u:2,3+u:11,12", *mode)
    assert code == EXIT_DOMAIN and out == ""
    assert "at least 239500800 flags exceed" in err


@pytest.mark.parametrize("command", ["zeta", "upsilon"])
@pytest.mark.parametrize("spec, found", [
    ("u:2,4", [0b0011, 0b1100]),  # ranks 2 + 2 against rk E = 2
    ("u:1,2+u:1,1", [0b001, 0b100]),  # element 1 in no part
    ("u:1,2+u:1,1", [0b011, 0b110]),  # element 1 in two parts
])
def test_verify_refuses_a_split_that_is_no_direct_sum(capsys, monkeypatch, command, spec, found):
    monkeypatch.setattr(Matroid, "components", lambda self: found)
    code, out, err = run_cli(capsys, command, spec, "--verify")
    assert code == EXIT_THEOREM_FAILURE and out == ""
    assert "verification failed: the components found are not a direct sum" in err


@pytest.mark.parametrize(
    "extra", [["--verify"], [], ["--algorithm", "recurrence"], ["--algorithm", "flags"]]
)
@pytest.mark.parametrize("spec, parts", [
    ("u:3,5+u:2,4+u:1,1+u:1,1", [(3, 5), (2, 4), (1, 1), (1, 1)]),
    ("u:16,16", [(16, 16)]),  # sixteen coloops: sixteen two-flat lattices under the cap
])
def test_a_direct_sum_is_the_product_of_its_parts(capsys, extra, spec, parts):
    """Each part is a uniform matroid, so the value of the sum is the
    product of their closed forms."""
    for command, closed in (("zeta", zeta_uniform_closed), ("upsilon", upsilon_uniform_closed)):
        code, out, _ = run_cli(capsys, command, spec, *extra, "--format", "json")
        assert code == EXIT_OK
        expected = RationalFunction.one()
        for r, n in parts:
            expected = expected * closed(r, n)
        assert RationalFunction.from_json(json.loads(out)) == expected


@pytest.mark.parametrize("argv, built", [
    ("zeta u:3,5 --verify", 1),
    ("upsilon u:3,5 --verify", 1),
    ("zeta u:3,5+u:2,4 --verify", 2),
    ("upsilon u:2,3+u:1,1+u:1,2 --verify", 3),
    ("zeta u:0,0 --verify", 0),
    ("zeta u:0,3 --verify", 0),
])
def test_verify_builds_one_lattice_and_keeps_none(capsys, monkeypatch, argv, built):
    refs = []
    original = cli.lattice_of

    def recording(m):
        lat = original(m)
        refs.append(weakref.ref(lat))
        return lat

    monkeypatch.setattr(cli, "lattice_of", recording)
    monkeypatch.setattr(zeta, "lattice_of", recording)
    gc.disable()  # a reference cycle would keep the lattice until a collection
    try:
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_OK and out.startswith("Z(s) = " if argv[0] == "z" else "Y(s) = ")
        assert len(refs) == built
        assert [r() for r in refs] == [None] * built
    finally:
        gc.enable()


def test_verify_scans_each_lower_interval_once_per_class(capsys, monkeypatch, tmp_path):
    """The Z and Y tables of one ``--verify`` lattice share its class list,
    so the lower interval of each class's first flat, the top's included,
    is scanned once per lattice: 62 scans over the eight large ``--verify``
    commands, where a scan per table made 124."""
    graph = tmp_path / "k6.graph"
    graph.write_text("v 6\n" + "".join(f"e {a} {b}\n" for a, b in itertools.combinations(range(6), 2)))
    built, scanned = [], []
    original, strict_subsets = zeta.lattice_of, LatticeOfFlats.strict_subsets

    def recording(m):
        built.append(original(m))
        return built[-1]

    def counting(self, i):
        scanned.append(i)
        return strict_subsets(self, i)

    monkeypatch.setattr(zeta, "lattice_of", recording)
    monkeypatch.setattr(LatticeOfFlats, "strict_subsets", counting)
    for spec in ("u:4,16", "u:3,7+u:3,7", f"graph:{graph}", "ext(u:4,14)"):
        for command in ("zeta", "upsilon"):
            assert run_cli(capsys, command, spec, "--verify")[0] == EXIT_OK, (command, spec)
    monkeypatch.undo()
    assert sorted(scanned) == sorted(at[0] for lat in built for at, _ in lat.classes)
    assert len(scanned) == 62


def test_plain_paths_build_no_pair_index(capsys, monkeypatch, catalog6, catalog7):
    """Plain zeta, upsilon, taylor and lattice, mu(F, E), both transfer
    formulas and a whole catalog pass read the Y table and the subset
    families, never the up-set index: 3^16 - 2^16 pairs on U(16,16)."""
    matroids = [e.matroid for e in catalog6]
    expected = [(zeta_by_flags(m), upsilon_by_flags(m)) for m in matroids]
    lattices = [lattice_of(m) for m in matroids if m.is_loopless()]
    mus = [[lat.mobius(f, lat.top) for f in lat.flats] for lat in lattices]
    transferred = [
        (m, zeta_by_recurrence(m.truncation()) if m.rank >= 2 else None,
         zeta_by_recurrence(m.free_extension()))
        for m in matroids if m.is_loopless() and m.rank >= 1
    ]
    lattice_rows = {}  # spec -> [(rank, elements, mu)] by the Mobius rows
    for spec in ("u:2,3+u:1,1", "u:3,7+u:3,7", "ext(u:4,14)"):
        lat = lattice_of(parse_matroid_spec(spec))
        lattice_rows[spec] = [
            (r, sorted(iter_bits(f)), lat.mobius(f, lat.top))
            for r, stratum in enumerate(lat.by_rank)
            for f in stratum
        ]

    def refuse(self):
        raise AssertionError("a plain path built the pair index")

    monkeypatch.setattr(LatticeOfFlats, "_supersets", property(refuse))
    for m, (z, y) in zip(matroids, expected):
        assert (compute_zeta(m), compute_upsilon(m)) == ((z, "y-sum"), (y, "covers"))
    for lat, column in zip(lattices, mus):
        assert [lat.mobius_to_top(f) for f in lat.flats] == column
    for m, truncated, extended in transferred:
        if truncated is not None:
            assert zeta_of_truncation_via_transfer(m) == truncated
        assert zeta_of_free_extension_via_transfer(m) == extended
    for spec, rows in lattice_rows.items():
        code, out, err = run_cli(capsys, "lattice", spec)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            f"rank {r}: {{{','.join(map(str, e))}}} mu = {mu}" for r, e, mu in rows
        ]
        code, out, err = run_cli(capsys, "lattice", spec, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {
            "flats": [{"rank": r, "elements": e, "mobius": mu} for r, e, mu in rows]
        }
    # the runner reports a raised AssertionError as a failure
    counts = summarize(run_all_checks(catalog7))
    assert counts == {"holds": 818, "fails": 0, "skipped": 7}
    code, out, err = run_cli(capsys, "zeta", "u:16,16", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert RationalFunction.from_json(json.loads(out)) == zeta_uniform_closed(16, 16)
    code, out, err = run_cli(capsys, "taylor", "u:14,16", "-k", "20", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    taylor = tuple(map(Fraction, json.loads(out)["taylor"]))
    assert taylor == uniform_taylor_coefficients(14, 16, 20)


@pytest.mark.parametrize("command, route", [
    pytest.param("zeta", "flags", id="zeta-zeta_by_flags"),
    pytest.param("zeta", "recurrence", id="zeta-zeta_by_recurrence"),
    pytest.param("zeta", "y-sum", id="zeta-zeta_by_ysum"),
    pytest.param("upsilon", "mobius", id="upsilon-upsilon_by_mobius"),
    pytest.param("upsilon", "recurrence", id="upsilon-upsilon_by_recurrence"),
    pytest.param("upsilon", "flags", id="upsilon-upsilon_by_flags"),
    pytest.param("upsilon", "covers", id="upsilon-upsilon_by_covers"),
])
def test_verify_disagreement_is_a_theorem_failure(capsys, monkeypatch, command, route):
    """--verify runs every row of the route table on the one lattice it
    builds, so a +1 planted in any one row, the ``auto`` row's included,
    fails it, and the message names that row."""
    routes = _routes(command)
    label, original = routes[route]
    monkeypatch.setitem(
        routes, route, (label, lambda *args: original(*args) + RationalFunction.one())
    )
    code, out, err = run_cli(capsys, command, "u:2,3", "--verify")
    assert code == EXIT_THEOREM_FAILURE
    assert out == "" and "verification failed" in err
    assert route in err.removeprefix("verification failed: ").split(), err


@pytest.mark.parametrize("command, route", [("zeta", "y-sum"), ("upsilon", "covers")])
def test_verify_catches_a_wrong_cover_weight(capsys, monkeypatch, command, route):
    """A cover weight of |G| - |F| + 1 in place of |G| - |F| corrupts the
    cover table, which the ``auto`` rows of both commands read: --verify
    exits 4 naming that row."""
    flat_table = zeta._flat_table

    def planted(lat, coefs):
        if not coefs.__qualname__.startswith("_cover_table."):
            return flat_table(lat, coefs)

        def wrong(i, below):
            terms, c0, c1 = coefs(i, below)
            return terms, c0, [c - 1 for c in c1]  # c1 = |F| - |G|

        return flat_table(lat, wrong)

    monkeypatch.setattr(zeta, "_flat_table", planted)
    code, out, err = run_cli(capsys, command, "u:2,3", "--verify")
    assert code == EXIT_THEOREM_FAILURE and out == ""
    assert route in err.removeprefix("verification failed: ").split(), err


@pytest.mark.parametrize("command", ["zeta", "upsilon"])
def test_verify_runs_each_row_once_per_component(capsys, monkeypatch, command):
    """Under --verify every row of the route table, three for Z and four for
    Y, runs exactly once on each component's lattice."""
    ran = Counter()  # (route, lattice) -> runs
    routes = _routes(command)
    assert len(routes) == {"zeta": 3, "upsilon": 4}[command]
    for route, (label, body) in list(routes.items()):
        def counted(lat, route=route, body=body):
            ran[route, lat] += 1
            return body(lat)

        monkeypatch.setitem(routes, route, (label, counted))
    code, out, _ = run_cli(capsys, command, "u:2,3+u:1,1+u:1,2", "--verify")
    assert code == EXIT_OK and out.startswith(("Z(s) = ", "Y(s) = "))
    lattices = {lat for _, lat in ran}
    assert sorted(lat.matroid.size for lat in lattices) == [1, 2, 3]
    assert set(ran) == {(route, lat) for route in routes for lat in lattices}
    assert set(ran.values()) == {1}


@pytest.mark.parametrize("argv", [
    "zeta u:2,3 --max-flags -1",
    "check all --max-ground 2 --jobs 0",
    "check all --max-ground 2 --jobs -3",
    "check all --max-ground -1",
    "check all --max-ground 2 --kmax -2",
    "taylor u:2,3 -k -1",
])
def test_counts_below_their_minimum_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE and out == ""
    assert "must be at least" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, text, message", [
    (["zeta", "u:\u0661,\u0662"], None, "error: at position 0: expected u:<r>,<n>"),
    (["zeta", "u:2,\u0663"], None, "error: at position 0: expected u:<r>,<n>"),
    (["zeta", "bases:{path}"], "n \uff13\nb \uff10\nb 1\nb +2\n", "'\uff13' is not an integer"),
    (["zeta", "bases:{path}"], "n 3\nb 0\nb 1\nb 1_0\n", "'1_0' is not an integer"),
    (["girth", "graph:{path}"], "v 1_1\ne 0 1\n", "'1_1' is not an integer"),
    (["taylor", "u:2,3", "-k", "\uff15"], None, "invalid int value: '\uff15'"),
    (["check", "all", "--max-ground", "1_0"], None, "invalid int value: '1_0'"),
    (["zeta", "u:2,3", "--max-flags", " 5"], None, "invalid int value: ' 5'"),
], ids=["arabic-indic-spec", "arabic-indic-n", "fullwidth-bases", "underscore-bases",
        "underscore-graph", "fullwidth-option", "underscore-option", "space-option"])
def test_integers_are_ascii_digits_with_an_optional_sign(capsys, tmp_path, argv, text, message):
    path = tmp_path / "atom.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err and "Traceback" not in err


def test_zeta_flag_cap(capsys):
    code, _, err = run_cli(
        capsys, "zeta", "u:2,3", "--algorithm", "flags", "--max-flags", "2"
    )
    assert code == EXIT_DOMAIN
    assert "at least 3 flags exceed the cap of 2" in err
    code, _, _ = run_cli(capsys, "zeta", "u:2,3", "--algorithm", "flags", "--max-flags", "0")
    assert code == EXIT_DOMAIN


def test_flag_cap_on_a_sum_is_per_component_for_flags_and_verify(capsys):
    # U(3,3) is three coloops: the flag route and --verify both cap each
    # component's lattice, which holds one flag, not the 13-flag Boolean lattice
    for mode in (["--algorithm", "flags"], ["--verify"]):
        code, out, err = run_cli(capsys, "zeta", "u:3,3", *mode, "--max-flags", "2")
        assert (code, err) == (EXIT_OK, "")
        assert out == "Z(s) = (1) / (s^3 + 3*s^2 + 3*s + 1)\n"


def test_upsilon_command(capsys):
    code, out, _ = run_cli(capsys, "upsilon", "u:1,3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["num"] == ["0", "-3"]
    assert payload["den"] == ["1", "3"]
    code, out, _ = run_cli(capsys, "upsilon", "u:2,3", "--verify")
    assert code == EXIT_OK
    assert out == "Y(s) = (6*s^2) / (3*s^2 + 5*s + 2)\n"


def test_upsilon_rejects_loops(capsys):
    code, _, err = run_cli(capsys, "upsilon", "u:0,2+u:1,1")
    assert code == EXIT_DOMAIN
    assert "loops" in err


def test_taylor_command(capsys):
    code, out, _ = run_cli(capsys, "taylor", "u:2,3", "-k", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"taylor": ["1", "-3", "6"]}
    code, out, _ = run_cli(capsys, "taylor", "u:2,3", "-k", "1")
    assert out == "a_0 = 1\na_1 = -3\n"
    code, out, _ = run_cli(capsys, "taylor", "u:2,3", "-k", "0")
    assert code == EXIT_OK and out == "a_0 = 1\n"


def test_taylor_prints_coefficients_past_the_int_str_digit_limit(capsys):
    # CPython 3.11+ refuses int/str conversions past 4300 digits by default
    code, out, err = run_cli(capsys, "taylor", "u:2,16", "-k", "5000", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    last = json.loads(out)["taylor"][-1]
    assert sum(c.isdigit() for c in last) > 4300


def test_huge_uniform_spec_gets_the_uniform_bound_message(capsys):
    code, out, err = run_cli(capsys, "zeta", "u:3," + "9" * 5000)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error: uniform matroid needs 0 <= r <= n <= 16: r=3, n=999")


@pytest.mark.parametrize("spec", [
    "u:3,17", "ext(u:8,16)", "u:8,9+u:8,8", "bases:{bases}", "graph:{graph}",
])
def test_every_17_element_input_is_a_ground_size_domain_error(capsys, tmp_path, spec):
    bases, graph = tmp_path / "b.txt", tmp_path / "g.txt"
    bases.write_text("n 17\nb 0\n", encoding="utf-8")
    dump_graph(17, [(v, v + 1) for v in range(16)] + [(0, 16)], graph)
    code, out, err = run_cli(capsys, "zeta", spec.format(bases=bases, graph=graph))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "16" in err and "Traceback" not in err


def test_negative_bases_size_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("n -1\nb 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "zeta", f"bases:{path}")
    assert (code, out, err) == (EXIT_USAGE, "", "error: line 1: negative size -1\n")


def test_girth_command(capsys, tmp_path):
    graph = tmp_path / "c4.graph"
    dump_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], graph)
    code, out, _ = run_cli(capsys, "girth", f"graph:{graph}")
    assert code == EXIT_OK and out.strip() == "girth = 4"
    code, out, _ = run_cli(capsys, "girth", "u:2,4", "--format", "json")
    assert json.loads(out) == {"girth": 3}


def test_lattice_command(capsys):
    code, out, _ = run_cli(capsys, "lattice", "u:2,3", "--format", "json")
    assert code == EXIT_OK
    flats = json.loads(out)["flats"]
    assert flats[0] == {"rank": 0, "elements": [], "mobius": 2}
    assert flats[-1] == {"rank": 2, "elements": [0, 1, 2], "mobius": 1}
    code, out, _ = run_cli(capsys, "lattice", "u:1,3")
    assert out == "rank 0: {} mu = -1\nrank 1: {0,1,2} mu = 1\n"


def test_lattice_rejects_loops(capsys):
    code, _, err = run_cli(capsys, "lattice", "u:0,1")
    assert code == EXIT_DOMAIN


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "zeta", "u:9,")
    assert code == EXIT_USAGE
    assert "position" in err
    code, _, _ = run_cli(capsys, "zeta", "u:2,3", "--algorithm", "nope")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "zeta", "u:4,2")
    assert code == EXIT_DOMAIN  # parses, fails validation
    code, _, err = run_cli(capsys, "zeta", "u:3,100000")
    assert code == EXIT_DOMAIN  # rejected before its subsets are enumerated


@pytest.mark.parametrize("kind", ["bases", "graph"])
def test_unreadable_file_atoms_are_usage_errors(capsys, tmp_path, kind):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\n")
    for path in (tmp_path, binary):
        code, out, err = run_cli(capsys, "zeta", f"{kind}:{path}")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: unreadable input: ") and "Traceback" not in err


def test_check_command(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "check", "all", "--max-ground", "3", "--out", str(tmp_path / "w")
    )
    assert code == EXIT_OK
    assert "summary:" in out
    assert not (tmp_path / "w").exists()  # no counterexamples, no files


def test_kderivative_kmax_is_not_an_option(capsys):
    # one constancy test decides every order of the k-derivative lemma
    code, out, err = run_cli(
        capsys, "check", "all", "--max-ground", "2", "--kderivative-kmax", "3"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --kderivative-kmax 3" in err


def test_check_command_empty_catalog(capsys):
    code, out, _ = run_cli(capsys, "check", "all", "--max-ground", "0")
    assert code == EXIT_OK
    assert "entries=0" in out and "holds=0" in out


def test_check_command_parallel(capsys):
    serial = run_cli(capsys, "check", "all", "--max-ground", "3")
    parallel = run_cli(capsys, "check", "all", "--max-ground", "3", "--jobs", "2")
    assert serial[0] == EXIT_OK
    assert parallel[:2] == serial[:2]


def test_check_command_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "check", "theorems", "--max-ground", "2", "--format", "json"
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(line["status"] == "holds" for line in lines)
    assert {line["check"] for line in lines} == {
        "girth-theorem",
        "k-derivative-lemma",
        "counting-identities",
    }


def test_check_counterexample_path_end_to_end(capsys, tmp_path, monkeypatch):
    import matzeta.checks as checks
    from fractions import Fraction

    victim = uniform(1, 3)  # the truncation of U(2,3)
    original = checks.zeta_taylor_prefix

    def perturbed(b, k):
        prefix = original(b, k)
        if b.matroid == victim:
            coeffs = list(prefix)
            coeffs[0] += Fraction(1)
            return tuple(coeffs)
        return prefix

    monkeypatch.setattr(checks, "zeta_taylor_prefix", perturbed)
    out_dir = tmp_path / "w"
    code, out, _ = run_cli(
        capsys,
        "check",
        "conjectures",
        "--max-ground",
        "3",
        "--out",
        str(out_dir),
    )
    assert code == EXIT_COUNTEREXAMPLE
    assert "fails" in out
    witness_files = list(out_dir.glob("*.json"))
    assert witness_files
    payload = json.loads(witness_files[0].read_text())
    assert payload["status"] == "fails" and "witness" in payload
    # an --out that cannot be a directory costs the witness files, not the verdict
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["check", "conjectures", "--max-ground", "3", "--out", str(blocker)]
    code, again, err = run_cli(capsys, *argv)
    assert (code, again) == (EXIT_COUNTEREXAMPLE, out)
    assert err.startswith(f"error: cannot write witnesses to {blocker}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_exit_codes_and_witness_files(tmp_path):
    ok = CheckReport("girth-theorem", "U(2,3)", "holds")
    theorem_fail = CheckReport(
        "girth-theorem", "U(2,3)", "fails", "k=1", {"lhs": "1", "rhs": "2"}
    )
    counterexample = CheckReport(
        "conjecture-upsilon", "U(2,3)", "fails", "k=2", {"lhs": "3", "rhs": "4"}
    )
    assert _check_exit_code([ok]) == EXIT_OK
    assert _check_exit_code([ok, theorem_fail, counterexample]) == EXIT_THEOREM_FAILURE
    out = tmp_path / "w"
    assert _check_exit_code([ok, counterexample], str(out)) == EXIT_COUNTEREXAMPLE
    files = list(out.glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["witness"] == {"lhs": "3", "rhs": "4"}
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _check_exit_code([ok, counterexample], str(blocker)) == EXIT_COUNTEREXAMPLE


def test_cli_deterministic_in_process(capsys):
    first = run_cli(capsys, "zeta", "tr(u:3,4)+ext(u:1,2)", "--format", "json")
    second = run_cli(capsys, "zeta", "tr(u:3,4)+ext(u:1,2)", "--format", "json")
    assert first == second
    third = run_cli(capsys, "check", "all", "--max-ground", "3")
    fourth = run_cli(capsys, "check", "all", "--max-ground", "3")
    assert third == fourth


@pytest.mark.parametrize("argv, lines", [
    ("lattice u:6,16", 1),  # 198 kB: more than a pipe holds, so writes follow the close
    ("zeta u:2,3", 0),  # closed before the one line is flushed
])
def test_a_reader_closing_early_ends_the_run_quietly(argv, lines):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, so text is left for the exit flush
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "matzeta", *argv.split()]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as run:
        for _ in range(lines):
            assert run.stdout.readline()
        run.stdout.close()
        err = run.stderr.read()
        assert (run.wait(), err) == (EXIT_OK, b"")


def test_cli_deterministic_subprocess():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "matzeta", "lattice", "u:2,4", "--format", "json"]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert len(payload["flats"]) == 1 + 4 + 1


# ---------------------------------------------------------------------------
# Exit-code contract under random input

# Digits 2 and 3 only: a legal uniform atom then has at most 3 elements, and
# six tokens make at most three of them, which keeps every example cheap.
_SPEC_TOKENS = [
    "u:", "2", "3", ",", "(", ")", "+", " ", "tr(", "ext(", "u:2,3", "x", ":",
    "bases:", "graph:",
]
_uniform_atoms = st.builds("u:{},{}".format, st.integers(0, 7), st.integers(0, 6))
_specs = st.one_of(
    st.lists(st.sampled_from(_SPEC_TOKENS), max_size=6).map("".join),
    _uniform_atoms,
    # nested within the parser's bound (cheap) or beyond it (rejected unbuilt)
    st.builds(
        lambda ops, atom, closed: "".join(ops) + atom + ")" * (len(ops) - (not closed)),
        st.one_of(
            st.lists(st.sampled_from(["tr(", "ext("]), max_size=3),
            st.lists(st.sampled_from(["tr(", "ext("]), min_size=MAX_NESTING + 1,
                     max_size=MAX_NESTING + 8),
        ),
        _uniform_atoms,
        st.booleans(),
    ),
)
_junk = st.sampled_from([""] * 10 + ["n 3\n", "b 0 9\n", "e 0 9\n", "b x\n", "q\n"])


@st.composite
def _bases_texts(draw):
    """Files of r-sets, mostly well-formed."""
    size = draw(st.integers(0, 6))
    r = draw(st.integers(0, size))
    row = st.sampled_from(list(itertools.combinations(range(size), r)))
    rows = draw(st.lists(row, max_size=10))
    return f"n {size}\n" + "".join(f"b {' '.join(map(str, x))}\n" for x in rows) + draw(_junk)


@st.composite
def _graph_texts(draw):
    """Graphs, mostly well-formed."""
    v = draw(st.integers(1, 5))
    vertex = st.integers(0, v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=7))
    return f"v {v}\n" + "".join(f"e {u} {w}\n" for u, w in edges) + draw(_junk)


@st.composite
def _commands(draw, spec):
    command = draw(st.sampled_from(["zeta", "upsilon", "taylor", "girth", "lattice"]))
    argv = [command, spec, "--format", draw(st.sampled_from(["text", "json"]))]
    if command in ("zeta", "upsilon"):
        argv += ["--max-flags", str(draw(st.integers(-1, 200)))]
        argv += ["--verify"] if draw(st.booleans()) else []
    elif command == "taylor":
        argv += ["-k", str(draw(st.integers(-1, 3)))]
    return argv


def _assert_contract(capsys, argv) -> None:
    code, _, err = run_cli(capsys, *argv)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_THEOREM_FAILURE, EXIT_COUNTEREXAMPLE}
    assert "Traceback" not in err


_fuzz = settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_fuzz
@given(data=st.data())
def test_exit_code_contract_on_random_specs(capsys, data):
    _assert_contract(capsys, data.draw(_commands(data.draw(_specs))))


@_fuzz
@given(data=st.data())
def test_exit_code_contract_on_random_files(capsys, tmp_path, data):
    kind, text = data.draw(st.one_of(
        st.tuples(st.just("bases"), _bases_texts()),
        st.tuples(st.just("graph"), _graph_texts()),
    ))
    path = tmp_path / f"input.{kind}"
    path.write_text(text, encoding="utf-8")
    wrap = data.draw(st.sampled_from(["{}", "tr({})", "{} + u:1,1", "ext({})"]))
    _assert_contract(capsys, data.draw(_commands(wrap.format(f"{kind}:{path}"))))
