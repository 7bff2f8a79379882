"""Command-line front end.

Matroids are given by a compound spec string:

    atom  := u:<r>,<n> | bases:<path> | graph:<path>
    term  := tr( expr ) | ext( expr ) | atom
    expr  := term { + term }

Prefix operators bind tighter than the infix sum, and nest at most
MAX_NESTING deep.  Exit codes: 0 success, 2 usage/parse error, 3 domain error
(loops where disallowed, caps, bad construction), 4 theorem-check failure or
a ``--verify`` disagreement between algorithms, 5 conjecture counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .algebra import taylor_prefix
from .checks import (
    CONJECTURE_CHECK_NAMES,
    FAILS,
    CheckReport,
    build_catalog,
    run_all_checks,
    summarize,
)
from .files import FileFormatError, _ascii_int, load_bases, load_graphic_matroid
from .lattice import FlagCapExceeded, lattice_of
from .matroid import MAX_GROUND_SIZE, Matroid, iter_bits, uniform
from .zeta import (
    UPSILON_ALGORITHMS,
    ZETA_ALGORITHMS,
    VerificationError,
    compute_upsilon,
    compute_zeta,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_THEOREM_FAILURE = 4
EXIT_COUNTEREXAMPLE = 5

# No legal spec nests deeper: each tr(...) uses up one unit of rank and each
# ext(...) adds one element, and both are bounded by the ground size.
MAX_NESTING = 2 * MAX_GROUND_SIZE


class SpecParseError(ValueError):
    """Malformed matroid spec, with the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_UNIFORM_RE = re.compile(r"u:([0-9]+),([0-9]+)")
_PREFIX_RE = re.compile(r"(tr|ext)\s*\(")
_FILE_RE = re.compile(r"(bases|graph):([^+()\s]+)")


class _SpecParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> Matroid:
        m = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise SpecParseError("unexpected trailing input", self.pos)
        return m

    def _expr(self) -> Matroid:
        out = self._term()
        while True:
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "+":
                self.pos += 1
                out = out.direct_sum(self._term())
            else:
                return out

    def _term(self) -> Matroid:
        self._skip_ws()
        prefix = _PREFIX_RE.match(self.text, self.pos)
        if prefix:
            op = prefix.group(1)
            if self.depth == MAX_NESTING:
                raise SpecParseError(f"tr(/ext( nested deeper than {MAX_NESTING}", self.pos)
            self.pos = prefix.end()
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            self._skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise SpecParseError(f"missing ')' after {op}(...", self.pos)
            self.pos += 1
            return inner.truncation() if op == "tr" else inner.free_extension()
        return self._atom()

    def _atom(self) -> Matroid:
        self._skip_ws()
        u = _UNIFORM_RE.match(self.text, self.pos)
        if u:
            self.pos = u.end()
            return uniform(int(u.group(1)), int(u.group(2)))
        f = _FILE_RE.match(self.text, self.pos)
        if f:
            self.pos = f.end()
            path = Path(f.group(2))
            if not path.exists():
                raise SpecParseError(f"no such file: {path}", f.start(2))
            if f.group(1) == "bases":
                return load_bases(path)
            return load_graphic_matroid(path)
        raise SpecParseError(
            "expected u:<r>,<n>, bases:<path>, graph:<path>, tr(...) or ext(...)",
            self.pos,
        )


def parse_matroid_spec(text: str) -> Matroid:
    return _SpecParser(text).parse()


# ---------------------------------------------------------------------------
# Commands


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _note_loops(m: Matroid) -> None:
    """The stderr note of the commands that report zeta 0 for loops."""
    if not m.is_loopless():
        print("note: matroid has loops; its zeta value is 0", file=sys.stderr)


def _emit(args, payload: dict, lines) -> None:
    """Print a command's result: ``payload`` as one JSON line, or ``lines``."""
    if args.format == "json":
        _emit_json(payload)
    else:
        for line in lines:
            print(line)


def _cmd_value(args) -> int:
    """``zeta`` or ``upsilon``: the subparser binds the value's symbol and
    its compute function, to which ``--verify`` passes the mode ``"verify"``."""
    m = parse_matroid_spec(args.spec)
    symbol, compute = args.value
    value, label = compute(m, "verify" if args.verify else args.algorithm, max_flags=args.max_flags)
    _note_loops(m)  # reached with loops only by Z: every Y route raises on them
    text = f"{symbol}(s) = {value.to_text('s')}"
    _emit(args, {"algorithm": label, **value.to_json()}, [text])
    return EXIT_OK


def _cmd_taylor(args) -> int:
    m = parse_matroid_spec(args.spec)
    _note_loops(m)
    prefix = taylor_prefix(compute_zeta(m)[0], args.order)
    lines = [f"a_{k} = {c}" for k, c in enumerate(prefix)]
    _emit(args, {"taylor": [str(c) for c in prefix]}, lines)
    return EXIT_OK


def _cmd_girth(args) -> int:
    g = parse_matroid_spec(args.spec).girth()
    _emit(args, {"girth": g}, [f"girth = {g}"])
    return EXIT_OK


def _cmd_lattice(args) -> int:
    lat = lattice_of(parse_matroid_spec(args.spec))
    rows = [
        (r, sorted(iter_bits(f)), lat.mobius_to_top(f))
        for r, stratum in enumerate(lat.by_rank)
        for f in stratum
    ]
    _emit(
        args,
        {"flats": [{"rank": r, "elements": e, "mobius": mu} for r, e, mu in rows]},
        (f"rank {r}: {{{','.join(map(str, e))}}} mu = {mu}" for r, e, mu in rows),
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    suites = ("theorems", "conjectures") if args.suite == "all" else (args.suite,)
    catalog = build_catalog(args.max_ground)
    reports = run_all_checks(
        catalog,
        suites=suites,
        kmax=args.kmax,
        jobs=args.jobs,
    )
    if args.format == "json":
        for report in reports:
            _emit_json(report.to_json())
    else:
        for report in reports:
            suffix = f"  ({report.reason})" if report.reason else ""
            print(f"{report.status:<8} {report.check:<24} {report.entry}{suffix}")
        counts = summarize(reports)
        print(
            f"summary: entries={len(catalog)} holds={counts['holds']} "
            f"fails={counts['fails']} skipped={counts['skipped']}"
        )
    return _check_exit_code(reports, args.out)


def _check_exit_code(reports: list[CheckReport], witness_dir: str | None = None) -> int:
    theorem_failures = [
        r for r in reports if r.status == FAILS and r.check not in CONJECTURE_CHECK_NAMES
    ]
    counterexamples = [
        r for r in reports if r.status == FAILS and r.check in CONJECTURE_CHECK_NAMES
    ]
    if counterexamples and witness_dir:
        out = Path(witness_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for r in counterexamples:
                safe = re.sub(r"[^A-Za-z0-9_.+-]", "_", f"{r.check}__{r.entry}")
                (out / f"{safe}.json").write_text(
                    json.dumps(r.to_json(), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8",
                )
        except OSError as exc:  # the reports are on stdout already; the verdict stands
            reason = exc.strerror or exc
            print(f"error: cannot write witnesses to {out}: {reason}", file=sys.stderr)
    if theorem_failures:
        return EXIT_THEOREM_FAILURE
    if counterexamples:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        value = _ascii_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


_non_negative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matzeta",
        description="Exact topological zeta functions of matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, algorithms=None) -> None:
        p.add_argument("spec", help="matroid spec, e.g. 'u:2,3', 'tr(u:3,4)+ext(u:1,2)'")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if algorithms:
            p.add_argument("--algorithm", choices=algorithms, default="auto")
            p.add_argument(
                "--verify",
                action="store_true",
                help="compute by every algorithm and require exact agreement",
            )
            p.add_argument(
                "--max-flags", type=_non_negative_int, default=None, dest="max_flags"
            )

    p_zeta = sub.add_parser("zeta", help="topological zeta function")
    add_common(p_zeta, algorithms=ZETA_ALGORITHMS)
    p_zeta.set_defaults(fn=_cmd_value, value=("Z", compute_zeta))

    p_ups = sub.add_parser("upsilon", help="Mobius inversion of the zeta function")
    add_common(p_ups, algorithms=UPSILON_ALGORITHMS)
    p_ups.set_defaults(fn=_cmd_value, value=("Y", compute_upsilon))

    p_taylor = sub.add_parser("taylor", help="expansion coefficients of zeta at 0")
    add_common(p_taylor)
    p_taylor.add_argument("-k", "--order", type=_non_negative_int, default=4)
    p_taylor.set_defaults(fn=_cmd_taylor)

    p_girth = sub.add_parser("girth", help="smallest circuit size")
    add_common(p_girth)
    p_girth.set_defaults(fn=_cmd_girth)

    p_lat = sub.add_parser("lattice", help="flats by rank with Mobius values")
    add_common(p_lat)
    p_lat.set_defaults(fn=_cmd_lattice)

    p_check = sub.add_parser("check", help="run the verification suites on the catalog")
    p_check.add_argument("suite", choices=("theorems", "conjectures", "all"))
    p_check.add_argument("--max-ground", type=_non_negative_int, default=7, dest="max_ground")
    p_check.add_argument("--kmax", type=_non_negative_int, default=4)
    p_check.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--out", default=None, help="directory for counterexample witnesses")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    # exact values print in full: lift CPython's int/str digit limit (3.11+)
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone early raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early: stop quietly, as it asked
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return EXIT_OK
    except (SpecParseError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FlagCapExceeded) as exc:  # LoopsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_THEOREM_FAILURE


if __name__ == "__main__":
    sys.exit(main())
