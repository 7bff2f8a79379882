"""Shows that the benchmark's output checks fire.

For each workload, a few cheap operations run through ``run.measure`` twice:
once as generated, which must pass, and once with a perturbed reference,
which must count every perturbed operation as failed, print
``"correct": false`` and exit non-zero.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run


def _catalog(ops):
    ops[:] = ops[:3]
    check, _ = ops[1].expected[0]
    ops[1].expected = [(check, "fails")] + ops[1].expected[1:]
    return 1


def _large_verify(ops):
    ops[:] = [op for op in ops if op.name == "zeta ext(u:4,14)"]
    num = ops[0].expected["num"]
    ops[0].expected = {**ops[0].expected, "num": [str(int(num[0]) + 1)] + num[1:]}
    return 1


def _load_bases(ops):
    # A file that must be accepted, once expected to be rejected and once
    # expected to have lost a basis.
    (op,) = [op for op in ops if op.name == "U(4,11)"]
    size, bases = op.expected[1]
    ops[:] = [
        dataclasses.replace(op, expected=("rejected", None)),
        dataclasses.replace(op, expected=("accepted", (size, bases - {min(bases)}))),
    ]
    return 2


def _subset(perturb):
    """The operations perturb keeps, left unperturbed."""
    def keep(wl):
        perturbed = [dataclasses.replace(op) for op in wl.ops]
        perturb(perturbed)
        names = {op.name for op in perturbed}
        wl.ops = [op for op in wl.ops if op.name in names]
    return keep


def _run(workload: str, adjust) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.measure(workload, seed=1, seconds=0, trace=False, adjust=adjust)
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    ok = True
    for workload, perturb in (
        ("catalog-check", _catalog),
        ("large-verify", _large_verify),
        ("load-bases", _load_bases),
    ):
        code, result = _run(workload, _subset(perturb))
        clean = code == 0 and result["correct"] and result["failed"] == 0
        wanted = []
        code, result = _run(workload, lambda wl: wanted.append(perturb(wl.ops)))
        fired = code == 1 and not result["correct"] and result["failed"] == wanted[0]
        print(f"{workload}: unperturbed {'passes' if clean else 'FAILS'}, "
              f"perturbed {'is caught' if fired else 'is NOT caught'} "
              f"({result['failed']} of {result['attempted']} failed)")
        ok = ok and clean and fired
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
