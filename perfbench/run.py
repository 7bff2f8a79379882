"""Benchmark for matzeta: three single-process workloads, exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-check --seed 1 --seconds 30 --trace 0

Workloads (all in one process, ``jobs=1``, no threads):

- ``catalog-check``: ``run_all_checks`` over ``build_catalog(7)``, both suites,
  one operation per catalog entry (165 entries, 825 reports).  This is what
  ``matzeta check all --max-ground 7`` waits for; ``algebra`` dominates it.
- ``large-verify``: ``cli.main([zeta|upsilon, SPEC, "--verify", "--format",
  "json"])`` for ``u:4,16``, ``u:3,7+u:3,7``, the graph K6 and
  ``ext(u:4,14)``: 8 commands on the biggest matroids the 16-element bound is
  for; ``lattice`` and ``zeta`` dominate it.
- ``load-bases``: ``files.load_bases`` on U(6,12), U(6,12) without one basis,
  a non-matroid (U(6,12) without two bases sharing 5 elements, which must be
  rejected) and U(4,11); basis-exchange validation in ``matroid`` dominates.

Set-up (fresh import of matzeta, input generation, references) is repeated
three times and its median reported as ``setup_s``.  Every timed pass starts
cold: the catalog runner's Z/Y memos are cleared and every matroid is built
anew.  Whole passes run until the next one would end after ``--seconds``
(at least one).  ``wall_s`` is the median pass; ``op_p50_ms`` and
``op_tail_ms`` are taken over the operations' median times across passes.

Every time in the result (``wall_s``, ``op_p50_ms``, ``op_tail_ms``,
``setup_s``, ``trace.wall_s``) is busy time at a fixed reference speed:
``speed.py`` samples the machine's current speed every 20 ms with a fixed
calibration loop and rescales each stretch of the run by it, because the
shared machine this was built on drifts by 25% within seconds.  The plain
clock values are in the details line (``raw``, ``pass_raw_wall_s``).
Per-layer span times are plain clock seconds.

With ``--trace 1`` the run makes one untraced pass, then two traced passes
that wrap matzeta's public functions from outside (see ``tracer.py``); it
prints the per-layer metrics, the tracing overhead (traced over untraced pass
time), and fails if any call count differs between the two traced passes.

Output: a details line (environment, per-pass and per-operation times,
error texts, layer shares), then one JSON result line.  A run whose outputs
are not all exactly right prints ``"correct": false`` and exits 1; a
directory without the matzeta sources exits 2 without a result.

Deliberately not measured:
- the tier-1 test suite: about 44 s, hypothesis varies its inputs between
  runs, and its longest test is the catalog run ``catalog-check`` covers;
- ``upsilon u:4,8+u:4,8 --verify``: runs about 330 s before exiting 3,
  because ``upsilon_by_mobius`` runs before the flag-cap check (a bug, not a
  workload);
- ``u:8,16``: minutes per call with the current O(F^2) lattice recurrences.

``perfbench/selftest.py`` shows that the output checks fire.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from speed import SpeedSampler
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MODULES = ("algebra", "matroid", "files", "lattice", "zeta", "checks", "cli")
TRACED_PASSES = 2
CHECKS = ("girth_theorem", "k_derivative_lemma", "counting_identities",
          "conjecture_truncation", "conjecture_upsilon")
ZETA_FUNCTIONS = ("zeta_by_recurrence", "upsilon_by_recurrence", "upsilon_by_mobius",
                  "zeta_by_flags", "upsilon_by_flags")


def _purge_matzeta() -> None:
    for name in [n for n in sys.modules if n == "matzeta" or n.startswith("matzeta.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: Path):
    """Import matzeta afresh and build the workload, SETUP_REPS times.

    Returns the last workload built, its modules and the clock span of each
    repetition.
    """
    spans = []
    for _ in range(SETUP_REPS):
        _purge_matzeta()
        gc.collect()
        start = time.perf_counter()
        importlib.import_module("matzeta")
        mz = SimpleNamespace(
            **{name: importlib.import_module(f"matzeta.{name}") for name in MODULES}
        )
        wl = workloads.BUILDERS[workload](mz, seed, workdir)
        spans.append((start, time.perf_counter()))
    return wl, mz, spans


def run_pass(wl) -> dict:
    """Run every operation of the workload once from a cold state, recording
    its clock span, then check the outputs."""
    wl.reset()
    gc.collect()
    spans, errors = [], []
    for op in wl.ops:
        start = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising operation is a counted error
            error = f"raised {type(exc).__name__}: {exc}"
        spans.append((start, time.perf_counter()))
        if error is None:
            try:
                error = op.check(op.expected, output)
            except Exception as exc:  # noqa: BLE001 - output of an unexpected shape
                error = f"output not checkable: {type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(f"{op.name}: {error}")
    return {"spans": spans, "errors": errors}


def timed_passes(wl, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is; the maximum (100) when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _layer_metrics(tracer, mz) -> dict[str, float]:
    t = tracer
    memo = mz.checks._zeta.cache_info()
    lookups = memo.hits + memo.misses
    out = {
        "algebra.rf_init_calls": t.calls("algebra.rf_init"),
        "algebra.rf_init_s": t.total("algebra.rf_init"),
        "algebra.derivative_calls": t.calls("algebra.derivative"),
        "algebra.derivative_self_s": t.self_time("algebra.derivative"),
        "algebra.poly_gcd_calls": t.calls("algebra.poly_gcd"),
        "algebra.taylor_prefix_s": t.total("algebra.taylor_prefix"),
        "checks.k_derivative_lemma_self_s": t.self_time("checks.k_derivative_lemma"),
        "checks.zeta_memo_hit_ratio": memo.hits / lookups if lookups else 0.0,
        "matroid.restriction_calls": t.calls("matroid.restriction"),
        "lattice.minor_reduced_chi_calls": t.calls("lattice.minor_reduced_chi"),
        "lattice.lattice_of_calls": t.calls("lattice.lattice_of"),
        "lattice.lattice_of_s": t.total("lattice.lattice_of"),
        # sizes of every lattice built, read after the pass, outside the timings
        "lattice.flats": sum(len(lat) for lat in t.lattices),
        "lattice.flag_count": sum(lat.flag_count for lat in t.lattices),
        "lattice.mobius_calls": t.calls("lattice.mobius"),
        "lattice.mobius_s": t.total("lattice.mobius"),
        "zeta.upsilon_by_mobius_self_s": t.self_time("zeta.upsilon_by_mobius"),
        "matroid.construct_calls": t.calls("matroid.construct"),
        "matroid.construct_s": t.total("matroid.construct"),
        "files.load_bases_s": t.total("files.load_bases"),
        "files.parse_self_s": t.self_time("files.load_bases"),
        "cli.parse_matroid_spec_s": t.total("cli.parse_matroid_spec"),
        "cli.main_s": t.total("cli.main"),
    }
    for check in CHECKS:
        out[f"checks.{check}_s"] = t.total(f"checks.{check}")
    for fn in ZETA_FUNCTIONS:
        out[f"zeta.{fn}_calls"] = t.calls(f"zeta.{fn}")
        if fn != "upsilon_by_mobius":
            out[f"zeta.{fn}_s"] = t.total(f"zeta.{fn}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self(layer)
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced_passes(wl, mz) -> tuple[dict, list[dict], dict, dict]:
    """One untraced pass, then TRACED_PASSES traced ones from the same cold
    state.  Returns the untraced pass, the traced passes, the per-layer
    metrics (span times as plain clock seconds) and the span edges."""
    untraced = run_pass(wl)
    tracer = Tracer()
    tracer.install()
    passes, layer_runs, counts = [], [], []
    try:
        for _ in range(TRACED_PASSES):
            tracer.reset()
            passes.append(run_pass(wl))
            layer_runs.append(_layer_metrics(tracer, mz))
            counts.append(tracer.call_counts())
            edges = dict(tracer.edges)
            tracer.lattices.clear()
    finally:
        tracer.uninstall()
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"call counts differ between traced passes: {counts}")
    # Counts repeat exactly (checked above); times are the median of the passes.
    layers = {
        name: layer_runs[0][name] if _layer_unit(name) == "count"
        else statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    return untraced, passes, layers, edges


def _environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "seed": seed,
    }


def _timed(passes: list[dict], speed: SpeedSampler) -> None:
    """Turn each pass's clock spans into reference and plain times."""
    for p in passes:
        p["times"] = [speed.reference(a, b) for a, b in p["spans"]]
        p["raw_times"] = [speed.busy(a, b) for a, b in p["spans"]]
        p["wall"] = sum(p["times"])
        p["raw_wall"] = sum(p["raw_times"])
        p["clock_wall"] = sum(b - a for a, b in p["spans"])


def report(wl, passes: list[dict], metrics: dict, extra: dict, seed: int) -> int:
    """Print the details line and the result line; return the exit code."""
    attempted = sum(len(p["times"]) for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    per_op = {
        op.name: round(1000 * t, 3) for op, t in zip(wl.ops, _per_op(passes, "times"))
    }
    details = {
        "workload": wl.name,
        "environment": _environment(seed),
        **wl.facts,
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall"], 4) for p in passes],
        "error_rate": len(errors) / attempted,
        "errors": errors[:20],
        "op_ms": per_op if len(per_op) <= 16 else "omitted: more than 16 operations",
        **extra,
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def _per_op(passes: list[dict], key: str) -> list[float]:
    """Each operation's median time over the passes, so that the statistics
    below do not depend on how many passes fitted into the run."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def end_to_end(passes: list[dict], setup_spans, speed: SpeedSampler) -> tuple[dict, dict]:
    samples = _per_op(passes, "times")
    raw_samples = _per_op(passes, "raw_times")
    tail_s, tail_pct = tail(samples)
    setup_s = statistics.median(speed.reference(a, b) for a, b in setup_spans)
    metrics = {
        "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    extra = {
        "op_samples": len(samples),
        "op_tail_percentile": round(tail_pct, 2),
        "raw": {
            "wall_s": statistics.median(p["raw_wall"] for p in passes),
            "op_p50_ms": 1000 * statistics.median(raw_samples),
            "op_tail_ms": 1000 * tail(raw_samples)[0],
            "setup_s": statistics.median(speed.busy(a, b) for a, b in setup_spans),
        },
    }
    return metrics, extra


def per_layer(untraced, passes, layers, edges) -> tuple[dict, dict]:
    wall = statistics.median(p["wall"] for p in passes)
    clock_wall = statistics.median(p["clock_wall"] for p in passes)
    layers = dict(layers)
    layers["trace.wall_s"] = wall
    layers["trace.overhead_ratio"] = wall / untraced["wall"]
    metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    extra = {
        "untraced_wall_s": untraced["wall"],
        "call_counts_repeat": True,
        "edges_s": {f"{a} > {b}": round(v, 6) for (a, b), v in sorted(edges.items())},
        # Span times are plain clock seconds that include the speed sampler's
        # interruptions, so they are compared with the passes' clock time.
        "shares_of_traced_clock_wall": {
            "algebra.rf_init_s+algebra.derivative_self_s":
                (layers["algebra.rf_init_s"] + layers["algebra.derivative_self_s"]) / clock_wall,
            "zeta.self_s+lattice.self_s":
                (layers["zeta.self_s"] + layers["lattice.self_s"]) / clock_wall,
            "matroid.construct_s": layers["matroid.construct_s"] / clock_wall,
            **{f"{layer}.self_s": layers[f"{layer}.self_s"] / clock_wall for layer in LAYERS},
        },
    }
    return metrics, extra


def measure(workload: str, seed: int, seconds: float, trace: bool, adjust=None) -> int:
    """Set up, measure and report one run; ``adjust(wl)``, if given, may
    change the workload after set-up (the self-test perturbs references)."""
    if not (SRC / "matzeta" / "__init__.py").is_file():
        print(f"error: matzeta sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    speed = SpeedSampler()
    speed.start()
    try:
        wl, mz, setup_spans = setup(workload, seed, workdir)
        if adjust is not None:
            adjust(wl)
        if trace:
            untraced, passes, layers, edges = traced_passes(wl, mz)
        else:
            passes = timed_passes(wl, seconds)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if trace:
        passes = [untraced] + passes
    _timed(passes, speed)
    if trace:
        metrics, extra = per_layer(untraced, passes[1:], layers, edges)
    else:
        metrics, extra = end_to_end(passes, setup_spans, speed)
    return report(wl, passes, metrics, extra, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
