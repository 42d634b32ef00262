"""One fresh interpreter's share of a benchmark run.

Started by ``run.py`` as ``python3 perfbench/round.py <mode> ...`` from the
root of a checkout; prints one JSON object on stdout.  Modes:

* ``setup``: import ``triapn`` and build the verified identity chain.
* ``identity --name N``: the same, then run identity check N cold.
* ``round``: set up, run a workload's ops back to back through
  ``triapn.cli.main``, then check every result.  With ``--trace FILE`` the
  layers are wrapped (see ``spans.py``), the spans written to FILE, and
  surface totals also checked against ``geometry.count_vs_band``.

Each round runs in its own interpreter so that no op can reuse a result
computed for an identical op of an earlier round.  Every set-up and every
op is framed by the speed probe (``probe_s``), so that its time can be
scaled to a fixed machine speed.  A round reports the median of its probes,
which a single odd probe does not move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LIBRARY_CALL, WORKER_NOTE, Tracer  # noqa: E402


def import_triapn():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "triapn" / "cli.py").is_file():
        raise SystemExit(f"triapn sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import triapn
    import triapn.cli  # noqa: F401  (loads every layer, as a CLI process does)
    if Path(triapn.__file__).resolve().parent != (SRC / "triapn").resolve():
        raise SystemExit(f"imported triapn from {triapn.__file__}, not from {SRC}")
    return triapn


def timed_setup(tracer: Tracer | None = None):
    t0 = time.perf_counter()
    triapn = import_triapn()
    t1 = time.perf_counter()
    missing = tracer.install(triapn) if tracer is not None else []
    t2 = time.perf_counter()
    triapn.identities.verified_surface_coefficients()
    t3 = time.perf_counter()
    return triapn, {"import_s": t1 - t0, "chain_s": t3 - t2, "setup_s": (t1 - t0) + (t3 - t2),
                    "untraced_names": missing}


def run_op(triapn, op: workloads.Op) -> dict:
    """Run one op in-process; returns its time, exit code and output size."""
    err = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = triapn.cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not a failed benchmark
        code, error = -1, traceback.format_exc()[-2000:]
    seconds = time.perf_counter() - t0
    try:
        nbytes = Path(op.out).stat().st_size
    except OSError:
        nbytes = 0
    return {"kind": op.kind, "key": op.key, "m": op.m, "seconds": seconds, "code": code,
            "bytes": nbytes, "error": error or (err.getvalue().strip()[-300:] if code else None)}


def check_results(triapn, ops, results, refs, band: bool) -> None:
    oracles = workloads.Oracles(triapn)
    for op, res in zip(ops, results):
        try:
            with open(op.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = None
        try:
            reason = workloads.check_op(op, res["code"], doc, refs, oracles, band=band)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed result: {type(exc).__name__}: {exc}"
        if reason and res["error"]:
            reason = f"{reason}: {res['error']}"
        res["failure"] = reason
        if op.kind in ("witness", "sampled") and isinstance(doc, dict):
            res.update(found=doc.get("verdicts", {}).get("found"),
                       scanned=doc.get("scanned"), draws_used=doc.get("draws_used"))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def trace_summary(tracer: Tracer, op_spans: list[tuple[str, int]]) -> dict:
    kids = tracer.direct_children({sid for _, sid in op_spans})
    return {
        "spans": len(tracer),
        "totals": tracer.totals(),
        "generator_calls": dict(tracer.generator_calls),
        "ops": [{"kind": kind, "s": tracer.duration(sid),
                 "library_s": kids[sid].get(LIBRARY_CALL[kind], 0.0)}
                for kind, sid in op_spans],
        "note": WORKER_NOTE,
    }


def mode_round(args) -> dict:
    tracer = Tracer() if args.trace else None
    triapn, setup = timed_setup(tracer)
    ops = workloads.make_ops(args.workload, args.seed, Path(args.workdir),
                             smoke=args.smoke, threads=args.threads)[:args.limit]
    results, op_spans = [], []
    probes = [probe_s()]
    for op in ops:
        if tracer is None:
            results.append(run_op(triapn, op))
        else:
            with tracer.span("op." + op.kind) as sid:
                results.append(run_op(triapn, op))
            op_spans.append((op.kind, sid))
        probes.append(probe_s())
    out = {"setup": setup, "wall_s": math.fsum(res["seconds"] for res in results),
           "probe_s": statistics.median(probes), "ops": results}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = trace_summary(tracer, op_spans)
        tracer.write(args.trace)
    check_results(triapn, ops, results, workloads.load_references(), band=bool(args.trace))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def mode_setup(args) -> dict:
    before = probe_s()
    out = timed_setup()[1]
    out["probe_s"] = (before + probe_s()) / 2
    return out


# About 10 ms: short enough to sit next to every op, long enough to ride over
# a single scheduler tick.
PROBE_STEPS = 60_000


def probe_s() -> float:
    """How long a fixed pure-Python loop takes in this interpreter right now.

    The loop is the benchmark's own code, so no change to ``triapn`` moves it;
    it moves only with the speed of the machine.
    """
    table = list(range(256))
    seen = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        a = i & 255
        acc ^= table[a] * (i >> 3)
        seen[a] = acc
    return time.perf_counter() - t0


def mode_identity(args) -> dict:
    triapn = import_triapn()
    t0 = time.perf_counter()
    report = triapn.identities.run_all(only=args.name)
    return {"name": args.name, "s": time.perf_counter() - t0, "passed": report.all_pass}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup").set_defaults(fn=mode_setup)
    ident = sub.add_parser("identity")
    ident.set_defaults(fn=mode_identity)
    ident.add_argument("--name", required=True)
    rnd = sub.add_parser("round")
    rnd.set_defaults(fn=mode_round)
    rnd.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--workdir", required=True)
    rnd.add_argument("--threads", type=int, default=workloads.THREADS)
    rnd.add_argument("--limit", type=int, default=None, help="run only the first N ops")
    rnd.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    rnd.add_argument("--trace", help="trace the layers and write the spans here")
    args = parser.parse_args(argv)
    print(json.dumps(args.fn(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
