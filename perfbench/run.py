"""triapn benchmark: closed-loop CLI workloads with correctness checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {spectrum,witness,surface} --seed N \
        --seconds S --trace {0,1}

One client runs a workload's ops back to back through ``triapn.cli.main``
(see ``workloads.py``).  Each round of ops runs in a fresh interpreter
(``round.py``), and every result is checked against the seed-commit
references and independent oracles.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
21 fresh interpreters, spread over the run); the time of one round of ops
and the geometric mean of the op times (each op's median over the rounds
that fit in ``--seconds``, at least three), all three scaled to a fixed
machine speed; and the median peak memory of a round.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from the fastest traced round's spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine and the run.  Exit code 2 means the program under test is missing,
1 that a benchmark process failed; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import CALLS_AND_TIME, WORKER_NOTE  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_ROUND = 7   # set-up samples taken before each of the first MIN_ROUNDS rounds
TRACE_PAIRS = 3       # untraced/traced rounds alternated in a traced run
# Scaled times are seconds on a machine where round.probe_s() reads this; on
# the 2-vCPU Xeon the benchmark was defined on it mostly read 8-14 ms.
PROBE_REF_S = 0.010
# Every child must end by then, so that a run ends within three minutes.
DEADLINE = time.monotonic() + 170
IDENTITY_CHECKS = (
    "trivial_solutions", "z_elimination_1", "z_elimination_2", "quadratic_combination",
    "x4_coefficients", "linearization", "obstruction_factorization",
    "eliminant_factorization", "gamma0_curve", "degenerate_locus",
    "u_nonroot_of_unity_m3", "u_nonroot_of_unity_m6",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_gmean_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{kind}_s": "s" for kind in workloads.KINDS},
    "fail_ratio": "ratio",
    "gf2m.make_field_calls": "count",
    "gf2m.make_field_s": "s",
    "mpoly.resultant_calls": "count",
    "mpoly.resultant_s": "s",
    "mpoly.divide_exact_calls": "count",
    "mpoly.divide_exact_s": "s",
    **{f"identities.{name}_s": "s" for name in IDENTITY_CHECKS},
    "identities.chain_s": "s",
    "derivative.spectrum_s": "s",
    "derivative.spectrum_triples_per_s": "1/s",
    "derivative.spectrum_1t_s": "s",
    "derivative.fanout_speedup": "ratio",
    "derivative.witness_scan_s": "s",
    "derivative.witness_scanned": "count",
    "derivative.matrix_calls": "count",
    "derivative.matrix_s": "s",
    "derivative.kernel_dim_calls": "count",
    "derivative.kernel_dim_s": "s",
    "derivative.kernel_basis_calls": "count",
    "derivative.kernel_basis_s": "s",
    "derivative.cert_build_calls": "count",
    "derivative.cert_build_s": "s",
    "derivative.cert_verify_calls": "count",
    "derivative.cert_verify_s": "s",
    "derivative.verify_solution_calls": "count",
    "derivative.sampled_draws": "count",
    "derivative.sampled_hit_ratio": "ratio",
    "geometry.evaluator_calls": "count",
    "geometry.evaluator_s": "s",
    "geometry.coeff_evals": "count",
    "geometry.coeff_eval_s": "s",
    "geometry.root_scan_self_s": "s",
    "geometry.candidates_per_s": "1/s",
    "geometry.points": "count",
    "geometry.reconstruct_calls": "count",
    "geometry.reconstruct_s": "s",
    "geometry.cross_validate_self_s": "s",
    **{f"cli.{kind}_overhead_s": "s" for kind in workloads.KINDS},
    "cli.json_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


def child(*args: str) -> dict:
    """Run round.py in a fresh interpreter and return its JSON output.

    The child leads its own process group, so that a child that has to be
    stopped is stopped together with its pool workers.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "round.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round.py {' '.join(args)} timed out") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"round.py {' '.join(args)} exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def round_args(workload: str, seed: int, workdir: Path, *extra: str) -> list[str]:
    workdir.mkdir(parents=True, exist_ok=True)
    return ["round", "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
            *extra]


def failures(ops: list[dict]) -> int:
    return sum(1 for op in ops if op["failure"])


def kind_seconds(ops: list[dict]) -> dict[str, float]:
    out = {kind: 0.0 for kind in workloads.KINDS}
    for op in ops:
        out[op["kind"]] += op["seconds"]
    return out


def setup_samples(count: int) -> list[dict]:
    return [child("setup") for _ in range(count)]


def scaled(seconds: float, probe_s: float) -> float:
    """A time scaled to the machine speed at which the probe reads PROBE_REF_S."""
    return PROBE_REF_S * seconds / probe_s


def round_time(rnd: dict) -> float:
    """A round's scaled time: the sum of its op times, scaled."""
    return scaled(rnd["wall_s"], rnd["probe_s"])


def timed_run(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    child("setup")  # warm-up: byte-compiles the sources; not measured
    setups, rounds, spent = [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if len(rounds) < MIN_ROUNDS:  # spread the set-up samples over the run
            setups += setup_samples(SETUP_PER_ROUND)
        rounds.append(child(*round_args(workload, seed, tmp / f"round{len(rounds)}")))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(spent) > seconds:
            break
    ops = [op for r in rounds for op in r["ops"]]
    # The machine's speed drifts by up to half within minutes, as other
    # tenants of the host come and go.  So every set-up sample and every
    # round is scaled by the speed probe timed next to it in the same
    # interpreter.  Every round runs the same ops; each op counts with its
    # median over the rounds, and set-up with the median of its samples.
    op_times = [statistics.median(scaled(r["ops"][i]["seconds"], r["probe_s"]) for r in rounds)
                for i in range(len(rounds[0]["ops"]))]
    metrics = {
        "setup_s": statistics.median(scaled(s["setup_s"], s["probe_s"]) for s in setups),
        "wall_s": math.fsum(op_times),
        "op_gmean_ms": 1000 * math.exp(statistics.fmean(math.log(t) for t in op_times)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    detail = {"rounds": len(rounds), "ops_per_round": len(rounds[0]["ops"]),
              "round_wall_s": [r["wall_s"] for r in rounds],
              "round_probe_s": [r["probe_s"] for r in rounds],
              "setup_s": [s["setup_s"] for s in setups],
              "setup_probe_s": [s["probe_s"] for s in setups],
              "op_seconds": [[op["seconds"] for op in r["ops"]] for r in rounds],
              "failures": [op["failure"] for op in ops if op["failure"]]}
    return {"attempted": len(ops), "failed": failures(ops), "metrics": metrics,
            "unit": END_TO_END}, detail


def traced_run(workload: str, seed: int, tmp: Path) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}.json.gz"
    child("setup")  # warm-up, as in timed_run
    chain = statistics.median(s["chain_s"] for s in setup_samples(3))
    idents = [child("identity", "--name", name) for name in IDENTITY_CHECKS]
    # The machine's speed drifts (see timed_run), so one traced round over one
    # untraced round made at another moment would mostly measure the drift.
    # Untraced and traced rounds alternate, and so do 1-worker and 2-worker
    # runs of the first spectrum op; each ratio divides the fastest of its
    # sides, in scaled time.
    plains, traceds, singles, doubles = [], [], [], []
    for i in range(TRACE_PAIRS):
        plains.append(child(*round_args(workload, seed, tmp / f"plain{i}")))
        traceds.append(child(*round_args(workload, seed, tmp / f"traced{i}",
                                          "--trace", str(tmp / f"spans{i}.json.gz"))))
        if workload == "spectrum":
            singles.append(child(*round_args(workload, seed, tmp / f"single{i}",
                                             "--threads", "1", "--limit", "1")))
            doubles.append(child(*round_args(workload, seed, tmp / f"double{i}", "--limit", "1")))
    fastest = min(range(TRACE_PAIRS), key=lambda i: round_time(traceds[i]))
    shutil.copyfile(tmp / f"spans{fastest}.json.gz", spans_file)
    result = layer_metrics(chain, idents, plains, traceds, singles, doubles)
    traced = traceds[fastest]
    detail = {"spans": traced["trace"]["spans"], "spans_file": str(spans_file.relative_to(ROOT)),
              "untraced_names": traced["setup"]["untraced_names"], "note": WORKER_NOTE,
              "plain_wall_s": [r["wall_s"] for r in plains],
              "traced_wall_s": [r["wall_s"] for r in traceds],
              "failures": result.pop("failures")}
    return result, detail


def layer_metrics(chain: float, idents: list[dict], plains: list[dict], traceds: list[dict],
                  singles: list[dict], doubles: list[dict]) -> dict:
    """Per-layer metrics from a traced run's rounds.

    ``plains`` and ``traceds`` are untraced and traced rounds of the same ops;
    ``singles`` and ``doubles`` the first spectrum op with 1 and 2 workers
    (empty on other workloads).  The spans of the fastest traced round give
    the layer figures, and the fastest untraced round the op-kind times.
    Fastest means in scaled time.
    """
    ops = [op for r in plains + traceds + singles + doubles for op in r["ops"]]
    failed = failures(ops) + sum(1 for i in idents if not i["passed"])
    attempted = len(ops) + len(idents)
    plain = min(plains, key=round_time)
    traced = min(traceds, key=round_time)

    metrics = {name: 0 for name in PER_LAYER}
    for kind, s in kind_seconds(plain["ops"]).items():
        metrics[f"{kind}_s"] = s
    metrics["fail_ratio"] = failed / attempted
    for ident in idents:
        metrics[f"identities.{ident['name']}_s"] = ident["s"]
    metrics["identities.chain_s"] = chain

    tr = traced["trace"]
    totals = tr["totals"]

    def total(name: str, field: str = "s") -> float:
        return totals.get(name, {}).get(field, 0)

    for span, prefix in CALLS_AND_TIME.items():
        metrics[f"{prefix}_calls"] = total(span, "calls")
        metrics[f"{prefix}_s"] = total(span)
    metrics["derivative.verify_solution_calls"] = total("derivative.verify_solution", "calls")

    traced_ops = traced["ops"]
    spectrum_s = total("derivative.differential_spectrum")
    metrics["derivative.spectrum_s"] = spectrum_s
    n_triples = sum((1 << (3 * op["m"])) - 1 for op in traced_ops if op["kind"] == "spectrum")
    metrics["derivative.spectrum_triples_per_s"] = n_triples / spectrum_s if spectrum_s else 0.0
    if singles and doubles:
        single_s = min(round_time(r) for r in singles)
        metrics["derivative.spectrum_1t_s"] = single_s
        metrics["derivative.fanout_speedup"] = single_s / min(round_time(r) for r in doubles)
    # An op that failed may have written no document: its counts read 0.
    for span_op, op in zip(tr["ops"], traced_ops):
        if op["kind"] == "witness":
            metrics["derivative.witness_scan_s"] += span_op["library_s"]
            metrics["derivative.witness_scanned"] += op.get("scanned") or 0
        if op["kind"] == "sampled":
            metrics["derivative.sampled_draws"] += op.get("draws_used") or 0
        metrics[f"cli.{op['kind']}_overhead_s"] += span_op["s"] - span_op["library_s"]
    hits = sum(1 for op in traced_ops if op["kind"] == "sampled" and op.get("found"))
    draws = metrics["derivative.sampled_draws"]
    metrics["derivative.sampled_hit_ratio"] = hits / draws if draws else 0.0

    metrics["geometry.coeff_evals"] = total("geometry.surface_coeffs", "calls")
    metrics["geometry.coeff_eval_s"] = total("geometry.surface_coeffs")
    scan = "geometry.iter_surface_points"
    metrics["geometry.root_scan_self_s"] = total(scan, "self_s")
    metrics["geometry.points"] = total(scan, "calls") - tr["generator_calls"].get(scan, 0)
    candidates = sum(1 << (3 * op["m"]) for op in traced_ops
                     if op["kind"] in ("surface", "cross_validate"))
    metrics["geometry.candidates_per_s"] = candidates / total(scan) if total(scan) else 0.0
    metrics["geometry.cross_validate_self_s"] = total("geometry.cross_validate", "self_s")

    metrics["cli.json_bytes"] = sum(op["bytes"] for op in plain["ops"])
    metrics["trace.overhead_ratio"] = round_time(traced) / round_time(plain)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "unit": PER_LAYER,
            "failures": [op["failure"] for op in ops if op["failure"]]}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "triapn" / "cli.py").is_file():
        print(f"error: triapn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if args.trace:
                result, detail = traced_run(args.workload, args.seed, Path(tmp))
            else:
                result, detail = timed_run(args.workload, args.seed, args.seconds, Path(tmp))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    run = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": workloads.THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu": cpu_model(), "commit": git_commit(),
        **detail,
    }
    units = result["unit"]
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    record = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": run, "result": final}, indent=1) + "\n",
                      encoding="utf-8")
    if args.trace:
        print(f"note: {WORKER_NOTE}")
    print(json.dumps({"run": {k: v for k, v in run.items() if k != "op_seconds"}}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
