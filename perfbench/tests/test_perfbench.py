"""Tests of the benchmark itself: smoke rounds, planted faults, metric names.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import round as rnd  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def round_child(tmp_path, workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "round.py"), "round", "--workload", workload,
         "--seed", "7", "--workdir", str(tmp_path), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_at_m3(tmp_path, workload):
    out = round_child(tmp_path, workload)
    ops = out["ops"]
    assert ops and [op["failure"] for op in ops] == [None] * len(ops)
    assert {op["m"] for op in ops if op["kind"] != "sampled" and op["kind"] != "verify_cert"} == {3}
    assert out["setup"]["setup_s"] > 0 and out["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_round(tmp_path, workload):
    spans_file = tmp_path / "spans.json.gz"
    out = round_child(tmp_path, workload, "--trace", str(spans_file))
    assert all(op["failure"] is None for op in out["ops"])
    trace = out["trace"]
    assert out["setup"]["untraced_names"] == []
    assert len(trace["ops"]) == len(out["ops"])
    assert all(0 <= op["library_s"] <= op["s"] for op in trace["ops"])
    assert trace["totals"]["identities.verified_surface_coefficients"]["calls"] >= 1
    assert spans_file.stat().st_size > 0


def test_sampled_witness_smoke_emits_verified_certificates(tmp_path):
    out = round_child(tmp_path, "witness")
    sampled = [op for op in out["ops"] if op["kind"] == "sampled"]
    assert sampled and all(op["found"] and op["draws_used"] >= 1 for op in sampled)
    assert sum(op["kind"] == "verify_cert" for op in out["ops"]) == len(sampled)


def _run_checked(triapn, ops, refs):
    results = [rnd.run_op(triapn, op) for op in ops]
    rnd.check_results(triapn, ops, results, refs, band=False)
    return results


def test_tampered_certificate_makes_fail_ratio_nonzero(tmp_path):
    triapn = rnd.import_triapn()
    ops = workloads.make_ops("witness", 7, tmp_path, smoke=True)
    sampled, verify = [(a, b) for a, b in zip(ops, ops[1:])
                       if a.kind == "sampled" and b.kind == "verify_cert"][0]
    refs = workloads.load_references()
    assert run.failures(_run_checked(triapn, [sampled, verify], refs)) == 0

    doc = json.loads(Path(sampled.out).read_text())
    x, y, z = doc["certificate"]["solutions"][-1]
    doc["certificate"]["solutions"][-1] = [x, y, hex(int(z, 16) ^ 1)]
    Path(sampled.out).write_text(json.dumps(doc))
    results = [rnd.run_op(triapn, verify)]
    rnd.check_results(triapn, [verify], results, refs, band=False)
    assert results[0]["code"] == 3
    assert run.failures(results) / len(results) > 0


def test_failed_sampled_op_in_traced_round_makes_fail_ratio_nonzero(tmp_path, monkeypatch):
    triapn = rnd.import_triapn()
    cli_main = triapn.cli.main

    def crash_sampled(argv):
        if "--sampled" in argv:
            raise RuntimeError("planted crash")
        return cli_main(argv)

    monkeypatch.setattr(triapn.cli, "main", crash_sampled)
    traced = rnd.mode_round(argparse.Namespace(
        workload="witness", seed=7, workdir=str(tmp_path), smoke=True, threads=2, limit=None,
        trace=str(tmp_path / "spans.json.gz")))
    failed = [op["kind"] for op in traced["ops"] if op["failure"]]
    assert failed and set(failed) == {"sampled", "verify_cert"}
    result = run.layer_metrics(0.1, [], [traced], [traced], [], [])
    assert result["metrics"]["fail_ratio"] > 0
    assert result["metrics"]["derivative.sampled_draws"] == 0
    assert result["failed"] == 2 * len(failed)


def test_span_tables_name_known_metrics_and_op_kinds():
    prefixes = set(spans.CALLS_AND_TIME.values())
    assert {f"{p}_calls" for p in prefixes} | {f"{p}_s" for p in prefixes} <= set(run.PER_LAYER)
    assert set(spans.LIBRARY_CALL) == set(workloads.KINDS)


def test_tampered_reference_makes_fail_ratio_nonzero(tmp_path):
    triapn = rnd.import_triapn()
    ops = workloads.make_ops("spectrum", 7, tmp_path, smoke=True)
    refs = workloads.load_references()
    assert run.failures(_run_checked(triapn, ops, refs)) == 0

    tampered = json.loads(json.dumps(refs))
    tampered[ops[1].key]["histogram"]["1"] -= 1
    results = _run_checked(triapn, ops, tampered)
    assert [r["failure"] is not None for r in results] == [False, True, False, False]
    assert run.failures(results) / len(results) == 0.25


def test_references_agree_with_independent_oracles():
    refs = workloads.load_references()
    golden = json.loads((ROOT / "tests" / "golden" / "spectrum_m6_u0x02.json").read_text())
    assert refs["spectrum --m 6 --u 0x2"]["histogram"] == golden["histogram"]
    for key, ref in refs.items():
        if key.startswith("spectrum"):
            m = int(key.split()[2])
            assert sum(ref["histogram"].values()) == (1 << (3 * m)) - 1, key
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for op in workloads.make_ops(name, 0, Path("."), smoke=smoke):
                if op.kind in ("spectrum", "witness", "surface", "cross_validate"):
                    assert op.key in refs, op.key


def test_ops_never_repeat_inputs_within_a_round():
    for name in workloads.WORKLOADS:
        keys = [op.key for op in workloads.make_ops(name, 3, Path("."))]
        verify = [k for k in keys if k.startswith("verify-cert")]
        assert len(set(keys) - set(verify)) == len(keys) - len(verify), name
    witness = [workloads.make_ops("witness", seed, Path(".")) for seed in (1, 1, 2)]
    assert witness[0] == witness[1] and witness[0] != witness[2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(run.PER_LAYER.items())


def test_tracer_self_time_and_uninstall():
    tracer = spans.Tracer()

    class Mod:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Mod.inner() + Mod.inner()

    original = Mod.inner
    tracer._patch(Mod, "inner", tracer._wrap("inner", Mod.inner))
    tracer._patch(Mod, "outer", tracer._wrap("outer", Mod.outer))
    assert Mod.outer() == 2
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"], abs=1e-9)
    tracer.uninstall()
    assert Mod.inner is original


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_crashing_op_counts_as_failed(tmp_path, monkeypatch):
    triapn = rnd.import_triapn()
    op = workloads.make_ops("spectrum", 7, tmp_path, smoke=True)[0]

    def crash(argv):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(triapn.cli, "main", crash)
    results = [rnd.run_op(triapn, op)]
    rnd.check_results(triapn, [op], results, workloads.load_references(), band=False)
    assert results[0]["code"] == -1
    assert "planted crash" in results[0]["failure"]
    assert run.failures(results) == 1
