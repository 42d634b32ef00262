"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Every tolerance and runtime budget is pinned here; nothing is
deferred to later calibration.
"""

import functools
import json
import pathlib
import time

from triapn import cli, derivative, geometry, identities
from triapn.gf2m import make_field, smallest_non_seventh_power

GOLDEN = pathlib.Path(__file__).parent / "golden"


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")
        return wrapper
    return deco


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def without_meta(doc):
    doc = dict(doc)
    doc.pop("meta", None)
    return doc


@criterion(1, "m=3: APN permutation verdict for every u in F_8 \\ {0,1}, under 1 s")
def test_criterion_1_m3_apn_and_permutation():
    started = time.monotonic()
    ctx = make_field(3)
    for u in range(2, 8):
        spectrum = derivative.differential_spectrum(u, ctx)
        assert spectrum["verdicts"]["is_apn"], f"u={u:#x} not APN"
        assert spectrum["histogram"] == {"1": 511}  # all 511 nonzero triples
        assert derivative.is_permutation(u, ctx), f"u={u:#x} not a permutation"
    assert time.monotonic() - started < 1.0


@criterion(2, "m=6: exhaustive witness with kernel dimension >= 2, under 1 min")
def test_criterion_2_m6_witness(capsys):
    started = time.monotonic()
    code, doc = run_cli(capsys, "witness", "--m", "6", "--u", "auto", "--threads", "2")
    assert code == 0
    assert doc["verdicts"]["found"] is True
    cert = doc["certificate"]
    assert cert["kernel_dim"] >= 2
    assert len(cert["solutions"]) == 1 << cert["kernel_dim"] >= 4
    assert derivative.verify_certificate(
        derivative.WitnessCertificate.from_json(cert)) == []
    assert time.monotonic() - started < 60.0


@criterion(3, "m=6: exhaustive spectrum has at most 8 solutions; golden histogram")
def test_criterion_3_m6_differential_uniformity():
    ctx = make_field(6)
    u = smallest_non_seventh_power(ctx)
    report = derivative.differential_spectrum(u, ctx)
    assert report["verdicts"]["differential_uniformity"] <= 8
    assert report["verdicts"]["max_kernel_dim"] <= 3
    golden = json.loads((GOLDEN / "spectrum_m6_u0x02.json").read_text())
    assert report["histogram"] == golden["histogram"]
    assert sum(report["histogram"].values()) == 64 ** 3 - 1


@criterion(4, "m=9: sampled witness (seed 1) within 10^6 draws, under 1 min")
def test_criterion_4_m9_sampled_witness(capsys):
    started = time.monotonic()
    code, doc = run_cli(capsys, "witness", "--m", "9", "--u", "auto",
                        "--sampled", "--seed", "1", "--max-draws", "1000000")
    assert code == 0
    assert doc["verdicts"]["found"] is True
    assert doc["draws_used"] <= 10 ** 6
    assert doc["certificate"]["kernel_dim"] >= 2
    assert time.monotonic() - started < 60.0


@criterion(5, "identity suite: every check is an exact polynomial identity, under 10 s")
def test_criterion_5_identity_suite():
    started = time.monotonic()
    report = identities.run_all()
    assert report.all_pass
    names = {c.name for c in report.checks}
    assert {"z_elimination_1", "z_elimination_2", "quadratic_combination", "x4_coefficients",
            "linearization", "obstruction_factorization", "eliminant_factorization", "gamma0_curve",
            "degenerate_locus"} <= names
    by_name = {c.name: c for c in report.checks}
    assert by_name["z_elimination_1"].scale == "u"
    assert by_name["eliminant_factorization"].scale == "u*b^2"
    assert any("computed y^2 coefficient" in n for n in by_name["eliminant_factorization"].notes)
    for c in report.checks:
        assert c.discrepancy is None
    assert time.monotonic() - started < 10.0


@criterion(6, "m in {3,6}: surface and kernel pipelines agree with zero mismatches")
def test_criterion_6_cross_validation():
    for m in (3, 6):
        ctx = make_field(m)
        u = smallest_non_seventh_power(ctx)
        report = geometry.cross_validate(u, ctx)
        assert report["consistent"], report["mismatches"][:3]
        if m == 3:
            assert report["kernel_witness_triples"] == 0  # consistent with APN-ness
        else:
            assert report["kernel_witness_triples"] > 0
            assert report["surface_points_checked"] > 0


@criterion(7, "bound: applicability q > 1536, minimal closing m <= 20, exact and monotone")
def test_criterion_7_bound_closure(capsys):
    code, doc = run_cli(capsys, "bound", "--m-from", "3", "--m-to", "40")
    assert code == 0
    assert doc["applicability_threshold"] == 1536
    assert doc["minimal_closing_m"] is not None and doc["minimal_closing_m"] <= 20
    closed = [row["closes"] for row in doc["rows"]]
    assert closed == sorted(closed)  # monotone closure across the range
    for row in doc["rows"]:
        assert isinstance(row["lower_bound"], int)
        assert row["applicable"] == (row["q"] > 1536)
    assert doc["reference"]["threshold_m"] == 20
    assert any(row["m"] == 20 and row["closes"] for row in doc["rows"])


@criterion(8, "determinism: identical configurations give byte-identical JSON (meta aside)")
def test_criterion_8_determinism(capsys):
    a = run_cli(capsys, "witness", "--m", "6", "--u", "auto", "--threads", "1")[1]
    b = run_cli(capsys, "witness", "--m", "6", "--u", "auto", "--threads", "2")[1]
    assert json.dumps(without_meta(a), sort_keys=True) == \
        json.dumps(without_meta(b), sort_keys=True)

    s1 = run_cli(capsys, "witness", "--m", "9", "--u", "auto",
                 "--sampled", "--seed", "1")[1]
    s1_again = run_cli(capsys, "witness", "--m", "9", "--u", "auto",
                       "--sampled", "--seed", "1")[1]
    assert json.dumps(without_meta(s1), sort_keys=True) == \
        json.dumps(without_meta(s1_again), sort_keys=True)

    s2 = run_cli(capsys, "witness", "--m", "9", "--u", "auto",
                 "--sampled", "--seed", "2")[1]
    assert s2["verdicts"]["found"] is True  # a new seed may move the witness,
    assert s2["certificate"] is not None    # never the verdict
