"""CLI: JSON documents, exit codes, determinism, certificate round trips."""

import argparse
import json
import pathlib
import subprocess
import sys
import time

import pytest

from triapn import cli, derivative, formulas, geometry, gf2m, identities
from triapn.mpoly import ExactDivisionError, divide_exact, parse

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def without_meta(doc):
    doc = dict(doc)
    doc.pop("meta", None)
    return doc


def test_field_info(capsys):
    code, doc, err = run(capsys, "field-info", "--m", "6")
    assert code == 0
    assert doc["schema"] == "field/1"
    assert doc["params"] == {"m": 6, "modulus": "0x43", "q": 64}
    assert doc["verdicts"]["smallest_non_seventh_power"] == "0x2"
    assert doc["verdicts"]["seventh_power_count"] == 9
    assert "F_2^6" in err


def test_apn_check_m3(capsys):
    code, doc, _ = run(capsys, "apn-check", "--m", "3", "--u", "auto")
    assert code == 0
    assert doc["verdicts"]["is_apn"] is True
    assert doc["verdicts"]["differential_uniformity"] == 2
    assert doc["histogram"] == {"1": 511}
    assert doc["params"]["u"] == "0x2"


def test_apn_check_rejects_m_not_multiple_of_3(capsys):
    code, doc, err = run(capsys, "apn-check", "--m", "5")
    assert code == 2
    assert doc is None
    assert "3 | m" in err


def test_explicit_seventh_power_u_warns_but_runs(capsys):
    code, doc, _ = run(capsys, "apn-check", "--m", "3", "--u", "0x1")
    assert code == 0
    assert any("7th power" in w for w in doc["params"]["warnings"])
    # every filtered point has a vanishing obstruction form here: no witness
    code, doc, _ = run(capsys, "surface", "--m", "3", "--u", "0x1", "--emit-witness")
    assert code == 0
    assert doc["counts"]["filtered"] == 126 and doc["certificate"] is None


def test_u_zero_warns(capsys):
    code, doc, _ = run(capsys, "permutation", "--m", "3", "--u", "0x0")
    assert code == 0
    assert doc["verdicts"]["is_permutation"] is True
    assert any("outside the family" in w for w in doc["params"]["warnings"])


def test_permutation_m3(capsys):
    code, doc, _ = run(capsys, "permutation", "--m", "3", "--u", "0x2")
    assert code == 0 and doc["verdicts"]["is_permutation"] is True


def test_bad_u_and_bad_modulus(capsys):
    assert run(capsys, "apn-check", "--m", "3", "--u", "zz")[0] == 2
    assert run(capsys, "apn-check", "--m", "3", "--u", "0x9")[0] == 2
    assert run(capsys, "field-info", "--m", "4", "--modulus", "0x15")[0] == 2
    code, doc, err = run(capsys, "field-info", "--m", "3", "--modulus", "zz")
    assert code == 2 and doc is None and "modulus must be hex" in err


def test_field_size_is_bounded_before_building_the_field(capsys):
    for m in ("64", "20001"):
        t0 = time.monotonic()
        code, doc, err = run(capsys, "field-info", "--m", m)
        assert code == 2 and doc is None and "--m must be in 2..63" in err
        assert time.monotonic() - t0 < 1
    t0 = time.monotonic()
    code, doc, _ = run(capsys, "field-info", "--m", "63")
    assert time.monotonic() - t0 < 1
    assert code == 0 and doc["verdicts"]["seventh_power_count"] == (2 ** 63 - 1) // 7


def test_witness_and_verify_cert_roundtrip(capsys, tmp_path):
    # u = 0 is in the finder's range, so verify-cert must accept it too
    for m, u in (("3", "0x0"), ("6", "auto")):
        code, doc, _ = run(capsys, "witness", "--m", m, "--u", u, "--threads", "1")
        assert code == 0 and doc["verdicts"]["found"] is True
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc["certificate"]))
        code2, doc2, err2 = run(capsys, "verify-cert", str(cert_path))
        assert code2 == 0 and doc2["verdicts"]["valid"] is True
        assert "valid" in err2

    # the whole witness document is accepted too
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(doc))
    assert run(capsys, "verify-cert", str(whole))[0] == 0

    # tampering must be caught with exit code 3
    bad = doc["certificate"] | {"kernel_dim": 3}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code3, doc3, _ = run(capsys, "verify-cert", str(bad_path))
    assert code3 == 3 and doc3["verdicts"]["valid"] is False and doc3["verdicts"]["failures"]


def test_verify_cert_usage_errors(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert run(capsys, "verify-cert", str(missing))[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{\"schema\": \"witness/1\"}")
    assert run(capsys, "verify-cert", str(garbled))[0] == 2
    golden = json.loads((GOLDEN / "certificates.json").read_text())
    for bad in ({**golden["witness --m 6 --u 0x2"], "m": "6"}, [golden]):
        garbled.write_text(json.dumps(bad))
        code, _, err = run(capsys, "verify-cert", str(garbled))
        assert code == 2 and "malformed certificate" in err


def test_unreadable_certificate_is_a_usage_error(capsys, tmp_path):
    # json.load overflows the recursion limit on deep nesting, and a bad
    # byte fails to decode: both are files that cannot be read
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"schema": "witness/1", "m": "\xe9"}')
    for path in (deep, latin):
        code, doc, err = run(capsys, "verify-cert", str(path))
        assert code == 2 and doc is None
        assert err.startswith("error: cannot read certificate: "), err


def test_exhaustive_witness_starts_no_pool(capsys):
    # 262,657 points at m=9, but the search ends at its first witness in-process
    one = run(capsys, "witness", "--m", "9", "--u", "0x7", "--threads", "1")
    two = run(capsys, "witness", "--m", "9", "--u", "0x7", "--threads", "2")
    assert one[0] == two[0] == 0 and one[2] == two[2]
    assert without_meta(one[1]) == without_meta(two[1])


def test_exhaustive_witness_is_capped_before_any_table(capsys, monkeypatch):
    monkeypatch.setattr(derivative, "_representatives", pytest.fail)
    code, doc, err = run(capsys, "witness", "--m", "18")
    assert code == 2 and doc is None and "--sampled" in err
    code, doc, _ = run(capsys, "witness", "--m", "18", "--sampled", "--seed", "1")
    assert code == 0 and doc["verdicts"]["found"] is True
    assert doc["certificate"]["kernel_dim"] >= 2


def test_sampled_witness_needs_at_least_one_draw(capsys):
    for draws in ("0", "-3"):
        code, doc, err = run(capsys, "witness", "--m", "9", "--sampled", "--max-draws", draws)
        assert code == 2 and doc is None and "max_draws" in err
    code, doc, _ = run(capsys, "witness", "--m", "9", "--sampled", "--max-draws", "1")
    assert code == 0 and doc["draws_used"] == doc["max_draws"] == 1


def test_witness_not_found_is_exit_zero(capsys):
    code, doc, err = run(capsys, "witness", "--m", "3", "--u", "0x2", "--threads", "1")
    assert code == 0
    assert doc["verdicts"]["found"] is False
    assert doc["certificate"] is None
    assert "proof of APN-ness" in err


def test_verify_identities(capsys):
    code, doc, err = run(capsys, "verify-identities")
    assert code == 0
    assert doc["schema"] == "identities/1" and doc["all_pass"] is True
    assert err.count("PASS") == len(doc["checks"])
    code2, doc2, _ = run(capsys, "verify-identities", "--check", "z_elimination_1")
    assert code2 == 0 and len(doc2["checks"]) == 1
    assert run(capsys, "verify-identities", "--check", "nope")[0] == 2


def test_verify_identities_matches_frozen_json(capsys):
    # the full document as recorded before the checks were kept in one table,
    # plus the surface_w_cubic row
    code, doc, _ = run(capsys, "verify-identities")
    assert code == 0
    assert without_meta(doc) == json.loads((GOLDEN / "identities.json").read_text())


def test_failing_surface_identity_is_a_verification_failure(capsys, monkeypatch, fresh_chain):
    monkeypatch.setattr(formulas, "SURFACE_COEFF_6_FACTORS",
                        formulas.SURFACE_COEFF_6_FACTORS + (("u", 1),))
    for argv in (("surface", "--m", "3", "--u", "0x2"), ("spectrum", "--m", "3", "--u", "0x2"),
                 ("apn-check", "--m", "3", "--u", "0x2"), ("bound",)):
        code, doc, err = run(capsys, *argv)
        assert code == 3 and doc is None
        assert "internal verification failure" in err


def test_surface_w_cubic_fault_stops_the_surface(capsys, monkeypatch, fresh_chain):
    monkeypatch.setattr(formulas, "SURFACE_COEFF_5_FACTORS",
                        formulas.SURFACE_COEFF_5_FACTORS + (("u", 1),))
    code, doc, _ = run(capsys, "verify-identities")
    assert code == 3
    assert {c["name"] for c in doc["checks"] if c["status"] == "fail"} == \
        {"eliminant_factorization", "surface_w_cubic"}
    code, doc, err = run(capsys, "surface", "--m", "3")
    assert code == 3 and doc is None
    assert "internal verification failure" in err


def test_surface_needs_the_w_cubic_check_alone(capsys, monkeypatch, fresh_chain):
    # the factorization still passes: the cubic-form check must stop the surface by itself
    failed = identities.CheckResult("surface_w_cubic", False, None, None, 0, 0)
    monkeypatch.setitem(identities.CHECKS, "surface_w_cubic", lambda: failed)
    assert identities.run_all("eliminant_factorization").all_pass
    code, doc, err = run(capsys, "surface", "--m", "3")
    assert code == 3 and doc is None
    assert "internal verification failure" in err


def test_impossible_root_count_is_a_verification_failure(capsys, monkeypatch):
    # one root lost wherever there are two or more, along a row or alone: some
    # generic orbit then has 2 + #roots outside {0, beta} that is not a power of two
    row, solve_pair = geometry.SurfaceEvaluator.row, geometry.SurfaceEvaluator.solve_pair

    def lose_one(h, ys):
        return h, ys[:-1] if len(ys) >= 2 else ys

    def row_losing_one(ev, alpha):
        pair = row(ev, alpha)
        return lambda beta: lose_one(*pair(beta))

    monkeypatch.setattr(geometry.SurfaceEvaluator, "row", row_losing_one)
    monkeypatch.setattr(geometry.SurfaceEvaluator, "solve_pair",
                        lambda ev, alpha, beta: lose_one(*solve_pair(ev, alpha, beta)))
    for command in ("spectrum", "apn-check"):
        code, doc, err = run(capsys, command, "--m", "6", "--u", "0x2")
        assert code == 3 and doc is None
        assert "internal verification failure" in err and "not a power of two" in err


# a wrong transcription, and the checks it must fail
PLANTED_FAULTS = [
    ("ELIMINANT_CUBE_FACTOR", "a*g^2 + u*b^3",
     {"eliminant_factorization", "gamma0_curve"}),
    ("OBSTRUCTION_FORM", formulas.OBSTRUCTION_FORM + " + q",
     {"linearization", "obstruction_factorization", "eliminant_factorization", "gamma0_curve"}),
    ("LINEARIZED_RHS_Y1_FACTORS", formulas.LINEARIZED_RHS_Y1_FACTORS + (("q", 1),),
     {"linearization", "eliminant_factorization", "gamma0_curve"}),
]


@pytest.fixture
def fresh_chain():
    """Empty the cached chain objects around a test that plants a fault."""
    cached = (identities.linearized_rhs_polynomial, identities.linearized_equation,
              identities.eliminant, identities.surface_polynomial,
              identities.verified_surface_coefficients, identities.obstruction_polynomial,
              geometry._surface_polynomials)
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


FAULT_IDS = [f[0] for f in PLANTED_FAULTS]


@pytest.mark.parametrize("attr, value, failing", PLANTED_FAULTS, ids=FAULT_IDS)
def test_planted_transcription_fault_fails_its_checks(capsys, monkeypatch, fresh_chain,
                                                      attr, value, failing):
    monkeypatch.setattr(formulas, attr, value)
    code, doc, _ = run(capsys, "verify-identities")
    assert code == 3
    assert {c["name"] for c in doc["checks"] if c["status"] == "fail"} == failing


@pytest.mark.parametrize("command", ["surface", "cross-validate", "spectrum", "apn-check"])
@pytest.mark.parametrize("attr, value, failing", PLANTED_FAULTS, ids=FAULT_IDS)
def test_planted_transcription_fault_stops_the_surface(capsys, monkeypatch, fresh_chain,
                                                       attr, value, failing, command):
    monkeypatch.setattr(formulas, attr, value)
    code, doc, err = run(capsys, command, "--m", "3")
    assert code == 3 and doc is None
    assert "internal verification failure" in err


def test_inexact_eliminant_division_reports_its_remainder(capsys, monkeypatch, fresh_chain):
    attr, cube, _ = PLANTED_FAULTS[0]
    monkeypatch.setattr(formulas, attr, cube)
    frame = (parse(formulas.ELIMINANT_MONOMIAL) * parse(cube) ** 3
             * parse("y") * parse("y + b"))
    with pytest.raises(ExactDivisionError) as err:
        divide_exact(identities.eliminant(), frame)
    _, doc, _ = run(capsys, "verify-identities", "--check", "eliminant_factorization")
    remainder = parse(doc["checks"][0]["discrepancy"])
    assert remainder == err.value.remainder and not remainder.is_zero


def test_surface_command(capsys):
    code, doc, _ = run(capsys, "surface", "--m", "3", "--u", "0x2", "--list-points")
    assert code == 0
    assert doc["schema"] == "surface/1"
    assert doc["counts"]["total"] == 22
    assert len(doc["points"]) == 22
    code2, doc2, _ = run(capsys, "surface", "--m", "6", "--u", "auto",
                         "--filtered", "--emit-witness")
    assert code2 == 0
    assert doc2["certificate"]["kernel_dim"] >= 2


def test_point_lists_stop_at_m9(capsys):
    # counts and --emit-witness reach m=12; listing points and cross-validation do not
    for argv in (("surface", "--list-points"), ("cross-validate",)):
        code, doc, err = run(capsys, argv[0], "--m", "12", "--u", "0x3", *argv[1:])
        assert code == 2 and doc is None and "m <= 9" in err


def record_progress(monkeypatch) -> list[float]:
    """Patch `cli._progress` to also record every fraction it is given."""
    fracs = []
    progress = cli._progress

    def recording(tag):
        cb = progress(tag)
        return lambda frac: (fracs.append(frac), cb(frac))

    monkeypatch.setattr(cli, "_progress", recording)
    return fracs


def test_surface_progress_reaches_100_once_per_alpha(capsys, monkeypatch):
    fracs = record_progress(monkeypatch)
    code, _, err = run(capsys, "surface", "--m", "6", "--u", "0x7")
    assert code == 0
    marks = [line for line in err.splitlines() if line.endswith("%")]
    assert marks == ["surface: 25%", "surface: 50%", "surface: 75%", "surface: 100%"]
    # one call per row of the fold and one at 1.0 (11 here), not one per point (4390)
    assert len(fracs) <= 64 + 1 and fracs[-1] == 1.0


def test_spectrum_progress_marks_each_quarter_once(capsys):
    code, doc, err = run(capsys, "spectrum", "--m", "6", "--u", "0x2")
    assert code == 0 and doc["verdicts"]["max_kernel_dim"] == 3
    marks = [line for line in err.splitlines() if line.endswith("%")]
    assert marks == ["spectrum: 25%", "spectrum: 50%", "spectrum: 75%", "spectrum: 100%"]


def test_cross_validate_progress_marks_each_quarter_once(capsys, monkeypatch):
    fracs = record_progress(monkeypatch)
    code, doc, err = run(capsys, "cross-validate", "--m", "6", "--u", "0x7")
    assert code == 0 and doc["verdicts"]["consistent"] is True
    marks = [line for line in err.splitlines() if line.endswith("%")]
    assert marks == ["cross-validate: 25%", "cross-validate: 50%",
                     "cross-validate: 75%", "cross-validate: 100%"]
    # one call per chart row alpha and one at the end, not one per pair (4161)
    assert fracs == [alpha / 64 for alpha in range(64)] + [1.0]


def test_cross_validate_command(capsys):
    code, doc, _ = run(capsys, "cross-validate", "--m", "3", "--u", "auto")
    assert code == 0
    assert doc["verdicts"]["consistent"] is True
    # u = 0 lies outside the family: a usage error, not a failed verification
    code, doc, err = run(capsys, "cross-validate", "--m", "3", "--u", "0x0")
    assert code == 2 and doc is None and "outside the family" in err


@pytest.mark.parametrize("argv, golden", [
    (("bound",), "bound.json"),
    (("cross-validate", "--m", "6", "--u", "0x2"), "cross_validate_m6_u0x02.json"),
    (("surface", "--m", "6", "--u", "0x2", "--emit-witness"), "surface_m6_u0x02.json"),
    (("cross-validate", "--m", "6", "--u", "0x6"), "cross_validate_m6_u0x06.json"),
])
def test_report_matches_golden(capsys, argv, golden):
    code, doc, _ = run(capsys, *argv)
    assert code == 0
    assert without_meta(doc) == json.loads((GOLDEN / golden).read_text())


@pytest.mark.parametrize("line", json.loads((GOLDEN / "certificates.json").read_text()))
def test_witness_certificate_matches_golden(capsys, line):
    # the golden certificates are keyed by the command line that prints them
    code, doc, _ = run(capsys, *line.split())
    assert code == 0
    assert doc["certificate"] == json.loads((GOLDEN / "certificates.json").read_text())[line]


def test_bound_command(capsys):
    code, doc, _ = run(capsys, "bound", "--m-from", "3", "--m-to", "24")
    assert code == 0
    assert doc["schema"] == "bound/1"
    assert doc["minimal_closing_m"] == 20
    assert doc["reference"]["threshold_m"] == 20
    # delta is read from the verified surface; --delta is no longer an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--delta", "2"])
    assert exc.value.code == 2
    # past m = 1024 the scan is refused instead of overflowing the JSON encoder
    code, doc, err = run(capsys, "bound", "--m-from", "7200", "--m-to", "7200")
    assert code == 2 and doc is None and "exceeds 1024" in err


def test_out_file_and_empty_stdout(capsys, tmp_path):
    out = tmp_path / "doc.json"
    code, doc, _ = run(capsys, "--out", str(out), "apn-check", "--m", "3", "--u", "auto")
    assert code == 0 and doc is None
    saved = json.loads(out.read_text())
    assert saved["verdicts"]["is_apn"] is True


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    for out in (tmp_path / "missing" / "doc.json", tmp_path):
        code, doc, err = run(capsys, "--out", str(out), "field-info", "--m", "3")
        assert code == 2 and doc is None
        assert f"error: cannot write --out {out}: " in err
        assert "Traceback" not in err


def test_identical_runs_are_byte_identical_modulo_meta(capsys):
    _, doc_a, _ = run(capsys, "witness", "--m", "6", "--u", "auto", "--threads", "1")
    _, doc_b, _ = run(capsys, "witness", "--m", "6", "--u", "auto", "--threads", "2")
    assert json.dumps(without_meta(doc_a), sort_keys=True) == \
        json.dumps(without_meta(doc_b), sort_keys=True)


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_one_parser_serves_successive_calls(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # subparsers get "triapn <command>"
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for _ in range(5):
        assert run(capsys, "field-info", "--m", "3")[0] == 0
    assert built.count("triapn") == 1
    assert len(built) == len(set(built))  # no subcommand is built twice either


def test_reused_parser_keeps_no_state_between_calls(capsys):
    code, doc, _ = run(capsys, "witness", "--m", "3", "--sampled", "--seed", "1",
                       "--max-draws", "50")
    assert code == 0 and doc["seed"] == 1 and doc["max_draws"] == 50
    code, doc, _ = run(capsys, "witness", "--m", "3")
    assert code == 0 and doc["params"]["strategy"] == "exhaustive"
    assert "seed" not in doc and "max_draws" not in doc
    assert run(capsys, "apn-check", "--m", "3")[1]["schema"] == "apn/1"
    assert run(capsys, "spectrum", "--m", "3")[1]["schema"] == "spectrum/1"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err
    code, doc, _ = run(capsys, "spectrum", "--m", "3", "--u", "0x3")
    assert code == 0 and doc["params"]["u"] == "0x3"


def test_sampled_search_of_a_small_field_is_decided_at_once(capsys):
    # q^3 - 1 = 511 triples, within the default budget of 10^6 draws: the
    # exhaustive walk proves there is no witness, and the document is the
    # one all 10^6 draws would have produced
    t0 = time.perf_counter()
    code, doc, err = run(capsys, "witness", "--m", "3", "--sampled", "--seed", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and "inconclusive" in err
    assert without_meta(doc) == {
        "schema": "witness-search/1",
        "params": {"m": 3, "modulus": "0xB", "q": 8, "strategy": "sampled", "u": "0x2"},
        "verdicts": {"found": False}, "certificate": None,
        "generator": "splitmix64", "seed": 1, "max_draws": 10 ** 6, "draws_used": 10 ** 6}
    # where a witness exists the draws still find it, at the same draw
    code, doc, _ = run(capsys, "witness", "--m", "3", "--u", "0x1", "--sampled", "--seed", "1")
    assert code == 0 and doc["verdicts"]["found"] and doc["draws_used"] == 1
    assert doc["certificate"]["triple"] == ["0x3", "0x0", "0x1"]


def test_field_setup_is_found_once_per_process(monkeypatch):
    ctx = gf2m.make_field(18)
    u, warnings = cli.resolve_u(ctx, "auto")

    def boom(*args):
        raise AssertionError("field set-up ran again")

    monkeypatch.setattr(gf2m, "is_irreducible", boom)
    monkeypatch.setattr(gf2m.FieldCtx, "pow", boom)
    assert gf2m.make_field(18) is ctx
    assert cli.resolve_u(ctx, "auto") == (u, warnings)


STDLIB_ONLY = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import triapn
for info in pkgutil.iter_modules(triapn.__path__):
    if info.name != "__main__":
        importlib.import_module("triapn." + info.name)
sys.argv = ["triapn", "field-info", "--m", "3"]
try:
    importlib.import_module("triapn.__main__")  # runs the CLI, as python -m triapn does
except SystemExit as exc:
    assert exc.code == 0, exc.code
allowed = sys.stdlib_module_names | {{"triapn", "__main__"}}
foreign = sorted(name for name in sys.modules if name.partition(".")[0] not in allowed)
assert not foreign, foreign
"""


def test_runtime_needs_only_the_standard_library():
    # isolated and without site: no site-packages, no PYTHONPATH.  -I ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the run from writing into src/.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    before = sorted(src.rglob("*"))
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                           STDLIB_ONLY.format(src=str(src))],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == "field/1"
    assert sorted(src.rglob("*")) == before
