"""Surface pipeline, cross-validation, and the exact bound arithmetic."""

import hashlib
import itertools
import json
import math
import pathlib
import random

import pytest

from triapn import derivative as dv
from triapn import geometry as geo
from triapn import identities
from triapn.derivative import (CertificateError, _kernel, build_certificate, derivative_columns,
                               differential_spectrum, pack_vec)
from triapn.gf2m import FieldCtx, is_seventh_power, make_field
from triapn.mpoly import parse

F3 = make_field(3)
F6 = make_field(6)
F9 = make_field(9)
GOLDEN = pathlib.Path(__file__).parent / "golden"
BOUND_ROWS_DELTA16_SHA256 = "18df11328c805b6b2c3c0bd131e4b212a99c75e52d920f8125394ac48c7c5bc5"


# -- bound arithmetic -----------------------------------------------------------


def test_integer_roots_are_exact():
    assert geo.ceil_cbrt(27) == 3
    assert geo.ceil_cbrt(28) == 4
    c = geo.ceil_cbrt(16 ** 13)
    assert (c - 1) ** 3 < 16 ** 13 <= c ** 3
    for m in (3, 5, 9, 19):
        v = geo.ceil_q_pow_3_2(m)
        assert (v - 1) ** 2 < (1 << (3 * m)) <= v ** 2
    assert geo.ceil_q_pow_3_2(4) == 1 << 6


def test_bound_report_values():
    rep = geo.bound_check(3, 40)
    assert rep["applicability_threshold"] == 1536
    rows = {r["m"]: r for r in rep["rows"]}
    assert not rows[10]["applicable"] and rows[11]["applicable"]  # 2^11 = 2048 > 1536
    assert rep["minimal_closing_m"] == 20
    assert rep["minimal_closing_m_multiple_of_3"] == 21
    assert not rows[19]["closes"] and rows[20]["closes"] and rows[21]["closes"]
    # frozen exact value at the closing degree
    assert rows[20]["lower_bound"] == 8211398656
    assert rows[20]["required"] == 48 << 20
    # every quantity is exact machine-integer arithmetic
    for r in rep["rows"]:
        for k in ("q", "lower_bound", "required", "exclusion_budget"):
            assert isinstance(r[k], int)
    # monotone closure across the scanned range
    closed = [r["closes"] for r in rep["rows"]]
    assert closed == sorted(closed)


def test_bound_exclusion_budget_accounting():
    rows = {r["m"]: r for r in geo.bound_check(2, 6)["rows"]}
    # budget = 3(q+1) + 44q + 1 = 47q + 4; 48q exceeds it exactly when q > 4
    assert rows[2]["exclusion_budget"] == 47 * 4 + 4
    assert rows[2]["required"] <= rows[2]["exclusion_budget"]
    assert rows[3]["required"] > rows[3]["exclusion_budget"]


def test_bound_reference_claim_attached():
    doc = geo.bound_check(3, 24)
    assert doc["schema"] == "bound/1"
    assert doc["reference"]["threshold_m"] == 20
    assert doc["minimal_closing_m"] <= 20


def test_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        geo.bound_check(m_from=5, m_to=4)


def test_delta_is_the_degree_of_the_verified_surface():
    assert geo.surface_degree() == 16
    rep = geo.bound_check(3, 40)
    assert rep["delta"] == 16
    # sha256 of the rows' JSON, frozen from the scan with delta = 16 given
    rows = json.dumps(rep["rows"], sort_keys=True).encode()
    assert hashlib.sha256(rows).hexdigest() == BOUND_ROWS_DELTA16_SHA256
    assert geo.count_vs_band(2, F3)["band_width"] == (
        15 * 14 * geo.ceil_q_pow_3_2(3) + 5 * geo.ceil_cbrt(16 ** 13) * 8)


def test_delta_refuses_a_non_homogeneous_surface(monkeypatch):
    coeffs = list(identities.verified_surface_coefficients())
    coeffs[0] = coeffs[0] + parse("a")
    monkeypatch.setattr(identities, "verified_surface_coefficients", lambda: tuple(coeffs))
    with pytest.raises(identities.IdentityError, match="not homogeneous"):
        geo.bound_check(3, 40)


# -- surface enumeration -----------------------------------------------------------


def test_surface_counts_m3_frozen():
    doc = geo.surface_report(2, F3, collect_points=True)
    assert doc["counts"] == {"total": 22, "on_excluded_lines": 22,
                             "on_degree44_curve": 1, "filtered": 0}
    # no filtered points can exist at m=3: the family is APN there
    assert all(p["on_excluded_lines"] for p in doc["points"])


def test_surface_points_reverify_through_trivariate_evaluation():
    # independent re-evaluation: full multivariate polynomial vs the cubic solve
    P = identities.surface_polynomial()
    doc = geo.surface_report(2, F3, collect_points=True)
    assert len(doc["points"]) == doc["counts"]["total"]
    for pt in doc["points"]:
        val = P.eval({"a": int(pt["alpha"], 16), "b": int(pt["beta"], 16),
                      "g": 1, "u": 2, "y": int(pt["y"], 16)}, F3)
        assert val == 0


def test_roots_match_trivariate_evaluation_exhaustively_m3():
    # completeness: no root of P is missed, for every u and every (alpha, beta)
    P = identities.surface_polynomial()
    for u in range(1, 8):
        ev = geo.SurfaceEvaluator(u, F3)
        for alpha in range(8):
            for beta in range(8):
                point = {"a": alpha, "b": beta, "g": 1, "u": u}
                expected = [y for y in range(8) if P.eval({**point, "y": y}, F3) == 0]
                assert ev.solve_pair(alpha, beta)[1] == expected


def _brute_roots(ev, alpha, beta):
    """The y where all seven specialized coefficients of P sum to zero."""
    coeffs = ev.surface_coeffs(alpha, beta)
    mul = ev.ctx.mul
    out = []
    for y in range(ev.ctx.q):
        acc = coeffs[6]
        for k in range(5, -1, -1):
            acc = mul(acc, y) ^ coeffs[k]
        if not acc:
            out.append(y)
    return out


def _brute_solve(ctx, c0, c2, c6, beta):
    """The y with c6*w^3 + c2*w + c0 = 0 for w = y^2 + beta*y, by FieldCtx.mul."""
    mul = ctx.mul
    out = []
    for y in range(ctx.q):
        w = ctx.square(y) ^ mul(beta, y)
        if mul(c6, ctx.pow(w, 3)) ^ mul(c2, w) ^ c0 == 0:
            out.append(y)
    return out


def test_solver_matches_brute_force_on_every_branch_f8():
    # made-up (c0, c2, c6, beta) over all of F_8^4 reach every branch,
    # c6 = c2 = 0 != c0 included, which the surface itself never does
    ev = geo.SurfaceEvaluator(2, F3)
    for c0 in range(8):
        for c2 in range(8):
            for c6 in range(8):
                for beta in range(8):
                    expected = _brute_solve(F3, c0, c2, c6, beta)
                    assert ev._solve(c0, c2, c6, beta) == expected, (c0, c2, c6, beta)


@pytest.mark.parametrize("m, draws", [(6, 600), (9, 250)])
def test_solver_matches_brute_force_sampled(m, draws):
    # the log-domain solver's index arithmetic mod q-1 shows faults only at
    # larger q; each operand is 0 in about a quarter of the draws
    ctx = make_field(m)
    ev = geo.SurfaceEvaluator(2, ctx)
    rng = random.Random(m)
    for _ in range(draws):
        c0, c2, c6, beta = (rng.randrange(ctx.q) if rng.random() < 0.75 else 0 for _ in range(4))
        expected = _brute_solve(ctx, c0, c2, c6, beta)
        assert ev._solve(c0, c2, c6, beta) == expected, (m, c0, c2, c6, beta)


def test_roots_match_brute_force_m6_every_pair():
    for u in (0x2, 0x3, 0x7, 0xF):
        ev = geo.SurfaceEvaluator(u, F6)
        for alpha in range(64):
            for beta in range(64):
                roots = ev.solve_pair(alpha, beta)[1]
                assert roots == _brute_roots(ev, alpha, beta), (u, alpha, beta)


def test_roots_match_brute_force_m9_sampled():
    F9 = make_field(9)
    ev = geo.SurfaceEvaluator(0x7, F9)
    rng = random.Random(9)
    pairs = [(rng.randrange(512), rng.randrange(512)) for _ in range(2000)]
    pairs += [(0, beta) for beta in range(512)] + [(alpha, 0) for alpha in range(512)]
    for alpha, beta in pairs:
        assert ev.solve_pair(alpha, beta)[1] == _brute_roots(ev, alpha, beta), (alpha, beta)


def test_surface_setup_runs_once_per_process(monkeypatch):
    geo.SurfaceEvaluator(0x2, F6)

    def boom(*args):
        raise AssertionError("surface set-up ran again")

    # a new u re-verifies no identity and rebuilds no field table
    monkeypatch.setattr(identities, "_run_check", boom)
    monkeypatch.setattr(FieldCtx, "square", boom)
    ev = geo.SurfaceEvaluator(0x3, F6)
    monkeypatch.undo()
    for cached in (identities.verified_surface_coefficients, identities.linearized_rhs_polynomial,
                   identities.obstruction_polynomial, geo._surface_polynomials, geo._field_tables):
        cached.cache_clear()
    fresh = geo.SurfaceEvaluator(0x3, F6)
    for alpha in range(64):
        for beta in range(64):
            assert ev.solve_pair(alpha, beta) == fresh.solve_pair(alpha, beta), (alpha, beta)


def test_a_new_u_compiles_only_what_the_walkers_read(monkeypatch):
    # H, c_0/H, c_2 and c_6 per u; the other c_k and the rhs on first read, once
    compiled, compile_ = [], geo._compile

    def spy(poly, u, ctx):
        compiled.append(poly)
        return compile_(poly, u, ctx)

    geo.SurfaceEvaluator(0x5, F6)  # the per-process set-up, outside the count
    monkeypatch.setattr(geo, "_compile", spy)
    differential_spectrum(0x2, F6)
    assert len(compiled) == 4
    ev = geo.SurfaceEvaluator(0x3, F6)
    assert len(compiled) == 8
    for _ in range(2):
        ev.rhs_coeffs(5, 9)
    assert len(compiled) == 11
    for _ in range(2):
        ev.surface_coeffs(5, 9)
    coeffs, rhs, h, k, _ = geo._surface_polynomials()
    assert len(compiled) == 16
    assert sorted(map(id, compiled[4:])) == sorted(map(id, (*coeffs, *rhs, h, k)))


def _rows_against_unfolded(monkeypatch, ev, pairs):
    """A row's H, c_0, c_2, c_6 and rhs against a lone pair, the unfolded terms and MPoly.eval.

    pairs come alpha-major, and each alpha's row is folded once; c_0, c_2
    and c_6 are the values handed to the solver.
    """
    ctx = ev.ctx
    coeffs = identities.verified_surface_coefficients()
    H = identities.obstruction_polynomial()
    rhs = [identities.linearized_rhs_polynomial().coeff_of("y", k) for k in (4, 2, 1)]
    handed = []
    monkeypatch.setattr(ev, "_solve", lambda c0, c2, c6, beta: handed.append((c0, c2, c6)))
    for alpha, betas in itertools.groupby(pairs, key=lambda p: p[0]):
        row, rhs_row = ev.row(alpha), ev.rhs_row(alpha)
        for _, beta in betas:
            point = {"a": alpha, "b": beta, "g": 1, "u": ev.u}
            expected = (H.eval(point, ctx), *(coeffs[k].eval(point, ctx) for k in (0, 2, 6)),
                        [c.eval(point, ctx) for c in rhs])
            c = ev.surface_coeffs(alpha, beta)
            unfolded = (ev.obstruction_value(alpha, beta), c[0], c[2], c[6],
                        ev.rhs_coeffs(alpha, beta))
            lone = (ev.solve_pair(alpha, beta)[0], *handed.pop(), unfolded[4])
            folded = (row(beta)[0], *handed.pop(), rhs_row(beta))
            assert folded == lone == unfolded == expected, (ev.u, alpha, beta)


def test_row_fold_matches_the_unfolded_terms(monkeypatch):
    # every pair at m=6 for u = 0 (outside the family), 0x2 and the 7th
    # powers 0x1 (K = 0) and 0x6, where H vanishes off the lines; seeded
    # pairs at m=9
    every = [(alpha, beta) for alpha in range(64) for beta in range(64)]
    for u in (0x0, 0x1, 0x2, 0x6):
        _rows_against_unfolded(monkeypatch, geo.SurfaceEvaluator(u, F6), every)
    rng = random.Random(2000)
    pairs = sorted((rng.randrange(512), rng.randrange(512)) for _ in range(2000))
    _rows_against_unfolded(monkeypatch, geo.SurfaceEvaluator(0x7, F9), pairs)


def test_surface_counts_m6_frozen():
    doc = geo.surface_report(2, F6)
    assert doc["counts"] == {"total": 4390, "on_excluded_lines": 190,
                             "on_degree44_curve": 57, "filtered": 4144}
    assert doc["counts"]["filtered"] >= 1  # witnesses exist at m=6


def test_surface_exclusions_fit_their_budget():
    # three lines of at most q + 1 points each, and a curve of at most 44q + 1,
    # for every u that is not a 7th power (at m = 3, u = 1 puts 211 on the lines)
    for ctx, us in ((F3, range(2, 8)), (F6, (0x2, 0x3, 0x7, 0xF))):
        for u in us:
            counts = geo.surface_report(u, ctx)["counts"]
            assert counts["on_excluded_lines"] <= 3 * (ctx.q + 1), (ctx.m, u)
            assert counts["on_degree44_curve"] <= 44 * ctx.q + 1, (ctx.m, u)


def _point_flags(ctx, u, alpha, beta, y):
    """(on_excluded_lines, on_degree44_curve) by field arithmetic, not by the evaluator's locus."""
    return (alpha == 0 or beta == 0 or y in (0, beta),
            alpha == ctx.mul(ctx.square(u), ctx.pow(beta, 3)))


def _every_point_report(ev):
    """`surface_report`'s counts and certificate from every point of `iter_surface_points`."""
    total = lines = curve = kept = 0
    first = None
    for alpha, beta, y in geo.iter_surface_points(ev):
        on_lines, on_curve = _point_flags(ev.ctx, ev.u, alpha, beta, y)
        total += 1
        lines += on_lines
        curve += on_curve
        if not (on_lines or on_curve):
            kept += 1
            if first is None and ev.obstruction_value(alpha, beta):
                first = alpha, beta, y
    counts = {"total": total, "on_excluded_lines": lines, "on_degree44_curve": curve,
              "filtered": kept}
    return {"counts": counts,
            "certificate": geo.point_to_witness(first, ev).to_json() if first else None}


@pytest.mark.parametrize("ctx", [F3, F6], ids=["m3", "m6"])
def test_folded_counts_match_the_full_walk(ctx):
    # every u, the 7th powers among them (1 in both fields, 0x6 at m=6) and
    # 0, which lies outside the family
    for u in range(ctx.q):
        ev = geo.SurfaceEvaluator(u, ctx)
        assert geo.surface_report(u, ctx, emit_witness=True) == _every_point_report(ev), (ctx.m, u)


def test_folded_counts_m9_frozen():
    # 0x2 is a 7th power: H vanishes on some orbits, which count image by image
    expected = {0x7: {"total": 260212, "on_excluded_lines": 1534,
                      "on_degree44_curve": 673, "filtered": 258006},
                0x2: {"total": 295275, "on_excluded_lines": 19363,
                      "on_degree44_curve": 841, "filtered": 275086}}
    for u, counts in expected.items():
        assert geo.surface_report(u, F9)["counts"] == counts, u
    assert _every_point_report(geo.SurfaceEvaluator(0x7, F9))["counts"] == expected[0x7]


def test_obstruction_vanishes_only_for_seventh_powers():
    # the premise that lets a generic orbit count from its representative
    # without evaluating H at its rotation images
    pairs = [(alpha, beta) for alpha in range(64) for beta in range(64)]
    for u in range(1, 64):
        ev = geo.SurfaceEvaluator(u, F6)
        vanishes = any(not ev.solve_pair(alpha, beta)[0] for alpha, beta in pairs)
        assert vanishes == is_seventh_power(u, F6), u


def test_surface_counts_solve_one_pair_per_generic_orbit(monkeypatch):
    # m = 6: 19 pairs on the lines, one per torus orbit (191), and two more
    # for each orbit that meets the curve or, for the 7th power 0x6, a zero of H;
    # a pair is solved along a row or alone
    calls = []
    row, solve_pair = geo.SurfaceEvaluator.row, geo.SurfaceEvaluator.solve_pair

    def counted_row(ev, alpha):
        pair = row(ev, alpha)
        return lambda beta: calls.append((alpha, beta)) or pair(beta)

    def counted(ev, alpha, beta):
        calls.append((alpha, beta))
        return solve_pair(ev, alpha, beta)

    monkeypatch.setattr(geo.SurfaceEvaluator, "row", counted_row)
    monkeypatch.setattr(geo.SurfaceEvaluator, "solve_pair", counted)
    golden = json.loads((GOLDEN / "surface_m6_u0x02.json").read_text())
    assert geo.surface_report(0x2, F6)["counts"] == golden["counts"]
    assert len(calls) == 228
    calls.clear()
    geo.surface_report(0x6, F6)
    assert len(calls) == 332


def test_rotation_rows_are_built_once_per_field():
    # the rows depend on the field alone: a spectrum for another u, the
    # surface counts and the permutation test reuse them, and they equal a fresh build
    differential_spectrum(0x3, F6)
    built = dv._rotation_rows.cache_info().misses
    golden = {name: json.loads((GOLDEN / f"{name}_m6_u0x02.json").read_text())
              for name in ("spectrum", "surface")}
    assert differential_spectrum(0x2, F6)["histogram"] == golden["spectrum"]["histogram"]
    assert geo.surface_report(0x2, F6)["counts"] == golden["surface"]["counts"]
    assert not dv.is_permutation(0x2, F6)
    assert dv._rotation_rows.cache_info().misses == built
    for ctx in (F6, F9):
        assert dv._rotation_rows(ctx) == dv._rotation_rows.__wrapped__(ctx), ctx.m


def test_walks_fold_each_row_they_read_once(monkeypatch):
    # the surface counts fold each row of weight 21 (7 at m = 6) once, the
    # witness scan its first row, alpha = 1; the pairs on the lines, the
    # pairs of weight 7 and the rotation images are solved alone.
    # cross_validate folds each row alpha != 0 once for P and once for the
    # rhs, and evaluates no rhs unfolded
    folds, unfolded = [], []
    fold, rhs_coeffs = geo.SurfaceEvaluator._fold, geo.SurfaceEvaluator.rhs_coeffs
    monkeypatch.setattr(geo.SurfaceEvaluator, "_fold",
                        lambda ev, alpha, polys: folds.append(alpha) or fold(ev, alpha, polys))
    monkeypatch.setattr(geo.SurfaceEvaluator, "rhs_coeffs",
                        lambda ev, a, b: unfolded.append(b) or rhs_coeffs(ev, a, b))
    rows = [row[0][0] for row in geo._rotation_rows(F6) if row[2] == 21]
    assert len(rows) == len(set(rows)) == 7
    for u in (0x2, 0x3, 0x7, 0xF, 0x6):
        folds.clear()
        doc = geo.surface_report(u, F6, emit_witness=True)
        assert doc["certificate"]["triple"][0] == "0x1"
        assert folds == [*rows, 1], u
    folds.clear()
    unfolded.clear()
    assert geo.cross_validate(0x2, F6)["consistent"]
    assert folds == [alpha for alpha in range(1, 64) for _ in range(2)]
    assert unfolded == []


def test_witness_scan_runs_only_when_the_counts_show_one(monkeypatch):
    # u = 1 is a 7th power with no filtered point where H is nonzero
    monkeypatch.setattr(geo, "_first_witness_point",
                        lambda ev: pytest.fail("the scan ran without a witness to find"))
    assert geo.surface_report(0x1, F6, emit_witness=True)["certificate"] is None


def test_log_domain_terms_match_polynomial_evaluation():
    # the compiled terms against MPoly.eval of the uncompiled polynomials:
    # every pair at m=3, seeded pairs (and the zero lines) at m=6
    coeffs = identities.verified_surface_coefficients()
    H = identities.obstruction_polynomial()
    rhs = identities.linearized_rhs_polynomial()
    rng = random.Random(6)
    m6_pairs = [(rng.randrange(64), rng.randrange(64)) for _ in range(150)]
    m6_pairs += [(0, 0), (0, 5), (9, 0)]
    cases = [(F3, u, [(al, be) for al in range(8) for be in range(8)]) for u in range(8)]
    cases += [(F6, u, m6_pairs) for u in (0x2, 0x7)]
    for ctx, u, pairs in cases:
        ev = geo.SurfaceEvaluator(u, ctx)
        for alpha, beta in pairs:
            point = {"a": alpha, "b": beta, "g": 1, "u": u}
            assert ev.surface_coeffs(alpha, beta) == [c.eval(point, ctx) for c in coeffs]
            assert ev.obstruction_value(alpha, beta) == H.eval(point, ctx)
            y = (alpha * 5 + beta) % ctx.q
            c4, c2, c1 = ev.rhs_coeffs(alpha, beta)
            value = ctx.mul(c4, ctx.pow(y, 4)) ^ ctx.mul(c2, ctx.square(y)) ^ ctx.mul(c1, y)
            assert value == rhs.eval(
                {**point, "y": y, "x": 0, "z": 0, "xi": 0}, ctx), (ctx.m, u, alpha, beta)


def test_surface_guards():
    with pytest.raises(ValueError):
        geo.surface_report(2, make_field(4))
    with pytest.raises(ValueError, match="m <= 12"):
        geo.surface_report(2, make_field(15))
    # counts and the witness reach m=12; listing the points stops at m=9
    with pytest.raises(ValueError, match="listing surface points is limited to m <= 9"):
        geo.surface_report(2, make_field(12), collect_points=True)


def test_filtered_iteration_respects_flags():
    # every point at m=6, for u = 0 (outside the family), 0x2 and the 7th power 0x6
    for u in (0x0, 0x2, 0x6):
        ev = geo.SurfaceEvaluator(u, F6)
        kept = 0
        for alpha, beta, y in geo.iter_surface_points(ev):
            doc = ev.point_json(alpha, beta, y)
            flags = _point_flags(F6, u, alpha, beta, y)
            assert (doc["on_excluded_lines"], doc["on_degree44_curve"]) == flags, \
                (u, alpha, beta, y)
            if not any(flags):
                kept += 1
                assert y not in (0, beta) and alpha and beta
        assert kept or u == 0, u


def test_point_listing_m6_digests():
    # the listings of `surface_report`, byte for byte: every point at u = 0x2,
    # and the filtered points at the 7th power u = 0x6
    for u, filtered, n, digest in (
            (0x2, False, 4390, "7011f0dc9b325ea5bb7f6e0dbabe024cdfe48f1e4de9ebd967c36d7e26cbc5ce"),
            (0x6, True, 5712, "abb1a5ea2ab03b8f75b76d96cf0ac6a46d7456473f6c0e4811dfec5a7c9c004f")):
        points = geo.surface_report(u, F6, filtered=filtered, collect_points=True)["points"]
        assert len(points) == n, u
        text = json.dumps(points, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == digest, u


# -- witness reconstruction -----------------------------------------------------------


def test_point_to_witness_m6():
    ev = geo.SurfaceEvaluator(2, F6)
    alpha, beta, y = geo._first_witness_point(ev)
    cert = geo.point_to_witness((alpha, beta, y), ev)
    assert cert.kernel_dim >= 2
    assert cert.triple == (alpha, beta, 1)
    # the reconstructed solution keeps the point's y coordinate
    assert any(v[1] == y for v in cert.solutions)


def test_no_witness_point_at_m3():
    # no pair has a root outside {0, beta} at m = 3.  For u >= 2 the kernel
    # walk agrees: the family is APN there.  Its witnesses for u = 0 (outside
    # the family) and u = 1 (a 7th power, so H = 0) lie at no generic pair
    for u in range(8):
        ev = geo.SurfaceEvaluator(u, F3)
        assert geo._first_witness_point(ev) is None, u
        found = dv.witness_search(u, F3)["verdicts"]["found"]
        assert found == (u < 2), u
        if found:
            assert all(ev.kernel_roots(a, b) == (0, []) for a in range(8) for b in range(8)
                       if len(dv.kernel_basis((a, b, 1), u, F3)) >= 2), u


def test_point_to_witness_rejects_flagged_points():
    with pytest.raises(ValueError, match="excluded line"):
        geo.point_to_witness((1, 1, 0), geo.SurfaceEvaluator(2, F6))


def test_point_to_witness_rejects_a_vanishing_obstruction():
    # for u = 0x6, a 7th power, the obstruction form vanishes at filtered points
    ev = geo.SurfaceEvaluator(6, F6)
    pt = next((alpha, beta, y) for alpha, beta, y in geo.iter_surface_points(ev)
              if not any(_point_flags(F6, 6, alpha, beta, y))
              and not ev.obstruction_value(alpha, beta))
    with pytest.raises(ValueError, match="H = 0"):
        geo.point_to_witness(pt, ev)


def test_curve_table_matches_field_arithmetic():
    for u in range(64):
        expected = [F6.mul(F6.square(u), F6.pow(beta, 3)) for beta in range(64)]
        assert geo.SurfaceEvaluator(u, F6).curve == expected, u


def _rebuilt_by_mul(ctx, u, a, y, h, rhs):
    """x = rhs(y)/(u^3*beta^6*h), z = (alpha*x^2 + alpha^2*x + u*y^2)/(u*beta^2) by FieldCtx.mul."""
    mul, sq = ctx.mul, ctx.square
    inv = lambda c: ctx.pow(c, ctx.q - 2)
    alpha, beta, _ = a
    c4, c2, c1 = rhs
    rhs_y = mul(c4, ctx.pow(y, 4)) ^ mul(c2, sq(y)) ^ mul(c1, y)
    x = mul(rhs_y, inv(mul(ctx.pow(u, 3), mul(ctx.pow(beta, 6), h))))
    z = mul(mul(alpha, sq(x)) ^ mul(sq(alpha), x) ^ mul(u, sq(y)), inv(mul(u, sq(beta))))
    return x, y, z


def test_check_root_rebuilds_the_mul_formulas():
    # at every root y outside {0, beta} of every generic pair
    for u in (0x2, 0x6):
        ev = geo.SurfaceEvaluator(u, F6)
        checked = 0
        for alpha in range(1, 64):
            for beta in range(1, 64):
                h = ev.obstruction_value(alpha, beta)
                roots = [y for y in ev.solve_pair(alpha, beta)[1] if y not in (0, beta)]
                if not (h and roots) or alpha == F6.mul(F6.square(u), F6.pow(beta, 3)):
                    continue
                a = (alpha, beta, 1)
                rhs = ev.rhs_coeffs(alpha, beta)
                solutions = {pack_vec(v, 6) for v in build_certificate(a, u, F6).solutions}
                for y in roots:
                    expected = _rebuilt_by_mul(F6, u, a, y, h, rhs)
                    assert geo._check_root(ev, a, y, h, rhs, solutions) == expected, (u, a, y)
                    checked += 1
        assert checked == {0x2: 4144, 0x6: 5194}[u]


def test_check_root_formulas_hold_off_the_surface(monkeypatch):
    # made-up inputs reach the zero guards that surface roots never do:
    # alpha = 0, alpha = x, y in {0, beta} and zero rhs coefficients
    seen = []
    monkeypatch.setattr(geo, "verify_solution", lambda a, v, u, ctx: seen.append(v) or False)
    ev = geo.SurfaceEvaluator(0x2, F6)
    rng = random.Random(7)
    for _ in range(1000):
        beta, h = rng.randrange(1, 64), rng.randrange(1, 64)
        y = rng.choice((0, beta, rng.randrange(64)))
        rhs = [rng.choice((0, rng.randrange(64))) for _ in range(3)]
        x = _rebuilt_by_mul(F6, 0x2, (0, beta, 1), y, h, rhs)[0]  # x does not depend on alpha
        for alpha in (0, x, rng.randrange(64)):
            a = (alpha, beta, 1)
            seen.clear()
            with pytest.raises(geo.GeometryError, match="does not solve"):
                geo._check_root(ev, a, y, h, rhs, None)
            assert seen == [_rebuilt_by_mul(F6, 0x2, a, y, h, rhs)], (a, y, h, rhs)


def test_check_root_rejects_a_trivial_vector(monkeypatch):
    # a rebuilt a solves the system and lies in the span, yet stands for no root
    a = (1, 0x1A, 1)
    monkeypatch.setattr(geo, "_rebuild", lambda *args: a)
    ev = geo.SurfaceEvaluator(0x2, F6)
    span = {pack_vec(v, 6) for v in build_certificate(a, 0x2, F6).solutions}
    for solutions in (None, span):
        with pytest.raises(geo.GeometryError, match="is a trivial solution"):
            geo._check_root(ev, a, 0x4, 1, [0, 0, 0], solutions)


def test_check_root_divides_by_u_beta_and_h():
    ev, ev0 = geo.SurfaceEvaluator(2, F6), geo.SurfaceEvaluator(0, F6)
    for e, a, h in ((ev0, (3, 5, 1), 1), (ev, (3, 0, 1), 1), (ev, (3, 5, 1), 0)):
        with pytest.raises(ZeroDivisionError):
            geo._check_root(e, a, 7, h, e.rhs_coeffs(a[0], a[1]), None)


def test_cross_validation_consistent_m3():
    rep = geo.cross_validate(2, F3)
    assert rep["consistent"]
    # the family is APN at m=3: no kernel witnesses and no filtered points
    assert rep["kernel_witness_triples"] == 0
    assert rep["surface_points_checked"] == 0


def _count_relation_dims(u, ctx, pairs):
    """The kernel dimension k at each generic pair, asserting 2^k = 2 + #roots outside {0, beta}.

    A pair is generic when u*alpha*beta != 0, it is off the degree-44 curve
    and the obstruction form is nonzero.  k is taken from the per-triple
    columns rather than the row walk.  `kernel_roots` must give (h, roots)
    at a generic pair and (0, []) at any other.
    """
    ev = geo.SurfaceEvaluator(u, ctx)
    dims = []
    for alpha, beta in pairs:
        h = ev.obstruction_value(alpha, beta)
        roots = [y for y in ev.solve_pair(alpha, beta)[1] if y not in (0, beta)]
        generic = u and alpha and beta and h and alpha != ctx.mul(ctx.square(u), ctx.pow(beta, 3))
        assert ev.kernel_roots(alpha, beta) == ((h, roots) if generic else (0, [])), \
            (u, alpha, beta)
        if not generic:
            continue
        k = len(_kernel(derivative_columns((alpha, beta, 1), u, ctx), 3 * ctx.m))
        assert 1 << k == 2 + len(roots), (u, alpha, beta)
        dims.append(k)
    return dims


def test_kernel_roots_are_empty_for_u_zero():
    # u = 0 lies outside the family: no pair is generic
    ev = geo.SurfaceEvaluator(0, F6)
    assert all(ev.kernel_roots(a, b) == (0, []) for a in range(64) for b in range(64))


def test_cross_validation_consistent_m6(monkeypatch):
    # one sweep with no certificate built and no point rebuilt into one.
    # u = 0x6 is a 7th power: the surface need not carry the kernel at the
    # 413 pairs where the obstruction form vanishes, so they are skipped
    for name in ("build_certificate", "point_to_witness"):
        monkeypatch.setattr(geo, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    for u, triples, witnesses, points in ((0x2, 3906, 1680, 4144), (0x6, 3493, 1771, 5194)):
        rep = geo.cross_validate(u, F6)
        assert rep["consistent"] and rep["mismatches"] == []
        assert (rep["kernel_triples_checked"], rep["kernel_witness_triples"],
                rep["surface_points_checked"]) == (triples, witnesses, points)
        dims = _count_relation_dims(u, F6, ((a, b) for a in range(64) for b in range(64)))
        assert len(dims) == triples and sum(k >= 2 for k in dims) == witnesses


def test_count_relation_on_sampled_pairs_m9():
    # cross_validate does not evaluate 2^dim = 2 + #roots; it holds on
    # seeded generic pairs at m = 9, u = 0x7, over kernels of dimension 1 to 3
    rng = random.Random(9)
    pairs = []
    while len(pairs) < 2000:
        alpha, beta = rng.randrange(1, 512), rng.randrange(1, 512)
        if alpha != F9.mul(F9.square(7), F9.pow(beta, 3)):
            pairs.append((alpha, beta))
    dims = _count_relation_dims(7, F9, pairs)
    assert len(dims) == 2000 and set(dims) == {1, 2, 3}


def _with_column_faults(columns, faults):
    """`_chart_columns` with image bit b of column j flipped at each ((alpha, beta), j, b).

    The flipped bit is the lane of (alpha, beta) in the word of bit b of column j.
    """

    def faulty(ctx, u, a0, rows):
        words = columns(ctx, u, a0, rows)
        for (alpha, beta), j, b in faults:
            if a0 <= alpha < a0 + rows:
                words[j][b] ^= 1 << (alpha - a0) * ctx.q + beta
        return words

    return faulty


def _outcome(u, ctx):
    """cross_validate's exception, or its mismatch count and a sha256 prefix of its report."""
    try:
        rep = geo.cross_validate(u, ctx)
    except CertificateError as err:
        return f"CertificateError: {err}"
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    return f"{len(rep['mismatches'])} {digest[:16]}"


def _flags(solve, triple):
    flags = {"solutions_solve_system": solve, "contains_zero": True,
             "contains_triple": triple, "count_is_power_of_two": True}
    return f"CertificateError: certificate re-verification failed: {flags}"


CLEAN_M6_U2 = "0 959f43f1e9317014"
# Corrupt columns at m = 6, u = 0x2, one or two pairs each, none of them
# symmetric under mu_7.  Each outcome (an exception, or the mismatch count
# and a sha256 prefix of the report) was frozen from a cross-validation that
# built every pair's certificate.
COLUMN_FAULTS = [
    ((((11, 27), 9, 15), ((45, 27), 6, 15)), CLEAN_M6_U2),
    ((((52, 62), 16, 5),), CLEAN_M6_U2),
    ((((33, 34), 7, 0),), CLEAN_M6_U2),
    ((((1, 24), 13, 2), ((60, 38), 4, 7)), _flags(False, True)),
    ((((59, 15), 1, 13),), "2 9a9eeb2c28c6b018"),
    ((((48, 50), 13, 14),), CLEAN_M6_U2),
    ((((3, 62), 15, 3), ((22, 35), 11, 0)), "2 fa3e8d78bd5b020d"),
    ((((10, 48), 2, 3),), CLEAN_M6_U2),
    ((((52, 60), 0, 14),), "2 7e8e5081e4a058b7"),
    ((((11, 36), 12, 15), ((47, 22), 4, 5)), _flags(False, False)),
    ((((43, 3), 15, 7),), CLEAN_M6_U2),
    ((((5, 50), 6, 6),), _flags(False, True)),
    ((((54, 6), 5, 15),), _flags(True, False)),
    ((((43, 11), 11, 10),), "2 8604315fbbfd0dea"),
    ((((36, 5), 13, 15), ((29, 52), 1, 9)), "4 663265f4ac695007"),
]


def test_cross_validation_column_faults_match_the_certificate_path(monkeypatch):
    # a corrupt column changes the kernel at its pair (or leaves it alone);
    # the span checks then report or raise exactly as a certificate built
    # at every pair did
    assert _outcome(2, F6) == CLEAN_M6_U2
    columns = dv._chart_columns
    for faults, expected in COLUMN_FAULTS:
        monkeypatch.setattr(dv, "_chart_columns", _with_column_faults(columns, faults))
        assert _outcome(2, F6) == expected, faults


def test_cross_validation_reports_a_root_missing_from_a_smaller_kernel(monkeypatch):
    # the fault takes the kernel at (1, 0x1A, 1) from dimension 3 to 2: its
    # span still verifies, and 4 of the 6 rebuilt vectors fall outside it
    faulty = _with_column_faults(dv._chart_columns, [((1, 26), 1, 0)])
    monkeypatch.setattr(dv, "_chart_columns", faulty)
    rep = geo.cross_validate(2, F6)
    assert [(mm["direction"], mm["point"]["y"]) for mm in rep["mismatches"]] == \
        [("surface_to_kernel", y) for y in ("0x4", "0x9", "0x13", "0x1E")]
    assert all(mm["detail"].endswith("missing from the kernel solutions")
               for mm in rep["mismatches"])


def test_cross_validation_runs_no_per_pair_elimination(monkeypatch):
    # every kernel comes from the chart engine: neither the row walk nor the
    # per-pair elimination runs, the report is the golden one, and progress
    # comes once per row from alpha = 0, last at 1.0
    for name in ("_representatives", "_kernel"):
        fail = lambda *args, name=name: pytest.fail(f"{name} was called")
        monkeypatch.setattr(geo, name, fail, raising=False)
        monkeypatch.setattr(dv, name, fail)
    golden = json.loads((GOLDEN / "cross_validate_m6_u0x02.json").read_text())
    progress = []
    assert geo.cross_validate(2, F6, progress=progress.append) == golden["report"]
    assert progress == [alpha / 64 for alpha in range(64)] + [1.0]


def test_cross_validation_checks_each_span_through_its_basis(monkeypatch):
    # verify_solution runs once per basis vector of each witness pair's kernel
    # other than the triple, a basis vector at every pair; the dimension k
    # comes from the per-triple elimination
    calls = []
    verify = dv.verify_solution
    monkeypatch.setattr(dv, "verify_solution", lambda *args: calls.append(args) or verify(*args))
    rep = geo.cross_validate(2, F6)
    dims = [k for k in _count_relation_dims(2, F6, ((a, b) for a in range(64) for b in range(64)))
            if k >= 2]
    assert rep["consistent"] and len(dims) == rep["kernel_witness_triples"] == 1680
    assert len(calls) == sum(k - 1 for k in dims) == 1876
    assert not any(a == v for a, v, *_ in calls)


def test_cross_validation_does_not_reverify_vectors_in_the_span(monkeypatch):
    # every rebuilt vector lies in the span whose basis derivative's own
    # verify_solution checked, so geometry's is never asked again: with it
    # rejecting everything, the report does not change
    clean = geo.cross_validate(2, F6)
    monkeypatch.setattr(geo, "verify_solution", lambda a, v, u, ctx: False)
    rep = geo.cross_validate(2, F6)
    assert rep == clean and rep["consistent"] and rep["kernel_witness_triples"] == 1680


def test_cross_validation_planted_fault_is_detected(monkeypatch):
    # a wrong constant term of P moves its roots: both directions must fire,
    # every kernel-to-surface mismatch listed before any surface-to-kernel one
    solve = geo.SurfaceEvaluator._solve

    def flipped(ev, c0, c2, c6, beta):
        return solve(ev, c0 ^ 1, c2, c6, beta)

    monkeypatch.setattr(geo.SurfaceEvaluator, "_solve", flipped)
    rep = geo.cross_validate(2, F6)
    directions = [mm["direction"] for mm in rep["mismatches"]]
    assert directions == ["kernel_to_surface"] * 1680 + ["surface_to_kernel"] * 3704


def test_cross_validation_guards():
    with pytest.raises(ValueError, match="m <= 9"):
        geo.cross_validate(2, make_field(12))
    with pytest.raises(ValueError, match="outside the family"):
        geo.cross_validate(0, F6)


# -- count vs band -----------------------------------------------------------------------


def test_count_vs_band_m3():
    doc = geo.count_vs_band(2, F3)
    assert doc["count"] == 22
    assert doc["counts_agree"]
    assert doc["band_vacuous"]  # width exceeds q^2 at this size


def test_count_vs_band_m6():
    doc = geo.count_vs_band(2, F6)
    assert doc["count"] == 4390
    assert doc["counts_agree"]
    # 210 * 512^(3/2)-scale width dwarfs q^2 = 4096: recorded honestly
    assert doc["band_vacuous"]
    assert "caveat" in doc
