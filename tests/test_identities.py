"""The identity suite: exact passes, recorded scales, negative controls."""

import json
import random

import pytest

from triapn import formulas, identities
from triapn.gf2m import make_field
from triapn.mpoly import GF8, MPoly, VARS, divide_exact, parse, resultant


@pytest.fixture(scope="module")
def report():
    return identities.run_all()


def test_all_checks_pass(report):
    assert report.all_pass
    assert [c.name for c in report.checks] == list(identities.CHECK_ORDER)
    for c in report.checks:
        assert c.discrepancy is None


def test_recorded_scales(report):
    scales = {c.name: c.scale for c in report.checks}
    assert scales["z_elimination_1"] == "u"
    assert scales["z_elimination_2"] == "1"
    assert scales["quadratic_combination"] == "u*b^2"
    assert scales["linearization"] == "a^3"
    assert scales["eliminant_factorization"] == "u*b^2"
    assert "u^4*b^8" in scales["degenerate_locus"] and "b^2" in scales["degenerate_locus"]


def test_system_equations_shape():
    f1, f2, f3 = identities.build_system()
    assert len(f1) == len(f2) == len(f3) == 4
    zero = {v: 0 for v in "xyz"}
    ctx = make_field(6)
    for f in (f1, f2, f3):
        assert f.eval({**zero, "a": 5, "b": 9, "g": 17, "u": 2}, ctx) == 0


def test_eliminant_has_y_degree_8():
    assert identities.eliminant().degree("y") == 8


def test_a2_computed_value_frozen():
    # derived on the first verified run; the g=0 collapse and the b-multiple
    # relation pin it down independently of any transcription
    assert str(identities.surface_coefficient(2)) == (
        "a^14*u^8 + a^8*b^4*g^2*u^4 + a^4*b^2*g^8*u^2 + a^3*b^5*g^6*u^10"
        " + a^3*b^5*g^6*u^4 + a^2*b^8*g^4*u^12 + a*b^4*g^9*u^9 + a*b^4*g^9*u^3"
        " + b^14*u^10 + b^7*g^7*u^11 + b^7*g^7*u^5 + g^14*u^6"
    )
    assert identities.surface_coefficient(1) == parse("b") * identities.surface_coefficient(2)


def test_every_table_entry_selects_its_own_check(report):
    for name, full in zip(identities.CHECK_ORDER, report.checks):
        assert identities.run_all(only=name).checks == [full]


def test_report_json_roundtrip(report):
    doc = report.to_json()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
    assert doc["schema"] == "identities/1"


def test_failing_check_reports_parseable_discrepancy(monkeypatch):
    monkeypatch.setattr(formulas, "Z_ELIMINANT_1", formulas.Z_ELIMINANT_1 + " + x*y")
    c1 = identities.verify_z_elimination(1)
    assert not c1.passed
    diff = parse(c1.discrepancy)
    assert len(diff) == 1  # a single corrupted term, scaled by u
    assert diff == parse("u*x*y")


def test_planted_error_fails_exactly_that_check(monkeypatch):
    # the gamma=0 transcription feeds only its own check
    monkeypatch.setattr(formulas, "GAMMA0_CURVE_FACTORS",
                        (("u^8", 1), ("a^7 + u*b^7", 2), ("y", 2)))
    rep = identities.run_all()
    failing = [c.name for c in rep.checks if not c.passed]
    assert failing == ["gamma0_curve"]


def test_h_factor_negative_control(monkeypatch):
    # replacing the eta^3 exponent in one factor must break the expansion
    bad = tuple((i, 1 if (i, j) == (1, 3) else j)
                for i, j in formulas.OBSTRUCTION_FACTOR_ETA_POWERS)
    monkeypatch.setattr(formulas, "OBSTRUCTION_FACTOR_ETA_POWERS", bad)
    check = identities.verify_obstruction_factorization()
    assert not check.passed


def test_single_check_selection():
    rep = identities.run_all(only="z_elimination_1")
    assert [c.name for c in rep.checks] == ["z_elimination_1"]
    with pytest.raises(ValueError, match="unknown check"):
        identities.run_all(only="nope")


def test_u_nonroot_of_unity_cases(monkeypatch):
    m3 = identities.verify_u_nonroot_of_unity(3)
    assert m3.passed and m3.notes[0].startswith("m=3, u=0x2:")
    assert identities.verify_u_nonroot_of_unity(6).passed
    # u = 1 is a 7th power and u + 1 = 0: the precondition check must flag it
    monkeypatch.setattr(identities, "smallest_non_seventh_power", lambda ctx: 1)
    planted = identities.verify_u_nonroot_of_unity(6)
    assert not planted.passed and planted.discrepancy == "u+1=0x0;u^2+u+1=0x1"


def test_randomized_evaluation_smoke():
    # cheap layer beneath the exact one: both sides of each verified identity
    # agree at 100 random points of F_64
    ctx = make_field(6)
    rng = random.Random(2024)
    f1, f2, f3 = identities.build_system()
    r1, r2 = parse(formulas.Z_ELIMINANT_1), parse(formulas.Z_ELIMINANT_2)
    quadratic = parse(formulas.QUADRATIC_EQ)
    pairs = [
        (resultant(f1, f2, "z"), parse(formulas.Z_ELIMINANT_1_SCALE) * r1),
        (resultant(f1, f3, "z"), r2),
        (parse("g") * r1 + parse("a") * r2,
         parse(formulas.COMBINATION_SCALE) * quadratic),
        (identities.eliminant(),
         parse(formulas.ELIMINANT_MONOMIAL)
         * parse(formulas.ELIMINANT_CUBE_FACTOR) ** 3
         * parse("y") * parse("y + b") * identities.surface_polynomial()),
    ]
    names = "xyzabgu"
    for _ in range(100):
        assign = {v: rng.randrange(ctx.q) for v in names}
        for lhs, rhs in pairs:
            assert lhs.eval(assign, ctx) == rhs.eval(assign, ctx)


def test_h_factorization_smoke_through_embedding():
    # assigning xi a concrete value rho and u = rho^7 must reconcile the
    # GF(8) product with H itself
    ctx = make_field(6)
    rng = random.Random(99)
    prod = MPoly.const(1, VARS, GF8)
    for i, j in formulas.OBSTRUCTION_FACTOR_ETA_POWERS:
        prod = prod * parse(f"e0*xi^5*b + e{i}*xi*a + e{j}*g", GF8)
    h = identities.obstruction_polynomial()
    for _ in range(50):
        rho = rng.randrange(1, ctx.q)
        assign = {"a": rng.randrange(ctx.q), "b": rng.randrange(ctx.q),
                  "g": rng.randrange(ctx.q), "xi": rho}
        lhs = prod.eval(assign, ctx)
        rhs = h.eval({**assign, "u": ctx.pow(rho, 7)}, ctx)
        assert lhs == rhs


def test_h_has_no_nonzero_roots_m3_exhaustive():
    ctx = make_field(3)
    h = identities.obstruction_polynomial()
    u = 2
    for a in range(8):
        for b in range(8):
            for g in range(8):
                if (a, b, g) == (0, 0, 0):
                    continue
                assert h.eval({"a": a, "b": b, "g": g, "u": u}, ctx) != 0


def test_h_has_no_nonzero_roots_m6_exhaustive():
    # H = u*a^7 + u^2*a^4*b^2*g + u*a^2*b*g^4 + u^3*a*b^4*g^2 + u^5*b^7 + g^7,
    # evaluated over all 64^3 - 1 nonzero triples with precomputed powers
    ctx = make_field(6)
    u = 2
    mul = ctx.mul
    q = ctx.q
    pw = lambda e: [ctx.pow(c, e) for c in range(q)]
    p7, p4, p2 = pw(7), pw(4), pw(2)
    u1, u2, u3, u5 = (ctx.pow(u, e) for e in (1, 2, 3, 5))
    for a in range(q):
        t_a7 = mul(u1, p7[a])
        t_a4 = mul(u2, p4[a])
        t_a2 = mul(u1, p2[a])
        t_a1 = mul(u3, a)
        for b in range(q):
            c0 = t_a7 ^ mul(u5, p7[b])
            c1 = mul(t_a4, p2[b])
            c4 = mul(t_a2, b)
            c2 = mul(t_a1, p4[b])
            for g in range(q):
                if a == 0 and b == 0 and g == 0:
                    continue
                v = c0 ^ mul(c1, g) ^ mul(c4, p4[g]) ^ mul(c2, p2[g]) ^ p7[g]
                assert v != 0, (a, b, g)


def test_p_coefficients_verified_for_geometry():
    coeffs = identities.verified_surface_coefficients()
    assert len(coeffs) == 7
    assert coeffs[6] == parse("u + 1") ** 4 * parse("u^2 + u + 1") ** 4 * parse("a^2*b^4*g^4")
    # the constant coefficient carries the obstruction form H as a factor
    divide_exact(coeffs[0], identities.obstruction_polynomial())


def test_x4_divisibility_notes(report):
    notes = {c.name: c.notes for c in report.checks}
    assert any("divisible" in n for n in notes["x4_coefficients"])
    assert any("constant coefficient divisible by the obstruction form" in n
               for n in notes["eliminant_factorization"])
