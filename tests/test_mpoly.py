"""Sparse polynomial engine: ring axioms, resultants, division, text format."""

import random

import pytest

from triapn.gf2m import make_field
from triapn.mpoly import (GF2, GF8, VARS, ExactDivisionError, MPoly,
                          divide_exact, parse, resultant)


def P(s, dom=GF2):
    return parse(s, dom)


def rand_poly(rng, variables=("x", "y", "a"), max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in variables)
        terms[e] = terms.get(e, 0) ^ 1
    return MPoly(variables, GF2, terms)


def to_sympy(p, symbols):
    import sympy

    expr = sympy.Integer(0)
    for exps, _ in p.terms.items():
        term = sympy.Integer(1)
        for s, e in zip(symbols, exps):
            term *= s ** e
        expr += term
    return expr


# -- ring behaviour -------------------------------------------------------------


def test_char2_basics():
    xy = P("x + y")
    assert (xy + xy).is_zero
    assert xy * xy == P("x^2 + y^2")
    assert P("a*x^2") * P("a") == P("a^2*x^2")
    assert xy + P("y") == P("x")
    assert P("x") * P("y") == P("x*y")


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(60):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + p).is_zero
        assert (p + q).square() == p.square() + q.square()
        assert p ** 2 == p * p and p ** 3 == p * p * p


def test_domain_mismatch_rejected():
    with pytest.raises(ValueError, match="ring mismatch"):
        P("x") + parse("e1*x", GF8)
    with pytest.raises(ValueError, match="ring mismatch"):
        P("x") * MPoly(("x", "y"), GF2, {(1, 0): 1})


def test_immutability():
    p = P("x")
    with pytest.raises(AttributeError):
        p.terms = {}


# -- substitution ----------------------------------------------------------------


def test_substitute_examples():
    # den = 1 is plain substitution
    assert P("z^2").substitute_cleared("z", P("x + y"), P("1")) == P("x^2 + y^2")
    assert P("x").substitute_cleared("y", P("u^5 + 1"), P("1")) == P("x")


def test_substitute_first_equation_self_consistency():
    # replacing z by its solved expression (cleared by u*b^2) kills the equation
    f1 = P("a*x^2 + a^2*x + u*g*y^2 + u*b^2*z")
    cleared = f1.substitute_cleared("z", P("a*x^2 + a^2*x + u*g*y^2"), P("u*b^2"))
    assert cleared.is_zero


def test_substitute_cleared_matches_manual_clearing():
    rng = random.Random(5)
    ring = ("x", "y", "a")
    num = parse("y^2 + a", GF2, ring)
    den = parse("a^2", GF2, ring)
    for _ in range(20):
        p = rand_poly(rng, variables=ring)
        d = p.degree("x")
        if d < 1:
            continue
        cleared = p.substitute_cleared("x", num, den)
        acc = MPoly.zero(ring, GF2)
        for k in range(d + 1):
            acc = acc + p.coeff_of("x", k) * num ** k * den ** (d - k)
        assert cleared == acc


# -- resultants --------------------------------------------------------------------


def test_resultant_linear_cases():
    assert resultant(P("x + a"), P("x + b"), "x") == P("a + b")
    assert resultant(P("x^2 + a"), P("x + b"), "x") == P("b^2 + a")


def test_resultant_rejects_degree_zero():
    with pytest.raises(ValueError, match="positive degree"):
        resultant(P("a"), P("x + a"), "x")


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(9)
    hits = 0
    for _ in range(40):
        f = rand_poly(rng)
        if f.degree("x") < 1:
            continue
        p = f * rand_poly(rng)
        q = f * rand_poly(rng)
        if p.degree("x") < 1 or q.degree("x") < 1:
            continue
        assert resultant(p, q, "x").is_zero
        hits += 1
    assert hits > 10


def test_resultant_against_sympy():
    import sympy

    rng = random.Random(42)
    X, Y, A = sympy.symbols("x y a")
    checked = 0
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.degree("x") < 1 or q.degree("x") < 1:
            continue
        mine = resultant(p, q, "x")
        ref = sympy.Poly(
            sympy.resultant(sympy.Poly(to_sympy(p, (X, Y, A)), X, Y, A, modulus=2),
                            sympy.Poly(to_sympy(q, (X, Y, A)), X, Y, A, modulus=2), X),
            Y, A, modulus=2)
        mine_ref = sympy.Poly(to_sympy(mine, (X, Y, A)), Y, A, modulus=2)
        assert mine_ref == ref
        checked += 1
    assert checked > 20


def test_resultant_large_sylvester_against_sympy():
    # x-degrees summing to 7 or more give Sylvester matrices larger than the
    # 5x5 the elimination chain needs
    import sympy

    rng = random.Random(17)
    X, Y, A = sympy.symbols("x y a")
    checked = 0
    while checked < 8:
        p = rand_poly(rng, max_terms=5, max_exp=4)
        q = rand_poly(rng, max_terms=5, max_exp=4)
        if p.degree("x") + q.degree("x") < 7:
            continue
        mine = resultant(p, q, "x")
        ref = sympy.Poly(
            sympy.resultant(sympy.Poly(to_sympy(p, (X, Y, A)), X, Y, A, modulus=2),
                            sympy.Poly(to_sympy(q, (X, Y, A)), X, Y, A, modulus=2), X),
            Y, A, modulus=2)
        assert sympy.Poly(to_sympy(mine, (X, Y, A)), Y, A, modulus=2) == ref
        checked += 1


def test_resultant_specializes():
    # eval(res(p, q, x)) == res(eval-partial p, eval-partial q) when leading
    # coefficients survive the specialization
    ctx = make_field(6)
    rng = random.Random(23)

    def univariate(p, assign):
        return [p.coeff_of("x", k).eval(assign, ctx) for k in range(p.degree("x") + 1)]

    def uni_resultant(pc, qc):
        # Sylvester determinant over F_q by Gaussian elimination
        dp, dq = len(pc) - 1, len(qc) - 1
        n = dp + dq
        rows = []
        for i in range(dq):
            row = [0] * n
            for k, c in enumerate(pc):
                row[i + dp - k] = c
            rows.append(row)
        for i in range(dp):
            row = [0] * n
            for k, c in enumerate(qc):
                row[i + dq - k] = c
            rows.append(row)
        det = 1
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col]), None)
            if piv is None:
                return 0
            rows[col], rows[piv] = rows[piv], rows[col]
            det = ctx.mul(det, rows[col][col])
            inv = ctx.inv(rows[col][col])
            for i in range(col + 1, n):
                if rows[i][col]:
                    f = ctx.mul(rows[i][col], inv)
                    rows[i] = [r ^ ctx.mul(f, c) for r, c in zip(rows[i], rows[col])]
        return det

    checked = 0
    while checked < 15:
        p, q = rand_poly(rng), rand_poly(rng)
        if p.degree("x") < 1 or q.degree("x") < 1:
            continue
        assign = {"y": rng.randrange(ctx.q), "a": rng.randrange(ctx.q)}
        pc, qc = univariate(p, assign), univariate(q, assign)
        if pc[-1] == 0 or qc[-1] == 0:
            continue
        lhs = resultant(p, q, "x").eval(assign, ctx)
        assert lhs == uni_resultant(pc, qc)
        checked += 1


# -- exact division ------------------------------------------------------------------


def test_divide_exact_examples():
    assert divide_exact(P("u*x + u*y"), P("u")) == P("x + y")
    assert divide_exact(P("x^2 + y^2"), P("x + y")) == P("x + y")
    with pytest.raises(ExactDivisionError) as err:
        divide_exact(P("x + y"), P("u"))
    assert not err.value.remainder.is_zero


def test_divide_exact_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(40):
        p, d = rand_poly(rng), rand_poly(rng)
        if d.is_zero:
            continue
        assert divide_exact(p * d, d) == p
    with pytest.raises(ZeroDivisionError):
        divide_exact(P("x"), MPoly.zero())


# -- text format ------------------------------------------------------------------------


def test_parse_print_roundtrip():
    for s in ("0", "1", "x", "x^2*y + u*b^3",
              "a^4*g + u*a*b^2*g^2 + u^3*b^5",
              "u^10*b^14 + u^5*b^7*g^7 + u^2*b^7*g^7 + g^14"):
        p = P(s)
        assert parse(str(p)) == p
    g = parse("e3*a^2*b + e1*xi^5 + e0", GF8)
    assert parse(str(g), GF8) == g
    assert str(MPoly.zero()) == "0"
    assert str(MPoly.const(1)) == "1"


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown variable"):
        parse("w^2")
    with pytest.raises(ValueError, match="GF\\(8\\) coefficient"):
        parse("e2*x", GF2)
    with pytest.raises(ValueError):
        MPoly(("x",), "gf5", {})


def test_parse_duplicate_terms_cancel():
    assert parse("x + x").is_zero
    assert parse("x*x") == P("x^2")


def test_gf8_coefficient_tables():
    from triapn.mpoly import ETA_POW, GF8_INV, GF8_MUL

    assert ETA_POW == [1, 2, 4, 3, 6, 7, 5]  # eta^3 = eta + 1
    for a in range(1, 8):
        assert GF8_MUL[a][GF8_INV[a]] == 1
    # eta^7 = 1
    acc = 1
    for _ in range(7):
        acc = GF8_MUL[acc][2]
    assert acc == 1


# -- evaluation ---------------------------------------------------------------------------


def test_eval_basics():
    ctx = make_field(6)
    assert P("x + y").eval({"x": 9, "y": 9}, ctx) == 0
    v = P("x^3 + u*x").eval({"x": 3, "u": 2}, ctx)
    assert v == ctx.add(ctx.pow(3, 3), ctx.mul(2, 3))
    with pytest.raises(ValueError, match="missing"):
        P("x + y").eval({"x": 1}, ctx)


def test_eval_gf8_embedding():
    ctx = make_field(6)
    img = parse("e1*x", GF8).eval({"x": 1}, ctx)
    # the image of eta must be a root of t^3 + t + 1
    assert ctx.add(ctx.add(ctx.mul(ctx.square(img), img), img), 1) == 0
    ctx4 = make_field(4)
    with pytest.raises(ValueError, match="embed"):
        parse("e1*x", GF8).eval({"x": 1}, ctx4)


def test_domain_conversion():
    p = P("x + u")
    q = p.to_gf8()
    assert q.domain == GF8 and q.terms == p.terms
