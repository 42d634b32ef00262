"""Kernel engine: columns vs brute force, spectra, permutations, witnesses."""

import json
import pathlib
import random
import re
import time
from collections import Counter
from functools import reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triapn import derivative as dv
from triapn.gf2m import FieldCtx, make_field, smallest_non_seventh_power

F3 = make_field(3)
F6 = make_field(6)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def brute_solution_count(a, u, ctx):
    q = ctx.q
    return sum(1 for x in range(q) for y in range(q) for z in range(q)
               if dv.verify_solution(a, (x, y, z), u, ctx))


# -- eval_cu ---------------------------------------------------------------------


def test_eval_cu_fixed_points():
    assert dv.eval_cu(0, 0, 0, 2, F3) == (0, 0, 0)
    # without a mixed monomial the cross terms vanish
    assert dv.eval_cu(1, 0, 0, 2, F3) == (1, 0, 0)
    # the first input that activates every cross term
    u = 2
    assert dv.eval_cu(1, 1, 0, u, F3) == (1, 1, u)


def test_eval_cu_dual_path():
    # independent evaluation through repeated multiplication only
    ctx = F3
    u = 2
    for v in ((2, 2, 2), (3, 5, 7), (1, 6, 4)):
        x, y, z = v
        mul = ctx.mul
        cube = lambda c: mul(mul(c, c), c)
        expected = (
            cube(x) ^ mul(mul(u, mul(y, y)), z),
            cube(y) ^ mul(mul(u, x), mul(z, z)),
            cube(z) ^ mul(mul(u, mul(x, x)), y),
        )
        assert dv.eval_cu(x, y, z, u, ctx) == expected


# -- the columns of the linear map -------------------------------------------------


def apply(cols, v):
    """M*v: the XOR of the tagged columns that v selects, tags dropped."""
    out = 0
    for j, col in enumerate(cols):
        if v >> j & 1:
            out ^= col
    return out >> len(cols)


def test_zero_triple_gives_zero_matrix():
    cols = dv.derivative_columns((0, 0, 0), 2, F3)
    assert cols == [1 << j for j in range(9)]  # nothing but the tags
    assert dv.kernel_basis((0, 0, 0), 2, F3) == [1 << j for j in range(9)]


def test_triple_is_always_in_the_kernel():
    for code in range(1, 512, 7):
        a = dv.decode_triple(code, 3)
        assert apply(dv.derivative_columns(a, 2, F3), dv.pack_vec(a, 3)) == 0


def test_matrix_agrees_with_brute_force_exhaustively_m3():
    u = 2
    for code in range(1, 512):
        a = dv.decode_triple(code, 3)
        cols = dv.derivative_columns(a, u, F3)
        basis = dv.kernel_basis(a, u, F3)
        assert brute_solution_count(a, u, F3) == 1 << len(basis)
        for b in basis:
            assert apply(cols, b) == 0
            assert dv.verify_solution(a, dv.unpack_vec(b, 3), u, F3)


def assert_reduced_echelon(basis, a, u, ctx):
    pivots = [b & -b for b in basis]
    assert pivots == sorted(pivots)
    for b, low in zip(basis, pivots):
        assert sum(1 for c in basis if c & low) == 1
        assert dv.verify_solution(a, dv.unpack_vec(b, ctx.m), u, ctx)


def test_kernel_basis_is_in_reduced_echelon_form_m6():
    # the form is unique, so certificates do not depend on elimination order
    multi = 0
    for al in range(1, 16):
        for be in range(1, 16):
            a = (al, be, 1)
            basis = dv.kernel_basis(a, 2, F6)
            multi += len(basis) >= 2
            assert_reduced_echelon(basis, a, 2, F6)
    assert multi > 20
    for u in range(8):
        for code in range(1, 512):
            a = dv.decode_triple(code, 3)
            assert_reduced_echelon(dv.kernel_basis(a, u, F3), a, u, F3)
    rng = random.Random(13)
    for m in (9, 21):
        ctx = make_field(m)
        u = smallest_non_seventh_power(ctx)
        for _ in range(200):
            a = dv.decode_triple(rng.randrange(1, 1 << (3 * m)), m)
            assert_reduced_echelon(dv.kernel_basis(a, u, ctx), a, u, ctx)


def test_matrix_matches_direct_derivative_condition():
    # M*v = 0 iff C_u(v+a) + C_u(v) + C_u(a) + C_u(0) = 0, checked for a
    # sample of triples over all 512 vectors
    u = 2
    c0 = dv.eval_cu(0, 0, 0, u, F3)
    for code in (1, 9, 73, 100, 311, 511):
        a = dv.decode_triple(code, 3)
        cols = dv.derivative_columns(a, u, F3)
        ca = dv.eval_cu(*a, u, F3)
        for w in range(512):
            v = dv.unpack_vec(w, 3)
            vpa = tuple(p ^ r for p, r in zip(v, a))
            s = tuple(
                p ^ q ^ r ^ t
                for p, q, r, t in zip(dv.eval_cu(*vpa, u, F3), dv.eval_cu(*v, u, F3), ca, c0))
            assert (s == (0, 0, 0)) == (apply(cols, w) == 0)


def test_verify_solution_matches_the_difference_of_c_u():
    # oracle: C_u(v + a) + C_u(v) + C_u(a) = 0 from C_u alone (C_u(0) = 0),
    # against the factored equations; every (a, v) at m = 3, for a u with
    # witnesses and one without
    vecs = [dv.unpack_vec(w, 3) for w in range(512)]
    for u in (0x1, 0x2):
        image = [dv.pack_vec(dv.eval_cu(*v, u, F3), 3) for v in vecs]
        wrong = [(a, v) for a in range(512) for v in range(512)
                 if dv.verify_solution(vecs[a], vecs[v], u, F3)
                 != (image[v ^ a] ^ image[v] == image[a])]
        assert not wrong, (u, wrong[:5])
    # seeded samples where the field has log tables, with the cases their
    # zero tests and mod q - 1 reductions must get right
    for m, seed in ((9, 9), (12, 12)):
        ctx = make_field(m)
        cases = list(oracle_cases(ctx, random.Random(seed), 60))
        got = [dv.verify_solution(a, v, u, ctx) for a, v, u in cases]
        assert got == [difference_is_zero(a, v, u, ctx) for a, v, u in cases], m
        assert 0 < got.count(False) and 2 * 60 < got.count(True), (m, Counter(got))
        assert {u for _, _, u in cases} >= {0, 1} and any(0 in v for _, v, _ in cases)
    # a seeded sample where the field has no log tables: solutions from the
    # kernel basis, and random vectors
    ctx = make_field(21)
    u = smallest_non_seventh_power(ctx)
    rng = random.Random(21)
    for _ in range(40):
        a = tuple(rng.randrange(ctx.q) for _ in range(3))
        span = [0]
        for b in dv.kernel_basis(a, u, ctx):
            span += [w ^ b for w in span]
        vs = [dv.unpack_vec(w, 21) for w in span]
        vs += [tuple(rng.randrange(ctx.q) for _ in range(3)) for _ in range(4)]
        vs += [(a[0], a[1], a[2] ^ 1), (a[0] ^ 1, a[1], a[2])]
        for v in vs:
            assert dv.verify_solution(a, v, u, ctx) == difference_is_zero(a, v, u, ctx), (a, v)


def difference_is_zero(a, v, u, ctx):
    """The oracle: C_u(v + a) + C_u(v) + C_u(a) = 0, from C_u alone (C_u(0) = 0)."""
    vpa = tuple(p ^ r for p, r in zip(v, a))
    return all(p == q ^ r for p, q, r in zip(dv.eval_cu(*vpa, u, ctx), dv.eval_cu(*v, u, ctx),
                                             dv.eval_cu(*a, u, ctx)))


def oracle_cases(ctx, rng, count):
    """(a, v, u) for count seeded triples a, some coordinates zeroed, u = 0, 1 or random.

    v runs over sums of a's kernel basis (solutions), a itself, a with one
    bit flipped, and random vectors, each with and without zeroed coordinates.
    """
    m, q = ctx.m, ctx.q
    zeroed = lambda t: tuple(c if rng.randrange(3) else 0 for c in t)
    for i in range(count):
        u = (0, 1, rng.randrange(2, q))[i % 3]
        a = zeroed(tuple(rng.randrange(1, q) for _ in range(3))) if i % 2 else \
            tuple(rng.randrange(q) for _ in range(3))
        if a == (0, 0, 0):
            a = (0, 0, 1)
        basis = dv.kernel_basis(a, u, ctx)
        span = [0, *basis] + [reduce(xor, rng.sample(basis, rng.randint(1, len(basis))))
                              for _ in range(4)]
        vs = [dv.unpack_vec(w, m) for w in span]
        vs += [a] + [dv.unpack_vec(dv.pack_vec(a, m) ^ 1 << rng.randrange(3 * m), m)
                     for _ in range(3)]
        vs += [tuple(rng.randrange(q) for _ in range(3)) for _ in range(2)]
        vs += [zeroed(v) for v in vs[:4]]
        yield from ((a, v, u) for v in vs)


def linearized(a, v, u, ctx):
    """The three linearized equations at v, each expanded term by term.

    `verify_solution` evaluates the same equations factored.
    """
    al, be, ga = a
    x, y, z = v
    mul, sq = ctx.mul, ctx.square
    return (mul(al, sq(x)) ^ mul(sq(al), x) ^ mul(mul(u, ga), sq(y)) ^ mul(mul(u, sq(be)), z),
            mul(be, sq(y)) ^ mul(sq(be), y) ^ mul(mul(u, al), sq(z)) ^ mul(mul(u, sq(ga)), x),
            mul(ga, sq(z)) ^ mul(sq(ga), z) ^ mul(mul(u, be), sq(x)) ^ mul(mul(u, sq(al)), y))


def equation_columns(a, u, ctx):
    """Column j: its tag, with the equations at the unit vector e_j packed above it."""
    m, n = ctx.m, 3 * ctx.m
    return [dv.pack_vec(linearized(a, dv.unpack_vec(1 << j, m), u, ctx), m) << n | 1 << j
            for j in range(n)]


def test_columns_match_the_direct_shares():
    # oracle: the equations evaluated directly, with no shares and no lanes
    for u in range(1, 8):
        for code in range(512):
            a = dv.decode_triple(code, 3)
            assert dv.derivative_columns(a, u, F3) == equation_columns(a, u, F3)
    rng = random.Random(10)
    for ctx in (make_field(9), make_field(21)):  # F_{2^21} has no log tables
        u = smallest_non_seventh_power(ctx)
        for _ in range(500):
            a = dv.decode_triple(rng.randrange(1, 1 << (3 * ctx.m)), ctx.m)
            assert dv.derivative_columns(a, u, ctx) == equation_columns(a, u, ctx)


def test_unit_shares_need_no_field_arithmetic(monkeypatch):
    # the shares are reduced monomials t^n and u*t^n: no field is built, nothing multiplied
    f21 = make_field(21)
    u = smallest_non_seventh_power(f21)
    fail = lambda *args: pytest.fail("unit shares built a field or multiplied")
    for name in ("__init__", "mul", "square"):
        monkeypatch.setattr(FieldCtx, name, fail)
    monkeypatch.setattr(dv, "make_field", fail)
    shares = dv._unit_shares.__wrapped__(21, f21.modulus, u)
    monkeypatch.undo()
    for k, units in enumerate(shares):
        for i, cols in enumerate(units):
            a = tuple(1 << i if c == k else 0 for c in range(3))
            assert [c | 1 << j for j, c in enumerate(cols)] == equation_columns(a, u, f21)


def test_solution_count_guards_and_bounds():
    with pytest.raises(ValueError, match="nonzero"):
        dv.build_certificate((0, 0, 0), 2, F3)
    # the triple solves its own system, so there are always >= 2 solutions
    assert len(dv.kernel_basis((1, 0, 0), 2, F3)) >= 1


# -- spectra ----------------------------------------------------------------------------


def test_spectrum_m3_is_apn():
    rep = dv.differential_spectrum(2, F3)
    assert rep["histogram"] == {"1": 511}
    assert rep["verdicts"] == {"is_apn": True, "differential_uniformity": 2, "max_kernel_dim": 1}


def test_spectrum_m3_all_non_residues():
    for u in range(2, 8):
        assert dv.differential_spectrum(u, F3)["verdicts"]["is_apn"]


def test_spectrum_guards():
    with pytest.raises(ValueError, match="3 \\| m"):
        dv.differential_spectrum(2, make_field(4))
    with pytest.raises(ValueError, match="limited"):
        dv.differential_spectrum(2, make_field(15))


def test_spectrum_m3_matches_per_triple_kernels():
    # every nonzero triple, through kernel_basis: no share tables, no reduction
    for u in range(8):
        hist = {}
        for code in range(1, 512):
            dim = str(len(dv.kernel_basis(dv.decode_triple(code, 3), u, F3)))
            hist[dim] = hist.get(dim, 0) + 1
        assert dv.differential_spectrum(u, F3)["histogram"] == hist


def test_spectrum_eliminates_only_the_exceptional_orbits(monkeypatch):
    # at m = 6, u = 0x2, 188 of the 201 orbits are generic: their kernel
    # dimensions come from the surface's root counts
    calls = []
    kernel = dv._kernel

    def counted(tagged, n):
        calls.append(n)
        return kernel(tagged, n)

    monkeypatch.setattr(dv, "_kernel", counted)
    for name in ("_representatives", "_chart_kernels"):
        monkeypatch.setattr(dv, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    golden = json.loads((GOLDEN / "spectrum_m6_u0x02.json").read_text())
    assert dv.differential_spectrum(2, F6)["histogram"] == golden["histogram"]
    assert len(calls) == 13


def test_kernels_scale_with_the_triple():
    # the premise of the projective reduction: ker D_{lambda*a} = lambda*ker D_a
    rng = random.Random(5)
    for ctx in (F6, make_field(9)):
        u = smallest_non_seventh_power(ctx)
        for _ in range(50):
            a = tuple(rng.randrange(ctx.q) for _ in range(3))
            lam = rng.randrange(1, ctx.q)
            if a == (0, 0, 0):
                continue
            la = tuple(ctx.mul(lam, c) for c in a)
            basis = dv.kernel_basis(a, u, ctx)
            assert len(dv.kernel_basis(la, u, ctx)) == len(basis)
            span = {0}
            for b in basis:
                span |= {v ^ b for v in span}
            for w in span:
                lv = tuple(ctx.mul(lam, c) for c in dv.unpack_vec(w, ctx.m))
                assert dv.verify_solution(la, lv, u, ctx)


def test_spectrum_m6_matches_golden_and_thread_count():
    golden = json.loads((GOLDEN / "spectrum_m6_u0x02.json").read_text())
    rep = dv.differential_spectrum(2, F6)
    assert rep["histogram"] == golden["histogram"]
    assert sum(rep["histogram"].values()) == 64 ** 3 - 1
    assert rep["verdicts"]["differential_uniformity"] <= 8 and not rep["verdicts"]["is_apn"]
    rep1 = dv.differential_spectrum(2, F6)
    assert rep1["histogram"] == rep["histogram"]


def test_uniformity_second_non_residue_m6():
    # the next non-7th-power after the default
    u = 3
    assert F6.pow(u, 9) != 1
    verdicts = dv.differential_spectrum(u, F6)["verdicts"]
    assert not verdicts["is_apn"]
    assert verdicts["differential_uniformity"] in (4, 8)


def test_rotation_symmetry_of_kernel_dims():
    # the exhaustive witness search relies on this for every u
    for u in range(1, 8):
        for code in range(1, 512):
            a = dv.decode_triple(code, 3)
            k1 = len(dv.kernel_basis(a, u, F3))
            k2 = len(dv.kernel_basis((a[1], a[2], a[0]), u, F3))
            assert k1 == k2
    rng = random.Random(13)
    for _ in range(100):
        a = tuple(rng.randrange(64) for _ in range(3))
        if a == (0, 0, 0):
            continue
        k1 = len(dv.kernel_basis(a, 2, F6))
        k2 = len(dv.kernel_basis((a[1], a[2], a[0]), 2, F6))
        assert k1 == k2


def test_rotated_representatives_are_the_leading_one_triples_in_code_order():
    # the order contract the exhaustive witness search relies on
    # at m=9, the first 3*512 + 3 points step beta through every carry length
    for ctx, count in ((F3, None), (F6, None), (make_field(9), 3 * 512 + 3)):
        q = ctx.q
        points = [(a, list(cols)) for a, cols in islice(dv._representatives(ctx, 2), count)]
        assert len(points) == (count or q * q + q + 1)
        codes = []
        for (al, be, ga), cols in points:
            rotated = (ga, al, be)
            assert next(c for c in rotated if c) == 1
            codes.append(dv.encode_triple(rotated, ctx.m))
            assert cols == dv.derivative_columns((al, be, ga), 2, ctx)
        assert all(a < b for a, b in zip(codes, codes[1:]))


def test_spectrum_m9_matches_golden():
    golden = json.loads((GOLDEN / "spectrum_m9_u0x07.json").read_text())
    f9 = make_field(9)
    assert f9.modulus == int(golden["modulus"], 16)
    assert dv.differential_spectrum(7, f9)["histogram"] == golden["histogram"]


def _walked_spectrum(u, ctx):
    hist = Counter()
    for _, cols in dv._representatives(ctx, u):
        hist[str(len(dv._kernel(cols, 3 * ctx.m)))] += ctx.q - 1
    return dict(hist)


def _every_point_is_permutation(u, ctx):
    return not any(dv._in_image(cols, dv.pack_vec(dv.eval_cu(*a, u, ctx), ctx.m), 3 * ctx.m)
                   for a, cols in dv._representatives(ctx, u))


def _burnside(ctx):
    # orbits of the order-21 group on the q^2 + q + 1 points: the identity
    # fixes all, the 6 elements of order 7 the three coordinate points, the
    # 14 of order 3 one point each for odd m and three for even m
    q, f = ctx.q, 3 if ctx.m % 2 == 0 else 1
    return (q * q + q + 19 + 14 * f) // 21


@pytest.mark.parametrize("ctx,us", [(F3, range(8)), (F6, (0x1, 0x2, 0x3, 0x6, 0x7, 0xF))],
                         ids=["m3", "m6"])
def test_orbit_walk_matches_the_every_point_walk(ctx, us):
    # 0x1 and 0x6 at m=6 are 7th powers, the others are not
    assert sum(len(betas) for _, betas, _ in dv._orbit_rows(ctx)) == _burnside(ctx)
    for u in us:
        every_point = _walked_spectrum(u, ctx)
        assert dv.differential_spectrum(u, ctx)["histogram"] == every_point
        assert dv.is_permutation(u, ctx) == _every_point_is_permutation(u, ctx)


def _normaliser(ctx):
    def normalise(a):
        lead = ctx.pow(next(c for c in a if c), ctx.q - 2)
        return tuple(ctx.mul(lead, c) for c in a)
    return normalise


@pytest.mark.parametrize("ctx", [F3, F6], ids=["m3", "m6"])
def test_rotation_rows_are_the_order21_orbits(ctx):
    # an independent action: (alpha, beta, gamma) -> (alpha, s*beta, s^-2*gamma)
    # for s^7 = 1 and the rotation (alpha, beta, gamma) -> (gamma, alpha, beta),
    # each image scaled so that its first nonzero coordinate is 1
    q, mul = ctx.q, ctx.mul
    roots = [s for s in range(1, q) if ctx.pow(s, 7) == 1]
    normalise = _normaliser(ctx)

    def orbit(a):
        out = set()
        for s in roots:
            al, be, ga = a[0], mul(s, a[1]), mul(ctx.pow(s, ctx.q - 3), a[2])
            out |= {normalise(p) for p in ((al, be, ga), (ga, al, be), (be, ga, al))}
        return out

    seen, weights = set(), Counter()
    for (al, _, ga), betas, weight in dv._orbit_rows(ctx):
        for be in betas:
            points = orbit((al, be, ga))
            assert len(points) == weight
            assert not points & seen
            seen |= points
            weights[weight] += 1
    assert len(seen) == q * q + q + 1
    assert sum(weights.values()) == _burnside(ctx)
    # the three coordinate points, and one orbit of 7 per point of P^2 that
    # the rotation fixes: the cube roots of unity on (1, w, w^2)
    assert weights[3] == 1 and weights[7] == (3 if ctx.m % 2 == 0 else 1)


def test_rotation_rows_count_the_orbits_at_m9():
    f9 = make_field(9)
    rows = list(dv._orbit_rows(f9))
    assert sum(len(betas) for _, betas, _ in rows) == _burnside(f9) == 12509
    assert sum(len(betas) * w for _, betas, w in rows) == f9.q ** 2 + f9.q + 1


# -- the chart engine ---------------------------------------------------------------------


def _read_out(basis, pairs):
    """The chart engine's bases at the pairs where it reads one out."""
    return {p: b for p in pairs if (b := basis(*p))}


def _per_pair_kernels(u, ctx, pairs):
    """`_kernel` at (alpha, beta, 1) for each pair where it has >= 2 vectors."""
    bases = {}
    for alpha, beta in pairs:
        basis = dv._kernel(dv.derivative_columns((alpha, beta, 1), u, ctx), 3 * ctx.m)
        if len(basis) >= 2:
            bases[alpha, beta] = basis
    return bases


@pytest.mark.parametrize("ctx,us", [(F3, range(1, 8)), (F6, (0x2, 0x6))], ids=["m3", "m6"])
def test_chart_kernels_match_the_per_pair_elimination(ctx, us):
    # the whole chart is one block at m <= 6; 0x6 is a 7th power at m = 6
    assert ctx.q * ctx.q <= dv.CHART_LANES
    q = ctx.q
    for u in us:
        pairs = [(a, b) for a in range(q) for b in range(q)]
        assert _read_out(dv._chart_kernels(ctx, u, 0, q), pairs) == _per_pair_kernels(u, ctx, pairs)


def test_chart_kernels_match_the_per_pair_elimination_m9():
    # one block as cross_validate cuts it, every lane; then 2,000 seeded pairs
    # from blocks of other shapes, which must not change a pair's basis
    f9, u = make_field(9), 0x7
    rng = random.Random(31)
    rows = dv.CHART_LANES // f9.q
    a0 = rows * rng.randrange(1, f9.q // rows)
    pairs = [(a, b) for a in range(a0, a0 + rows) for b in range(f9.q)]
    assert _read_out(dv._chart_kernels(f9, u, a0, rows), pairs) == _per_pair_kernels(u, f9, pairs)
    for _ in range(4):
        a0, rows = rng.randrange(f9.q - 8), rng.randrange(1, 9)
        pairs = [(rng.randrange(a0, a0 + rows), rng.randrange(f9.q)) for _ in range(500)]
        assert _read_out(dv._chart_kernels(f9, u, a0, rows), pairs) == \
            _per_pair_kernels(u, f9, pairs)


# -- permutation --------------------------------------------------------------------------


def test_image_test_matches_brute_force_collisions_m3():
    # C_u(x + a) = C_u(x) for some x iff C_u(a) is an image of the map at a
    for u in range(8):
        img = [dv.eval_cu(*dv.unpack_vec(w, 3), u, F3) for w in range(512)]
        for code in range(1, 512):
            a = dv.decode_triple(code, 3)
            d = dv.pack_vec(a, 3)
            collides = any(img[w] == img[w ^ d] for w in range(512))
            cu_a = dv.pack_vec(dv.eval_cu(*a, u, F3), 3)
            assert dv._in_image(dv.derivative_columns(a, u, F3), cu_a, 9) == collides


def test_permutation_m3():
    for u in range(2, 8):
        assert dv.is_permutation(u, F3)
    # recorded actuals: cubing is a bijection on F_8, so u=0 passes; u=1 fails
    assert dv.is_permutation(0, F3)
    assert not dv.is_permutation(1, F3)


# -- witnesses ------------------------------------------------------------------------------


def test_witness_exhaustive_m3_not_found():
    res = dv.witness_search(2, F3)
    # q^3 - 1 triples
    assert res == {"verdicts": {"found": False}, "certificate": None, "scanned": 511}


def _certificate(res):
    return dv.WitnessCertificate.from_json(res["certificate"])


def test_witness_exhaustive_m6():
    res = dv.witness_search(2, F6)
    assert res["verdicts"]["found"]
    cert = _certificate(res)
    assert cert.kernel_dim >= 2
    assert len(cert.solutions) == 1 << cert.kernel_dim >= 4
    # first witness in encoding order, frozen from the first verified run
    assert cert.triple == (1, 1, 2)
    # codes 1..code(triple) were decided
    assert res["scanned"] == dv.encode_triple(cert.triple, 6)
    assert dv.verify_certificate(cert) == []


def first_witness_by_brute_force(u, ctx, below):
    """The smallest code under `below` whose triple has dim >= 2, or None."""
    return next((code for code in range(1, below)
                 if len(dv.kernel_basis(dv.decode_triple(code, ctx.m), u, ctx)) >= 2), None)


@pytest.mark.parametrize("u, m", [*((u, 3) for u in range(1, 8)),
                                  *((u, 6) for u in (0x2, 0x3, 0x7, 0xF)), (0x2, 9)])
def test_witness_exhaustive_matches_brute_force_encoding_order(u, m):
    # kernel_basis on unrotated triples, every code up to the returned one
    ctx = make_field(m)
    res = dv.witness_search(u, ctx)
    if not res["verdicts"]["found"]:
        assert first_witness_by_brute_force(u, ctx, ctx.q ** 3) is None
        assert res["scanned"] == ctx.q ** 3 - 1
        return
    code = dv.encode_triple(_certificate(res).triple, m)
    assert first_witness_by_brute_force(u, ctx, code + 1) == code
    assert res["scanned"] == code


def test_witness_certificate_roundtrip_and_tamper():
    doc = dv.witness_search(2, F6)["certificate"]
    again = dv.WitnessCertificate.from_json(json.loads(json.dumps(doc)))
    assert dv.verify_certificate(again) == []
    bad = json.loads(json.dumps(doc))
    bad["solutions"][1] = ["0x1", "0x0", "0x0"]
    failures = dv.verify_certificate(dv.WitnessCertificate.from_json(bad))
    assert failures
    bad2 = json.loads(json.dumps(doc))
    bad2["kernel_dim"] = 1
    assert dv.verify_certificate(dv.WitnessCertificate.from_json(bad2))
    bad3 = json.loads(json.dumps(doc))
    bad3["kernel_basis"][1] = bad3["kernel_basis"][0]
    assert "basis vectors are linearly dependent" in \
        dv.verify_certificate(dv.WitnessCertificate.from_json(bad3))


def test_certificate_build_checks_the_basis_alone(monkeypatch):
    # the span of a k = 9 kernel costs 8 calls of verify_solution, not 2^9 - 2:
    # the basis vectors other than the triple, which solves its own system
    calls = []
    verify = dv.verify_solution
    monkeypatch.setattr(dv, "verify_solution", lambda *args: calls.append(args) or verify(*args))
    cert = _certificate(dv.witness_search(2, make_field(9)))
    assert cert.kernel_dim == 9 and cert.triple in cert.kernel_basis and len(calls) == 8
    assert {args[1] for args in calls} == set(cert.kernel_basis) - {cert.triple}


def test_every_triple_solves_its_own_system():
    # each equation reads 0 = 0 in characteristic 2, so _kernel_solutions need not check a
    assert all(dv.verify_solution(a, a, u, F3)
               for u in range(8) for a in (dv.decode_triple(c, 3) for c in range(512)))
    for m in (12, 21):  # with log tables and without
        ctx, rng = make_field(m), random.Random(m)
        for i in range(200):
            a = tuple(rng.randrange(ctx.q) if rng.randrange(3) else 0 for _ in range(3))
            assert dv.verify_solution(a, a, (0, 1, rng.randrange(ctx.q))[i % 3], ctx), a


def test_kernel_solutions_checks_every_basis_vector_but_the_triple(monkeypatch):
    a, u = (1, 1, 2), 2  # k = 2, basis {a, b}
    pa = dv.pack_vec(a, 6)
    basis = dv.kernel_basis(a, u, F6)
    (b,) = set(basis) - {pa}
    # b corrupted, still independent of a: the solve flag fails
    bad = b ^ 1
    assert bad not in (0, pa) and not dv.verify_solution(a, dv.unpack_vec(bad, 6), u, F6)
    flags = dict(zip(dv._REVERIFIED, (False, True, True, True)))
    with pytest.raises(dv.CertificateError, match=re.escape(str(flags))):
        dv._kernel_solutions(a, [pa, bad], u, F6)
    # a only in the span of the basis {b, a + b}: both vectors are checked
    calls = []
    verify = dv.verify_solution
    monkeypatch.setattr(dv, "verify_solution", lambda *args: calls.append(args) or verify(*args))
    assert dv._kernel_solutions(a, [b, pa ^ b], u, F6) == {0, pa, b, pa ^ b}
    assert [args[1] for args in calls] == [dv.unpack_vec(b, 6), dv.unpack_vec(pa ^ b, 6)]
    with pytest.raises(dv.CertificateError, match=re.escape(str(flags))):
        dv._kernel_solutions(a, [bad, pa ^ bad], u, F6)


def test_span_rejects_a_dependent_basis():
    assert dv._span([0b001, 0b110]) == {0b000, 0b001, 0b110, 0b111}
    with pytest.raises(dv.CertificateError, match="kernel basis is not linearly independent"):
        dv._span([0b011, 0b101, 0b110])


def test_verify_certificate_rejects_solutions_outside_the_span():
    # at (1, 0x1A, 1), k = 3: the basis {a, e} and the solutions {0, a, f, a + f}
    # are each valid, with f a kernel vector outside span{a, e}
    a = (1, 0x1A, 1)
    pa = dv.pack_vec(a, 6)
    kernel = sorted(dv._span(dv.kernel_basis(a, 2, F6)))
    assert len(kernel) == 8
    e = next(w for w in kernel if w not in (0, pa))
    f = next(w for w in kernel if w not in (0, pa, e, pa ^ e))
    cert = dv.WitnessCertificate(
        m=6, modulus=F6.modulus, u=2, triple=a, kernel_dim=2,
        kernel_basis=[a, dv.unpack_vec(e, 6)],
        solutions=[dv.unpack_vec(w, 6) for w in (0, pa, f, pa ^ f)])
    assert dv.verify_certificate(cert) == ["solutions are not the span of the basis"]


def test_certificate_verification_runs_no_elimination(monkeypatch):
    golden = json.loads((GOLDEN / "certificates.json").read_text())
    monkeypatch.setattr(dv, "_kernel", lambda *args: pytest.fail("verification eliminated"))
    for doc in golden.values():
        assert dv.verify_certificate(dv.WitnessCertificate.from_json(doc)) == []
    bad = json.loads(json.dumps(golden["witness --m 6 --u 0x2"]))
    bad["kernel_basis"][1] = bad["kernel_basis"][0]
    assert "basis vectors are linearly dependent" in \
        dv.verify_certificate(dv.WitnessCertificate.from_json(bad))


def test_verify_certificate_rejects_oversized_claims_quickly():
    f21 = make_field(21)
    basis = [(1 << i, 0, 0) for i in range(21)] + [(0, 1 << i, 0) for i in range(19)]
    planted = dv.WitnessCertificate(
        m=21, modulus=f21.modulus, u=smallest_non_seventh_power(f21), triple=(1, 0, 0),
        kernel_dim=40, kernel_basis=basis, solutions=[(0, 0, 0), (1, 0, 0)])
    huge = dv.WitnessCertificate(
        m=21, modulus=f21.modulus, u=2, triple=(1, 0, 0), kernel_dim=10 ** 12,
        kernel_basis=basis, solutions=[(0, 0, 0), (1, 0, 0)])
    # a huge m with a trinomial modulus would take hours to build a field for
    far = [dv.WitnessCertificate(
        m=m, modulus=(1 << m) | (1 << 7) | 1, u=2, triple=(1, 0, 0), kernel_dim=2,
        kernel_basis=basis[:2], solutions=[(0, 0, 0), (1, 0, 0)]) for m in (100003, 100002)]
    for cert in (planted, huge, *far):
        t0 = time.perf_counter()
        assert dv.verify_certificate(cert)
        assert time.perf_counter() - t0 < 1.0
    # malformed entries are reported, not raised
    short = dv.WitnessCertificate(
        m=6, modulus=F6.modulus, u=2, triple=(1, 1), kernel_dim=2,
        kernel_basis=[(1, 1, 2), (64, 0, 0)], solutions=[(0, 0, 0)] * 4)
    assert dv.verify_certificate(short) == ["the triple or a basis vector is out of range"]
    zero = dv.WitnessCertificate(
        m=3, modulus=F3.modulus, u=2, triple=(0, 0, 0), kernel_dim=9,
        kernel_basis=[dv.unpack_vec(1 << j, 3) for j in range(9)],
        solutions=[dv.unpack_vec(w, 3) for w in range(512)])
    assert dv.verify_certificate(zero) == ["the difference triple is zero"]


_JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=3), max_leaves=4)
_HEX = st.integers(-3, 300).map(hex)
_VEC = st.lists(_HEX, max_size=4) | _JUNK
_FIELDS = {
    "m": st.sampled_from([3, 6, 0, -3, 64, 66, 100002]) | _JUNK,
    "modulus": st.sampled_from(["0xB", "0xD", "0x43", "0x9", "0x0", "-0xB"]) | _JUNK,
    "u": _HEX | _JUNK,
    "triple": _VEC,
    "kernel_dim": st.integers(-2, 20) | _JUNK,
    "kernel_basis": st.lists(_VEC, max_size=4) | _JUNK,
    "solutions": st.lists(_VEC, max_size=9) | _JUNK,
    "reverified": _JUNK,
}
_M6 = json.loads((GOLDEN / "certificates.json").read_text())["witness --m 6 --u 0x2"]
_CERT_DOCS = (
    st.fixed_dictionaries({"schema": st.just(dv.WITNESS_SCHEMA)}, optional=_FIELDS)
    | st.one_of([v.map(lambda x, k=k: {**_M6, k: x}) for k, v in _FIELDS.items()])
    | _JUNK)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CERT_DOCS)
def test_certificate_loading_fuzz(doc):
    # parsing may only reject; a parsed certificate is checked, never raised on
    try:
        cert = dv.WitnessCertificate.from_json(doc)
    except (KeyError, ValueError, TypeError):
        return
    assert isinstance(dv.verify_certificate(cert), list)


def test_frozen_certificates():
    golden = json.loads((GOLDEN / "certificates.json").read_text())
    f9 = make_field(9)
    assert dv.witness_search(2, F6)["certificate"] == golden["witness --m 6 --u 0x2"]
    sampled = dv.witness_search(smallest_non_seventh_power(f9), f9, strategy="sampled", seed=1)
    assert sampled["certificate"] == golden["witness --m 9 --sampled --seed 1"]


def test_witness_sampled_m9():
    f9 = make_field(9)
    u = smallest_non_seventh_power(f9)
    res = dv.witness_search(u, f9, strategy="sampled", seed=1, max_draws=10 ** 6)
    assert res["verdicts"]["found"]
    assert res["draws_used"] == 3  # recorded from the first verified run
    cert = _certificate(res)
    assert cert.kernel_dim >= 2
    assert dv.verify_certificate(cert) == []
    again = dv.witness_search(u, f9, strategy="sampled", seed=1, max_draws=10 ** 6)
    assert again == res


def test_certificate_reverification_reuses_the_field(monkeypatch):
    f15 = make_field(15)
    u = smallest_non_seventh_power(f15)
    monkeypatch.setattr(FieldCtx, "_build_tables",
                        lambda self: pytest.fail("field tables were built again"))
    res = dv.witness_search(u, f15, strategy="sampled", seed=1)
    assert dv.verify_certificate(_certificate(res)) == []


def test_witness_strategy_validation():
    with pytest.raises(ValueError, match="strategy"):
        dv.witness_search(2, F6, strategy="guess")
    with pytest.raises(ValueError, match="3 \\| m"):
        dv.witness_search(2, make_field(4))


def test_draw_code_determinism():
    a = [dv.draw_code(1, i, 27) for i in range(5)]
    b = [dv.draw_code(1, i, 27) for i in range(5)]
    assert a == b
    assert all(0 <= v < 1 << 27 for v in a)
    assert dv.draw_code(1, 0, 27) != dv.draw_code(2, 0, 27)
    # multi-word path for wide codes
    wide = dv.draw_code(5, 0, 90)
    assert 0 <= wide < 1 << 90
    assert wide == dv.draw_code(5, 0, 90)


def test_triple_encoding_roundtrip():
    for code in (0, 1, 511, 12345):
        assert dv.encode_triple(dv.decode_triple(code, 6), 6) == code
    assert dv.unpack_vec(dv.pack_vec((3, 5, 7), 6), 6) == (3, 5, 7)
