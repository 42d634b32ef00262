"""Field arithmetic: construction, axioms, and the 7th-power residue test."""

import random

import pytest

from triapn.gf2m import (FieldCtx, _gf2_mulmod, default_modulus, elem_to_hex, is_irreducible,
                         is_seventh_power, make_field, mu7_representatives,
                         smallest_non_seventh_power)


def test_default_modulus_m3_by_enumeration():
    # oracle: walk degree-3 encodings in order and factor by exhaustive root
    # check (a cubic is irreducible over GF(2) iff it has no root)
    def has_root(f):
        return any(_eval_gf2_poly(f, x) == 0 for x in (0, 1))

    first = next(enc for enc in range(8, 16) if (enc & 1) and not has_root(enc))
    assert first == 0b1011
    assert make_field(3).modulus == 0b1011


def _eval_gf2_poly(f, x):
    # evaluate a GF(2)[t] bit pattern at x in GF(2)
    if x == 0:
        return f & 1
    return bin(f).count("1") & 1


def test_alternate_degree3_modulus_accepted():
    ctx = make_field(3, 0b1101)
    assert ctx.modulus == 0b1101


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        make_field(4, 0b10101)  # (t^2+t+1)^2


def test_wrong_degree_and_constant_term_rejected():
    with pytest.raises(ValueError, match="degree"):
        make_field(4, 0b1011)
    with pytest.raises(ValueError, match="constant term"):
        make_field(3, 0b1010)
    with pytest.raises(ValueError, match="negative"):
        make_field(3, -0b1011)  # the irreducibility test would never return
    with pytest.raises(ValueError):
        make_field(1)


def test_known_irreducibles():
    assert is_irreducible(0b1011) and is_irreducible(0b1101)
    assert not is_irreducible(0b1001)  # t^3+1 = (t+1)(t^2+t+1)
    assert default_modulus(6) == 0x43
    assert default_modulus(9) == 0x203


def test_basic_arithmetic_examples():
    f3 = make_field(3)
    assert f3.add(0b010, 0b010) == 0
    assert f3.mul(0b010, 0b100) == 0b011  # t * t^2 = t+1 mod t^3+t+1
    # oracle: exhaustive search for the inverse of t
    inverses = [b for b in range(8) if f3.mul(2, b) == 1]
    assert inverses == [0b101]
    assert f3.inv(2) == 0b101


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        make_field(3).inv(0)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for m, modulus in ((3, None), (6, None), (3, 0b1101), (17, None)):
        ctx = make_field(m, modulus)
        for _ in range(80):
            a = rng.randrange(ctx.q)
            b = rng.randrange(ctx.q)
            c = rng.randrange(ctx.q)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.square(a) == ctx.mul(a, a)
            assert ctx.square(ctx.add(a, b)) == ctx.add(ctx.square(a), ctx.square(b))
            assert ctx.pow(a, ctx.q) == a
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
                assert ctx.pow(a, ctx.q - 1) == 1


def test_tables_match_shift_and_reduce():
    ctx = make_field(6)
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.randrange(64), rng.randrange(64)
        assert ctx.mul(a, b) == _gf2_mulmod(a, b, ctx.modulus)


def test_table_build_matches_the_mulmod_recurrence():
    # exp[i] = exp[i-1]*g by shift-and-reduce, for every default modulus that
    # gets tables and for two others; FieldCtx directly, to leave make_field's cache
    moduli = [(m, default_modulus(m)) for m in range(2, 17)] + [(8, 0x11B), (16, 0x1100B)]
    for m, modulus in moduli:
        ctx = FieldCtx(m, modulus)
        exp = [1]
        for _ in range(ctx.q - 2):
            exp.append(_gf2_mulmod(exp[-1], ctx.generator, modulus))
        assert ctx._exp2 == exp + exp, ctx
        assert [ctx._log[v] for v in exp] == list(range(ctx.q - 1)), ctx


def _pow_by_square_and_multiply(a, e, modulus):
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, modulus)
        a = _gf2_mulmod(a, a, modulus)
        e >>= 1
    return r


def test_table_pow_and_inv_match_square_and_multiply():
    for m in range(2, 9):
        ctx = make_field(m)
        q = ctx.q
        assert ctx._log is not None  # the table path is the one under test
        for a in range(q):
            for e in (0, 1, 2, 3, q - 2, q - 1, q, 3 * q + 1):
                assert ctx.pow(a, e) == _pow_by_square_and_multiply(a, e, ctx.modulus)
            if a:
                assert ctx.inv(a) == _pow_by_square_and_multiply(a, q - 2, ctx.modulus)


def test_fields_are_built_once():
    assert make_field(9) is make_field(9, default_modulus(9))
    for _ in range(2):  # a failed construction is not remembered
        with pytest.raises(ValueError, match="reducible"):
            make_field(4, 0b10101)


def test_enumerate_order_and_xor_sum():
    assert list(make_field(2, 0b111).elements())[:2] == [0, 1]
    assert len(list(make_field(2, 0b111).elements())) == 4
    f3 = make_field(3)
    assert len(list(f3.elements())) == 8
    acc = 0
    for v in f3.elements():
        acc ^= v
    # each bit position is set in exactly half of the elements
    assert acc == 0


def test_seventh_power_examples():
    f3 = make_field(3)
    assert is_seventh_power(1, f3)
    assert not is_seventh_power(2, f3)
    with pytest.raises(ValueError):
        is_seventh_power(0, f3)
    f6 = make_field(6)
    g = f6.generator
    assert not is_seventh_power(g, f6)  # a generator is never a residue


def test_seventh_power_vacuous_when_3_does_not_divide_m():
    f4 = make_field(4)
    with pytest.raises(ValueError, match="3 must divide m"):
        is_seventh_power(3, f4)


def test_seventh_power_counts():
    for m in (3, 6):
        ctx = make_field(m)
        count = sum(1 for v in range(1, ctx.q) if is_seventh_power(v, ctx))
        assert count == (ctx.q - 1) // 7


def test_residue_count_is_modulus_invariant():
    a = make_field(3, 0b1011)
    b = make_field(3, 0b1101)
    count_a = sum(1 for v in range(1, 8) if not is_seventh_power(v, a))
    count_b = sum(1 for v in range(1, 8) if not is_seventh_power(v, b))
    assert count_a == count_b == 6


def test_mu7_representatives_meet_every_coset_once():
    for m in (3, 6, 9):
        ctx = make_field(m)
        mu7 = [v for v in range(1, ctx.q) if ctx.pow(v, 7) == 1]
        reps = mu7_representatives(ctx)
        assert len(mu7) * len(reps) == ctx.q - 1
        assert sorted(ctx.mul(r, s) for r in reps for s in mu7) == list(range(1, ctx.q))
    with pytest.raises(ValueError):
        mu7_representatives(make_field(4))


def test_smallest_non_seventh_power():
    assert smallest_non_seventh_power(make_field(3)) == 2
    assert smallest_non_seventh_power(make_field(6)) == 2
    f9 = make_field(9)
    # oracle: the image of the 7th-power map
    sevenths = {f9.pow(v, 7) for v in range(1, f9.q)}
    assert smallest_non_seventh_power(f9) == min(
        v for v in range(2, f9.q) if v not in sevenths) == 7
    with pytest.raises(ValueError):
        smallest_non_seventh_power(make_field(4))


def test_hex_roundtrip():
    assert elem_to_hex(0x2B) == "0x2B"


def test_ctx_equality_and_repr():
    assert make_field(3) == make_field(3, 0b1011)
    assert make_field(3) != make_field(3, 0b1101)
    assert "0xb" in repr(make_field(3))
