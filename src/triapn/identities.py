"""Exact machine verification of the symbolic elimination chain.

Each check recomputes one derived object of the chain (a resultant, a
cleared substitution, a factorization) with the polynomial engine and
compares it, as an exact identity in GF(2)[x,y,z,a,b,g,u] or
GF(8)[a,b,g,xi], against the literal transcription in `formulas`.  A pass
means the discrepancy polynomial is identically zero; tolerances do not
exist at this layer.  Several reference objects are only reproducible up
to a monomial factor (ad-hoc scalings applied between elimination steps);
those factors are fixed constants in `formulas` and are recorded in the
check results.  `CHECKS` lists the checks by name in dependency order, and
each derived object of the chain is built in one function.  The checks read
no input from outside the program, so an error raised while building a
chain object is a wrong transcription: `run_all` reports it as a failure of
the check that raised it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from . import formulas
from .gf2m import make_field, smallest_non_seventh_power
from .mpoly import (GF2, GF8, VARS, ExactDivisionError, MPoly, divide_exact,
                    parse, resultant)

REPORT_SCHEMA = "identities/1"


class IdentityError(RuntimeError):
    """A chain object the geometry layer consumes failed its identity check."""


def _p(text: str) -> MPoly:
    return parse(text, GF2)


def _product(factors) -> MPoly:
    acc = MPoly.const(1, VARS, GF2)
    for text, power in factors:
        acc = acc * _p(text) ** power
    return acc


def _expand(*terms) -> MPoly:
    """Sum of transcribed factor products, each times its monomial."""
    acc = MPoly.zero(VARS, GF2)
    for factors, monomial in terms:
        acc = acc + _product(factors) * _p(monomial)
    return acc


def _poly_hash(p: MPoly) -> str:
    return hashlib.sha256(str(p).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check."""

    name: str
    passed: bool
    lhs_hash: str | None  # None when a fault stopped the check before its sides existed
    rhs_hash: str | None
    lhs_terms: int
    rhs_terms: int
    scale: str | None = None
    discrepancy: str | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "lhs_hash": self.lhs_hash,
            "rhs_hash": self.rhs_hash,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "scale": self.scale,
            "discrepancy": self.discrepancy,
            "notes": list(self.notes),
        }


@dataclass
class IdentityReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "all_pass": self.all_pass,
            "checks": [c.to_json() for c in self.checks],
        }


def _compare(name, lhs, rhs, scale=None, notes=(), extra_ok=True) -> CheckResult:
    passed = (lhs == rhs) and extra_ok
    return CheckResult(
        name=name,
        passed=passed,
        lhs_hash=_poly_hash(lhs),
        rhs_hash=_poly_hash(rhs),
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
        scale=scale,
        discrepancy=None if lhs == rhs else str(lhs + rhs),
        notes=tuple(notes),
    )


def _divides(d: MPoly, p: MPoly) -> bool:
    try:
        divide_exact(p, d)
    except ExactDivisionError:
        return False
    return True


# -- the chain, step by step --------------------------------------------------


def build_system() -> tuple[MPoly, MPoly, MPoly]:
    """The three transcribed equations of the linearized difference system."""
    return (_p(formulas.SYSTEM_EQ1), _p(formulas.SYSTEM_EQ2), _p(formulas.SYSTEM_EQ3))


def verify_trivial_solutions() -> CheckResult:
    """(0,0,0) and (a,b,g) solve the system identically in the parameters."""
    e1, e2, e3 = build_system()
    notes = [f"term counts: {len(e1)}, {len(e2)}, {len(e3)}"]
    ok = len(e1) == 4 and len(e2) == 4 and len(e3) == 4
    subs = []
    for f in (e1, e2, e3):
        s = f
        for var, repl in (("x", "a"), ("y", "b"), ("z", "g")):
            s = s.substitute_cleared(var, _p(repl), _p("1"))
        subs.append(s)
    ok = ok and all(s.is_zero for s in subs[1:])
    notes.append("substituting the difference triple for the point gives 0 in all three equations"
                 if all(s.is_zero for s in subs) else "nonzero residue at the difference triple")
    zero = MPoly.zero(VARS, GF2)
    return _compare("trivial_solutions", subs[0], zero, notes=notes, extra_ok=ok)


def verify_z_elimination(k: int) -> CheckResult:
    """Eliminating z between equations 1 and k+1 reproduces quartic k (k = 1, 2)."""
    system = build_system()
    scale = getattr(formulas, f"Z_ELIMINANT_{k}_SCALE")
    quartic = _p(scale) * _p(getattr(formulas, f"Z_ELIMINANT_{k}"))
    return _compare(f"z_elimination_{k}", resultant(system[0], system[k], "z"), quartic,
                    scale=scale)


def verify_quadratic_combination() -> CheckResult:
    """g*Z1 + a*Z2 collapses to the quadratic-in-x equation, killing x^4."""
    comb = _p("g") * _p(formulas.Z_ELIMINANT_1) + _p("a") * _p(formulas.Z_ELIMINANT_2)
    rhs = _p(formulas.COMBINATION_SCALE) * _p(formulas.QUADRATIC_EQ)
    x4_gone = comb.coeff_of("x", 4).is_zero
    notes = ["x^4 coefficient of the combination vanishes" if x4_gone
             else "x^4 coefficient survives"]
    return _compare("quadratic_combination", comb, rhs, scale=formulas.COMBINATION_SCALE,
                    notes=notes, extra_ok=x4_gone)


def _x4_cleared() -> MPoly:
    """The transcribed den^3 * x^4 = A*x + B*y^4 + C*y^2 + D*y, den the x^2 denominator."""
    return _expand((formulas.X4_A_FACTORS, "x"), (formulas.X4_B_FACTORS, "y^4"),
                   (formulas.X4_C_FACTORS, "y^2"), (formulas.X4_D_FACTORS, "y"))


def verify_x4_coefficients() -> CheckResult:
    """The cleared x^4 expansion matches the transcribed A, B, C, D."""
    den = _p(formulas.X2_DENOMINATOR)
    num = _p(formulas.X2_NUMERATOR)
    cx = num.coeff_of("x", 1)
    cy2 = num.coeff_of("y", 2).coeff_of("x", 0).coeff_of("y", 0)
    cy1 = num.coeff_of("y", 1).coeff_of("x", 0)
    # square the numerator and substitute the cleared x^2 back in
    lhs = cx.square() * num + den * cy2.square() * _p("y^4") + den * cy1.square() * _p("y^2")
    notes = []
    ok = True
    for label, factors, square in (("B", formulas.X4_B_FACTORS, "u*a*g^2 + b^3"),
                                   ("D", formulas.X4_D_FACTORS, "a^3 + u*b^2*g")):
        divisible = _divides(_p(square) ** 2, _product(factors))
        notes.append(f"{label} divisible by its transcribed square factor" if divisible
                     else f"{label} NOT divisible by its transcribed square factor")
        ok = ok and divisible
    return _compare("x4_coefficients", lhs, _x4_cleared(), notes=notes, extra_ok=ok)


@lru_cache(maxsize=1)
def linearized_rhs_polynomial() -> MPoly:
    """The transcribed right-hand side of the linearized equation."""
    return _expand((formulas.LINEARIZED_RHS_Y4_FACTORS, "y^4"),
                   (formulas.LINEARIZED_RHS_Y2_FACTORS, "y^2"),
                   (formulas.LINEARIZED_RHS_Y1_FACTORS, "y"))


@lru_cache(maxsize=1)
def linearized_equation() -> MPoly:
    """The transcribed linear-in-x equation: u^3*b^6*g^2*(obstruction)*x + rhs."""
    return (_product(formulas.LINEARIZED_X_COEFF_FACTORS)
            * _p(formulas.OBSTRUCTION_FORM) * _p("x")
            + linearized_rhs_polynomial())


def verify_linearization() -> CheckResult:
    """Substituting the x^2 and x^4 expressions into Z1 linearizes it."""
    den = _p(formulas.X2_DENOMINATOR)
    num = _p(formulas.X2_NUMERATOR)
    z1 = _p(formulas.Z_ELIMINANT_1)
    built = (z1.coeff_of("x", 4) * _x4_cleared()
             + z1.coeff_of("x", 2) * den.square() * num
             + den ** 3 * (z1.coeff_of("x", 1) * _p("x") + z1.coeff_of("x", 0)))
    rhs = _p(formulas.LINEARIZED_SCALE) * linearized_equation()
    return _compare("linearization", built, rhs, scale=formulas.LINEARIZED_SCALE)


def verify_obstruction_factorization() -> CheckResult:
    """Seven conjugate linear factors expand back to the obstruction form."""
    acc = MPoly.const(1, VARS, GF8)
    for i, j in formulas.OBSTRUCTION_FACTOR_ETA_POWERS:
        acc = acc * parse(f"e0*xi^5*b + e{i}*xi*a + e{j}*g", GF8)
    xi_i = VARS.index("xi")
    u_i = VARS.index("u")
    exps_ok = all(e[xi_i] % 7 == 0 for e in acc.terms)
    reduced: dict = {}
    for e, c in acc.terms.items():
        e2 = list(e)
        e2[u_i] += e2[xi_i] // 7
        e2[xi_i] %= 7
        key = tuple(e2)
        v = reduced.get(key, 0) ^ c
        if v:
            reduced[key] = v
        else:
            del reduced[key]
    lhs = MPoly(VARS, GF8, reduced)
    coeffs_ok = all(c <= 1 for c in lhs.terms.values())
    notes = [
        "all xi exponents in the expanded product are multiples of 7"
        if exps_ok else "stray xi exponent not divisible by 7",
        "all coefficients after xi^7 -> u lie in GF(2)"
        if coeffs_ok else "coefficient outside GF(2) after substitution",
    ]
    rhs = _p(formulas.OBSTRUCTION_FORM).to_gf8()
    return _compare("obstruction_factorization", lhs, rhs, notes=notes,
                    extra_ok=exps_ok and coeffs_ok)


@lru_cache(maxsize=1)
def eliminant() -> MPoly:
    """Resultant in x of the linearized pair; degree 8 in y."""
    return resultant(linearized_equation(), _p(formulas.QUADRATIC_EQ), "x")


@lru_cache(maxsize=1)
def surface_polynomial() -> MPoly:
    """The degree-6-in-y factor carved out of the eliminant.

    The eliminant is divided by its transcribed factors around P.  Raises
    ExactDivisionError if that division is inexact, which `run_all` reports
    as a failure of each check that builds P.
    """
    frame = (_p(formulas.ELIMINANT_MONOMIAL) * _p(formulas.ELIMINANT_CUBE_FACTOR) ** 3
             * _p("y") * _p("y + b"))
    return divide_exact(eliminant(), frame)


def surface_coefficient(k: int) -> MPoly:
    """Coefficient of y^k in the surface polynomial, in a, b, g, u."""
    return surface_polynomial().coeff_of("y", k)


def _surface_top_terms() -> MPoly:
    """The transcribed y^6..y^3 terms of the surface polynomial."""
    return _expand(
        (formulas.SURFACE_COEFF_6_FACTORS, "y^6"), (formulas.SURFACE_COEFF_5_FACTORS, "y^5"),
        (formulas.SURFACE_COEFF_4_FACTORS, "y^4"), (formulas.SURFACE_COEFF_3_FACTORS, "y^3"))


def verify_eliminant_factorization() -> CheckResult:
    """The eliminant factors through y*(y+b) and the transcribed coefficients.

    The y^2 coefficient of the surface polynomial is computed, not
    transcribed; the check asserts the transcribed ones at y^0 and y^3..y^6
    plus the b-multiple relation between the y^1 and y^2 coefficients.
    """
    R = eliminant()
    P = surface_polynomial()
    notes = [f"reference full eliminant = {formulas.ELIMINANT_DISPLAY_SCALE} * computed resultant"]
    ok = R.degree("y") == 8
    notes.append(f"eliminant y-degree {R.degree('y')} (expected 8)")
    c2 = P.coeff_of("y", 2)
    rebuilt = (c2 * _p("y^2 + b*y") + _surface_top_terms()
               + _product(formulas.SURFACE_COEFF_0_FACTORS))
    divisible = _divides(_p(formulas.OBSTRUCTION_FORM), P.coeff_of("y", 0))
    notes.append("constant coefficient divisible by the obstruction form" if divisible
                 else "constant coefficient NOT divisible by the obstruction form")
    ok = ok and divisible
    notes.append(f"computed y^2 coefficient: {c2}")
    return _compare("eliminant_factorization", P, rebuilt,
                    scale=formulas.ELIMINANT_DISPLAY_SCALE, notes=notes, extra_ok=ok)


def verify_surface_w_cubic() -> CheckResult:
    """The transcribed y^6..y^3 terms are c6*(y^2 + b*y)^3.

    With the eliminant factorization this makes the surface polynomial a
    cubic in w = y^2 + b*y: P = c6*w^3 + c2*w + c0, the form the geometry
    layer solves in closed form.
    """
    rhs = _product(formulas.SURFACE_COEFF_6_FACTORS) * _p("y^2 + b*y") ** 3
    return _compare("surface_w_cubic", _surface_top_terms(), rhs)


def verify_gamma0_curve() -> CheckResult:
    """The surface polynomial collapses to the reference curve when g = 0."""
    zero, one = _p("0"), _p("1")
    lhs = surface_polynomial().substitute_cleared("g", zero, one)
    rhs = _product(formulas.GAMMA0_CURVE_FACTORS)
    deg_ok = lhs.degree("y") == 2
    vanish_ok = all(surface_coefficient(k).substitute_cleared("g", zero, one).is_zero
                    for k in (6, 5, 4, 3, 0))
    notes = [
        f"restricted y-degree {lhs.degree('y')} (expected 2)",
        "coefficients of y^6..y^3 and y^0 vanish at g=0" if vanish_ok
        else "unexpected surviving coefficient at g=0",
    ]
    return _compare("gamma0_curve", lhs, rhs, notes=notes,
                    extra_ok=deg_ok and vanish_ok)


def verify_degenerate_locus() -> CheckResult:
    """On the locus a = u^2*b^3/g^2 the system linearizes and eliminates."""
    var, num, den = formulas.DEGENERATE_SUBSTITUTION
    quadratic = _p(formulas.QUADRATIC_EQ)
    sub = quadratic.substitute_cleared(var, _p(num), _p(den))
    lin_display = MPoly.zero(VARS, GF2)
    for group in formulas.DEGENERATE_LINEAR_TERMS:
        lin_display = lin_display + _product(group)
    notes = []
    ok = sub.coeff_of("x", 2).is_zero
    notes.append("x^2 coefficient vanishes on the degenerate locus" if ok
                 else "x^2 coefficient survives on the degenerate locus")
    lin_ok = sub == _p(formulas.DEGENERATE_LINEAR_SCALE) * lin_display
    notes.append(
        f"substituted equation = {formulas.DEGENERATE_LINEAR_SCALE} * reference linear equation"
        if lin_ok else "substituted equation does not match the reference linear equation")
    ok = ok and lin_ok

    z1_sub = _p(formulas.Z_ELIMINANT_1).substitute_cleared(var, _p(num), _p(den))
    RQ = resultant(sub, z1_sub, "x")
    lhs = _p(formulas.DEGENERATE_ELIMINANT_SCALE) * RQ
    blocks = MPoly.zero(VARS, GF2)
    for block in formulas.DEGENERATE_ELIMINANT_BLOCKS:
        blocks = blocks + _product(block)
    rhs = _product(formulas.DEGENERATE_ELIMINANT_MONOMIAL_FACTORS) * blocks

    deg_ok = RQ.degree("y") == 8
    notes.append(f"eliminant y-degree {RQ.degree('y')} (expected 8)")
    div_ok = _divides(_p("y") * _p("y + b"), RQ)
    notes.append("eliminant divisible by y*(y+b)" if div_ok
                 else "eliminant NOT divisible by y*(y+b)")
    lead_expected = (_product(formulas.DEGENERATE_ELIMINANT_MONOMIAL_FACTORS).coeff_of("y", 2)
                     * _product(formulas.DEGENERATE_ELIMINANT_LEADING_BLOCK_FACTORS))
    lead_ok = lhs.coeff_of("y", 8) == lead_expected
    notes.append("leading block coefficient matches" if lead_ok
                 else "leading block coefficient mismatch")
    return _compare(
        "degenerate_locus", lhs, rhs,
        scale=f"{formulas.DEGENERATE_ELIMINANT_SCALE} (eliminant); "
              f"{formulas.DEGENERATE_LINEAR_SCALE} (linear equation)",
        notes=notes, extra_ok=ok and deg_ok and div_ok and lead_ok)


def verify_u_nonroot_of_unity(m: int) -> CheckResult:
    """Concrete check in F_{2^m} that u+1 and u^2+u+1 are nonzero for the default u."""
    ctx = make_field(m)
    u = smallest_non_seventh_power(ctx)
    v1 = ctx.add(u, 1)
    v2 = ctx.add(ctx.add(ctx.square(u), u), 1)
    ok = v1 != 0 and v2 != 0
    notes = [f"m={m}, u={u:#x}: u+1={v1:#x}, u^2+u+1={v2:#x}"]
    if m % 2 == 0:
        # for even m a cube root of unity is a 7th power: 3 | (q-1)/7
        even_ok = (ctx.q - 1) // 7 % 3 == 0
        cube_roots = [w for w in range(1, ctx.q) if ctx.pow(w, 3) == 1]
        seventh = all(ctx.pow(w, (ctx.q - 1) // 7) == 1 for w in cube_roots)
        ok = ok and even_ok and seventh
        notes.append(
            f"3 divides (q-1)/7 for even m: {even_ok}; "
            f"every cube root of unity is a 7th power: {seventh}")
    else:
        odd_ok = (ctx.q - 1) % 3 != 0
        ok = ok and odd_ok
        notes.append(f"odd m: no nontrivial cube roots of unity exist: {odd_ok}")
    fact = f"u+1={v1:#x};u^2+u+1={v2:#x}"
    h = hashlib.sha256(fact.encode()).hexdigest()[:16]
    return CheckResult(
        name=f"u_nonroot_of_unity_m{m}", passed=ok,
        lhs_hash=h, rhs_hash=h, lhs_terms=0, rhs_terms=0,
        discrepancy=None if ok else fact, notes=tuple(notes))


# every check by name, in dependency order
CHECKS = {
    "trivial_solutions": verify_trivial_solutions,
    "z_elimination_1": lambda: verify_z_elimination(1),
    "z_elimination_2": lambda: verify_z_elimination(2),
    "quadratic_combination": verify_quadratic_combination,
    "x4_coefficients": verify_x4_coefficients,
    "linearization": verify_linearization,
    "obstruction_factorization": verify_obstruction_factorization,
    "eliminant_factorization": verify_eliminant_factorization,
    "surface_w_cubic": verify_surface_w_cubic,
    "gamma0_curve": verify_gamma0_curve,
    "degenerate_locus": verify_degenerate_locus,
    "u_nonroot_of_unity_m3": lambda: verify_u_nonroot_of_unity(3),
    "u_nonroot_of_unity_m6": lambda: verify_u_nonroot_of_unity(6),
}
CHECK_ORDER = tuple(CHECKS)


def _run_check(name: str) -> CheckResult:
    """Run one check; a ValueError or ArithmeticError inside it fails it.

    The discrepancy is the remainder of an inexact division, or else the
    error text.
    """
    try:
        return CHECKS[name]()
    except (ValueError, ArithmeticError) as err:
        discrepancy = err.remainder if isinstance(err, ExactDivisionError) else err
        return CheckResult(name, False, None, None, 0, 0, discrepancy=str(discrepancy),
                           notes=(f"{type(err).__name__} while building the chain: {err}",))


def run_all(only: str | None = None) -> IdentityReport:
    """Run every check in table order; optionally restrict to one name."""
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; known: {', '.join(CHECK_ORDER)}")
    names = CHECK_ORDER if only is None else (only,)
    return IdentityReport([_run_check(name) for name in names])


# -- verified objects consumed by the geometry layer ---------------------------


@lru_cache(maxsize=1)
def verified_surface_coefficients() -> tuple[MPoly, ...]:
    """Coefficients (low to high) of the surface polynomial, post-verification.

    Both the factorization of P and its cubic form in w = y^2 + b*y must
    pass, since the geometry layer solves P through that form.  They are
    verified once per process; a failure is not remembered, as it raises.
    """
    if not all(_run_check(name).passed
               for name in ("eliminant_factorization", "surface_w_cubic")):
        raise IdentityError("surface polynomial failed verification; "
                            "run the identity suite for details")
    return tuple(surface_coefficient(k) for k in range(7))


@lru_cache(maxsize=1)
def obstruction_polynomial() -> MPoly:
    """The transcribed degree-7 obstruction form in a, b, g, parsed once per process."""
    return _p(formulas.OBSTRUCTION_FORM)
