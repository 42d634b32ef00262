"""Rational points of the witness surface and the exact counting argument.

The verified degree-6 factor P from the identity layer defines, in the
gamma = 1 chart, a surface whose F_q-rational points (alpha, beta, y) with
P_{alpha,beta,1}(y) = 0 reconstruct difference triples with at least four
solutions.  The identity layer vouches that P = c6*w^3 + c2*w + c0 with
w = y^2 + beta*y, so this module finds those roots in one place
(``SurfaceEvaluator._solve``) in closed form: a depressed cubic in w, then
an Artin-Schreier quadratic in y, both read from tables built once per
field and process (`_field_tables`).  Every per-pair step (coefficients,
roots, the degree-44 curve, rebuilt witness vectors) is log/exp-table
arithmetic with no field-method call.  A walk folds alpha into the
coefficients once per row it reads, and a lone pair reads the unfolded
terms; `surface_coeffs` and `count_vs_band` stay oracles.  A surface
point is the triple (alpha, beta, y).  The evaluator owns the exceptional
locus (alpha*beta = 0, the
roots 0 and beta, the curve and the zeros of H): `kernel_roots` is the
one rule off it, and `point_json` flags a point.  The identity layer
verifies P once per process, so an evaluator for a new u compiles only
c_0, c_2, c_6 and H at that u.  It counts the points along the order-21
fold, a generic orbit from one representative, lists them and rebuilds
witness certificates from them, cross-validates the surface pipeline
against the kernel pipeline in one sweep of the chart, and evaluates the
point-count lower bound that closes the argument for large fields - in
exact integer arithmetic, with every rounding taken in the direction
that weakens the bound.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator

from . import identities
from .derivative import (CHART_LANES, Triple, WitnessCertificate, _chart_kernels, _guard_family,
                         _kernel_solutions, _rotation_rows, build_certificate, pack_vec,
                         verify_solution)
from .gf2m import FieldCtx, elem_to_hex, is_seventh_power, mu7_representatives
from .mpoly import MPoly, divide_exact

SURFACE_MAX_M = 12
# points listed one by one, by --list-points and cross-validate
POINTS_MAX_M = 9
# the closure scan stops here: the argument closes at m = 20, and every int in
# a row stays below about 620 decimal digits, well inside the JSON encoder's limit
BOUND_MAX_M = 1024
SURFACE_SCHEMA = "surface/1"
BOUND_SCHEMA = "bound/1"

# The argument that large fields force witnesses closes at this extension
# degree; the bound report carries it so consumers can compare the computed
# minimal closing m against the published claim.
REFERENCE_THRESHOLD_M = 20
REFERENCE_STATEMENT = ("the family has a non-APN witness for every m >= 20 "
                       "with 3 | m and u not a 7th power")


class GeometryError(RuntimeError):
    """A surface point failed its guaranteed witness reconstruction."""


def _compile(poly: MPoly, u: int, ctx: FieldCtx) -> list[tuple[int, int, int]]:
    """Specialize a polynomial in (a, b, g, u) at g = 1 and the given u.

    Returns (a-exponent, b-exponent, log of the field constant) triples
    with the u powers folded into the constants; zero constants are dropped.
    """
    ia, ib, ig, iu = (poly.vars.index(v) for v in ("a", "b", "g", "u"))
    for j, v in enumerate(poly.vars):
        if v not in ("a", "b", "g", "u") and any(e[j] for e in poly.terms):
            raise ValueError(f"unexpected variable {v} in surface coefficient")
    folded: dict[tuple[int, int], int] = {}
    for e, c in poly.terms.items():
        if c != 1:
            raise ValueError("surface coefficients must lie in GF(2)")
        key = (e[ia], e[ib])
        folded[key] = folded.get(key, 0) ^ ctx.pow(u, e[iu])
    return [(ea, eb, ctx._log[c]) for (ea, eb), c in sorted(folded.items()) if c]


# At most 8 fields, the bound of `gf2m._field`.  One entry takes 0.23 MiB at
# m = 9 and 2.0 MiB at m = 12, the largest field the surface runs on
# (tracemalloc), so the cache holds at most about 16 MiB.  The order-21 rows
# of `derivative._rotation_rows`, cached alike, take 6.2 MiB at m = 12.
@lru_cache(maxsize=8)
def _field_tables(ctx: FieldCtx, max_e: int) -> tuple[list, ...]:
    """The tables of `SurfaceEvaluator` that depend on the field alone.

    max_e is the largest exponent of a or b in the polynomials the
    evaluator compiles.  Returns (exp, logs, sqrt, artin_schreier,
    depressed, cbrt): three periods of the field's exp table and then
    zeros, the row of exponent logs of every element, and the root
    solver's tables from one pass over v != 0: v^2 -> v, c = v^2 + v != 0
    -> (log v, log(v + 1)), v^3 + v -> [log v] and v^3 -> [log v].
    """
    q, n, log = ctx.q, ctx.q - 1, ctx._log
    # a term's index is below 3n without a sentinel, at least 3n with one
    # and below 7n with two: three periods of exp, then zeros
    sentinel = 3 * n
    exp = ctx._exp2[:n] * 3 + [0] * (4 * n)
    logs = [[0] + [sentinel] * max_e]
    # the rows share one int object per value, so the table stays compact
    shared = list(range(n))
    logs += [[shared[e * log[v] % n] for e in range(max_e + 1)] for v in range(1, q)]
    sqrt, artin_schreier = [0] * q, [None] * q
    depressed, cbrt = [[] for _ in range(q)], [[] for _ in range(q)]
    for v in range(1, q):
        v2 = ctx.square(v)
        v3 = ctx.mul(v2, v)
        sqrt[v2] = v
        if v2 ^ v and artin_schreier[v2 ^ v] is None:
            artin_schreier[v2 ^ v] = (log[v], log[v ^ 1])
        depressed[v3 ^ v].append(log[v])
        cbrt[v3].append(log[v])
    return exp, logs, sqrt, artin_schreier, depressed, cbrt


@lru_cache(maxsize=1)
def _surface_polynomials() -> tuple:
    """(c_0 .. c_6, rhs [c_4, c_2, c_1], H, c_0/H, max_e) of the verified chain, once per process.

    The chain verifies that H divides c_0.  max_e is the largest exponent
    of a or b among them.  A failed verification raises IdentityError,
    which is not remembered.
    """
    coeffs = identities.verified_surface_coefficients()
    rhs = identities.linearized_rhs_polynomial()
    rhs = tuple(rhs.coeff_of("y", k) for k in (4, 2, 1))
    h = identities.obstruction_polynomial()
    max_e = max(max(p.degree("a"), p.degree("b")) for p in (*coeffs, *rhs, h))
    return coeffs, rhs, h, divide_exact(coeffs[0], h), max_e


class SurfaceEvaluator:
    """Specialized evaluation in the gamma = 1 chart for a fixed u.

    Construction compiles H, K = c_0/H, c_2 and c_6 at u into terms
    (a-exponent, b-exponent, log of the constant), the polynomials the
    walkers read at every pair; the others compile on first read.  The
    row of exponent logs of each field element, v -> [e*log v mod (q-1)],
    and the root solver's tables depend on the field alone and come from
    `_field_tables`.  The row of 0 holds 0 for the exponent 0 (so 0^0 = 1)
    and a sentinel for every other exponent; the exp table reads 0 at any
    index that contains a sentinel.  A term alpha^ea*beta^eb*c is then one
    lookup, exp[row(alpha)[ea] + row(beta)[eb] + log c].  `row` and
    `rhs_row` fold alpha in once for a walk's row (`_fold`), so a pair of
    it costs one add and one lookup per power of beta; the other methods
    read a lone pair from the unfolded terms.  The root solver works on
    logs too: it makes no `FieldCtx` call.
    """

    def __init__(self, u: int, ctx: FieldCtx):
        self.u = u
        self.ctx = ctx
        self._polys = coeffs, _, h, k, max_e = _surface_polynomials()
        (self._exp, self._logs, self._sqrt, self._artin_schreier, self._depressed,
         self._cbrt) = _field_tables(ctx, max_e)
        self._log = ctx._log
        self._terms = [_compile(p, u, ctx) for p in (h, k, coeffs[2], coeffs[6])]
        # u^2*beta^3 for every beta: (alpha, beta) is on the degree-44 curve iff alpha is that
        exp, lu2, n = ctx._exp2, 2 * ctx._log[u], ctx.q - 1
        self.curve = [0] + [exp[(lu2 + 3 * lb) % n] for lb in self._log[1:]] if u else [0] * ctx.q

    @cached_property
    def _surface(self) -> list:
        _, _, c2, c6 = self._terms
        c0, c1, c3, c4, c5 = (_compile(self._polys[0][k], self.u, self.ctx)
                              for k in (0, 1, 3, 4, 5))
        return [c0, c1, c2, c3, c4, c5, c6]

    @cached_property
    def _rhs(self) -> list:
        return [_compile(p, self.u, self.ctx) for p in self._polys[1]]

    def _fold(self, alpha: int, polys: list) -> list[list[tuple[int, int]]]:
        """Fold alpha into compiled terms: one (eb, log C) per nonzero C*beta^eb of each.

        C sums alpha^ea*c over the terms with that eb, so an index
        log C + row(beta)[eb] is below 2n, or below 4n with a sentinel; c_0
        adds log H, below n.
        """
        alogs, exp, log = self._logs[alpha], self._exp, self._log
        folded = []
        for t in polys:
            by_eb: dict[int, int] = {}
            for ea, eb, lc in t:
                by_eb[eb] = by_eb.get(eb, 0) ^ exp[alogs[ea] + lc]
            folded.append([(eb, log[c]) for eb, c in by_eb.items() if c])
        return folded

    def _value(self, terms, alogs, blogs) -> int:
        exp = self._exp
        acc = 0
        for ea, eb, lc in terms:
            acc ^= exp[alogs[ea] + blogs[eb] + lc]
        return acc

    def surface_coeffs(self, alpha: int, beta: int) -> list[int]:
        """Specialized coefficients [c_0 .. c_6] of the surface polynomial."""
        alogs, blogs = self._logs[alpha], self._logs[beta]
        return [self._value(t, alogs, blogs) for t in self._surface]

    def _solve(self, c0: int, c2: int, c6: int, beta: int) -> list[int]:
        """The y in F_q with c6*w^3 + c2*w + c0 = 0 for w = y^2 + beta*y, sorted.

        The roots w != 0 are kept as logs, and w = 0 apart (zero).  Sums of
        logs are offset by multiples of n = q-1 to index exp in [0, 3n);
        log[0] reads 0, the log of 1, so each operand that can be 0 is tested.
        """
        log, exp, n = self._log, self._exp, self.ctx.q - 1
        lws, zero = [], not c0
        if c6:
            if c2:
                # w = s*v turns w^3 + p*w + r into v^3 + v = r/(p*s) for p = c2/c6,
                # r = c0/c6 and s = sqrt(p); halving a log mod n is times q/2
                ls = (log[c2] - log[c6]) * ((n + 1) // 2) % n
                t = exp[log[c0] - log[c2] - ls + 2 * n] if c0 else 0
                lws = [ls + lv for lv in self._depressed[t]]
            elif c0:
                lws = self._cbrt[exp[log[c0] - log[c6] + n]]
        elif c2:
            if c0:
                lws = [log[c0] - log[c2] + n]
        elif c0:
            return []
        else:
            return list(range(n + 1))
        if not beta:
            return sorted([self._sqrt[exp[lw]] for lw in lws] + [0] * zero)
        # y = beta*t with t^2 + t = w/beta^2; distinct w give disjoint pairs of y
        out = [0, beta] if zero else []
        lb = log[beta]
        over_b2 = n - 2 * lb % n
        for lw in lws:
            ts = self._artin_schreier[exp[lw + over_b2]]
            if ts:
                out += (exp[lb + ts[0]], exp[lb + ts[1]])
        return sorted(out)

    def solve_pair(self, alpha: int, beta: int) -> tuple[int, list[int]]:
        """H(alpha, beta, 1) and the sorted y with P_{alpha,beta,1}(y) = 0; c_0 = K*H."""
        alogs, blogs = self._logs[alpha], self._logs[beta]
        h, k, c2, c6 = (self._value(t, alogs, blogs) for t in self._terms)
        c0 = self._exp[self._log[h] + self._log[k]] if h and k else 0
        return h, self._solve(c0, c2, c6, beta)

    def row(self, alpha: int) -> Callable[[int], tuple[int, list[int]]]:
        """beta -> `solve_pair(alpha, beta)`, alpha folded in once: one add and lookup per term."""
        fh, fk, f2, f6 = self._fold(alpha, self._terms)
        exp, logs, log, solve = self._exp, self._logs, self._log, self._solve

        def pair(beta: int) -> tuple[int, list[int]]:
            blogs = logs[beta]
            h = c0 = c2 = c6 = 0
            for eb, lc in fh:
                h ^= exp[lc + blogs[eb]]
            if h:
                lh = log[h]
                for eb, lc in fk:
                    c0 ^= exp[lh + lc + blogs[eb]]
            for eb, lc in f2:
                c2 ^= exp[lc + blogs[eb]]
            for eb, lc in f6:
                c6 ^= exp[lc + blogs[eb]]
            return h, solve(c0, c2, c6, beta)

        return pair

    def kernel_roots(self, alpha: int, beta: int, row=None) -> tuple[int, list[int]]:
        """H and the sorted roots y outside {0, beta} at a generic pair, else (0, []).

        Generic: u, alpha and beta nonzero, off the curve, H nonzero.  There
        the kernel at (alpha, beta, 1) is 0, a and one vector per root.  0 and
        beta are roots together (P(0) = P(beta) = c_0), 0 first.  A walk passes its `row(alpha)`.
        """
        if not (self.u and alpha and beta) or alpha == self.curve[beta]:
            return 0, []
        h, ys = row(beta) if row else self.solve_pair(alpha, beta)
        if not h:
            return 0, []
        if ys and not ys[0]:
            del ys[0]
            ys.remove(beta)
        return h, ys

    def point_json(self, alpha: int, beta: int, y: int) -> dict:
        """The point's hex coordinates and its two flags.

        Every root that `kernel_roots` gives has both flags false.
        """
        return {
            "alpha": elem_to_hex(alpha),
            "beta": elem_to_hex(beta),
            "y": elem_to_hex(y),
            "on_excluded_lines": not (alpha and beta) or y in (0, beta),
            "on_degree44_curve": alpha == self.curve[beta],
        }

    def obstruction_value(self, alpha: int, beta: int) -> int:
        """H(alpha, beta, 1) of a lone pair, from the unfolded terms."""
        return self._value(self._terms[0], self._logs[alpha], self._logs[beta])

    def rhs_coeffs(self, alpha: int, beta: int) -> list[int]:
        """[c_4, c_2, c_1]: the linearized right-hand side is c_4*y^4 + c_2*y^2 + c_1*y."""
        alogs, blogs = self._logs[alpha], self._logs[beta]
        return [self._value(t, alogs, blogs) for t in self._rhs]

    def rhs_row(self, alpha: int) -> Callable[[int], list[int]]:
        """beta -> `rhs_coeffs(alpha, beta)`, with alpha folded into the three terms once."""
        folded, exp, logs = self._fold(alpha, self._rhs), self._exp, self._logs

        def rhs(beta: int) -> list[int]:
            blogs, out = logs[beta], []
            for t in folded:
                acc = 0
                for eb, lc in t:
                    acc ^= exp[lc + blogs[eb]]
                out.append(acc)
            return out

        return rhs


def _guard_surface(ctx: FieldCtx, points_listed: str | None = None) -> None:
    _guard_family(ctx)
    if ctx.m > SURFACE_MAX_M:
        raise ValueError(f"surface point counts are limited to m <= {SURFACE_MAX_M}")
    if points_listed and ctx.m > POINTS_MAX_M:
        raise ValueError(f"{points_listed} is limited to m <= {POINTS_MAX_M}")


def iter_surface_points(ev: SurfaceEvaluator) -> Iterator[tuple[int, int, int]]:
    """All (alpha, beta, y) with P_{alpha,beta,1}(y) = 0 at ev's u, in encoding order."""
    ctx = ev.ctx
    _guard_surface(ctx)
    for alpha in range(ctx.q):
        row = ev.row(alpha)
        for beta in range(ctx.q):
            for y in row(beta)[1]:
                yield alpha, beta, y


def _first_witness_point(ev: SurfaceEvaluator) -> tuple[int, int, int] | None:
    """The first point of `iter_surface_points` that `kernel_roots` lists, or None.

    The first generic pair in encoding order with a root gives its smallest
    root.  No point before it is built.
    """
    for alpha in range(1, ev.ctx.q):
        row = ev.row(alpha)
        for beta in range(1, ev.ctx.q):
            ys = ev.kernel_roots(alpha, beta, row)[1]
            if ys:
                return alpha, beta, ys[0]
    return None


def surface_report(
    u: int,
    ctx: FieldCtx,
    filtered: bool = False,
    collect_points: bool = False,
    emit_witness: bool = False,
    progress=None,
) -> dict:
    """Exact point counts, optionally the flagged points and one witness certificate.

    Returns {"counts": ...}, plus "points" with collect_points and
    "certificate" with emit_witness.

    The order-7 symmetry maps (alpha, beta, y) to (s^2 alpha, s^3 beta,
    s^3 y) and keeps both filters, so the lines alpha = 0 and beta = 0
    count over the mu_7 representatives, weight 7, and (0, 0) once.  The
    torus alpha*beta != 0 walks the order-21 fold (`_rotation_rows`).  The
    rotation moves the lines and the curve, so an orbit counts 21 times
    from its representative p only when u != 0 and p, sigma p =
    (1/beta, alpha/beta) and sigma^2 p = (beta/alpha, 1/alpha) are generic:
    off the curve, with H nonzero.  Then each has 2^dim - 2 roots outside
    {0, beta}, dim being invariant under sigma, and 0 and beta are roots
    iff u^3 = 1 (c_0 = K*H).  Any other orbit counts image by image, weight
    7.  H is evaluated at the images only for a 7th power u; for any other
    it vanishes nowhere (see `cross_validate`).  Only the rows of weight 21
    are folded.  progress gets the share of the fold's rows done, once per
    row and last at 1.0.  The points are listed by `iter_surface_points`,
    in encoding order, as `point_json` gives them.

    The certificate comes from the first point that `kernel_roots` lists
    (`_first_witness_point`); it is None when there is no such point, as
    for u = 1.  The counts tell whether there is one, so the scan runs
    only then.
    """
    _guard_surface(ctx, "listing surface points" if collect_points else None)
    ev = SurfaceEvaluator(u, ctx)
    curve_alphas = ev.curve
    log, exp, n = ctx._log, ctx._exp2, ctx.q - 1
    check_h = u and is_seventh_power(u, ctx)
    total = lines = curve = kept = 0
    has_witness = False

    def count(alpha: int, beta: int, weight: int, h: int, roots: list[int]) -> None:
        nonlocal total, lines, curve, kept, has_witness
        k = len(roots)
        on_lines = k if alpha == 0 or beta == 0 else (0 in roots) + (beta in roots)
        total += weight * k
        lines += weight * on_lines
        if alpha == curve_alphas[beta]:
            curve += weight * k
        elif k > on_lines:
            kept += weight * (k - on_lines)
            has_witness = has_witness or h != 0

    reps = mu7_representatives(ctx)
    for alpha, beta, weight in ((0, 0, 1), *((0, b, 7) for b in reps), *((a, 0, 7) for a in reps)):
        count(alpha, beta, weight, *ev.solve_pair(alpha, beta))
    for (alpha, _, _), betas, weight in _rotation_rows(ctx):
        la = log[alpha]
        b2 = exp[n - la]
        # a row of weight 7 is the one pair of its alpha that the rotation fixes
        solve = ev.row(alpha) if weight == 21 else partial(ev.solve_pair, alpha)
        for beta in betas:
            h, roots = solve(beta)
            # sigma p = (a1, b1) and sigma^2 p = (a2, b2); a weight-7 pair is its own only image
            lb = log[beta]
            a1, b1, a2 = exp[n - lb], exp[la - lb + n], exp[lb - la + n]
            if weight == 7 or (u and h and alpha != curve_alphas[beta] and a1 != curve_alphas[b1]
                               and a2 != curve_alphas[b2]
                               and (not check_h or ev.obstruction_value(a1, b1)
                                    and ev.obstruction_value(a2, b2))):
                count(alpha, beta, weight, h, roots)
            else:
                count(alpha, beta, 7, h, roots)
                count(a1, b1, 7, *ev.solve_pair(a1, b1))
                count(a2, b2, 7, *ev.solve_pair(a2, b2))
        if progress is not None:
            progress(la * 7 / n)
    if progress is not None:
        progress(1.0)
    doc = {"counts": {"total": total, "on_excluded_lines": lines,
                      "on_degree44_curve": curve, "filtered": kept}}
    if collect_points:
        points = (ev.point_json(*p) for p in iter_surface_points(ev))
        doc["points"] = [p for p in points if not filtered
                         or not (p["on_excluded_lines"] or p["on_degree44_curve"])]
    if emit_witness:
        pt = _first_witness_point(ev) if has_witness else None
        doc["certificate"] = point_to_witness(pt, ev).to_json() if pt else None
    return doc


def point_to_witness(p: tuple[int, int, int], ev: SurfaceEvaluator) -> WitnessCertificate:
    """Reconstruct the full solution data behind the surface point p = (alpha, beta, y).

    p must be a root that `kernel_roots` lists, else ValueError.  The
    algebra guarantees success there, so any verification failure is
    raised as a GeometryError rather than reported as a miss.
    """
    alpha, beta, y = p
    h, ys = ev.kernel_roots(alpha, beta)
    if y not in ys:
        raise ValueError("not a witness point: it lies on an excluded line or the degree-44 "
                         "curve, H = 0 there, or y is not a root")
    a: Triple = (alpha, beta, 1)
    cert = build_certificate(a, ev.u, ev.ctx)
    solutions = {pack_vec(v, ev.ctx.m) for v in cert.solutions} if cert else None
    _check_root(ev, a, y, h, ev.rhs_coeffs(alpha, beta), solutions)
    return cert


def _rebuild(ev: SurfaceEvaluator, a: Triple, y: int, h: int, rhs: list[int]) -> Triple:
    """The vector (x, y, z) that a surface root y stands for at the triple a.

    h is the nonzero obstruction value at (alpha, beta) and rhs its
    `SurfaceEvaluator.rhs_coeffs`.  x = rhs(y)/(u^3*beta^6*h) and
    z = (alpha*x^2 + alpha^2*x + u*y^2)/(u*beta^2) are sums of logs.
    Raises ZeroDivisionError when u, beta or h is 0.
    """
    ctx, u = ev.ctx, ev.u
    alpha, beta, _ = a
    if not (u and beta and h):
        raise ZeroDivisionError("inverse of 0 in F_{2^m}")
    log, exp, n = ctx._log, ev._exp, ctx.q - 1
    lu, lb = log[u], log[beta]
    x = z = 0
    if y:
        ly = log[y]
        acc = 0
        for c, e in zip(rhs, (4, 2, 1)):
            if c:
                acc ^= exp[log[c] + e * ly % n]
        if acc:
            x = exp[log[acc] - (3 * lu + 6 * lb + log[h]) % n + n]
        z = exp[lu + 2 * ly % n]
    if alpha and x and x != alpha:
        z ^= exp[log[alpha] + log[x] + log[x ^ alpha]]  # alpha*x^2 + alpha^2*x
    if z:
        z = exp[log[z] - (lu + 2 * lb) % n + n]
    return x, y, z


def _check_root(ev: SurfaceEvaluator, a: Triple, y: int, h: int, rhs: list[int],
                solutions: set[int] | None) -> Triple:
    """Rebuild x and z from a surface root y and check (x, y, z) against the kernel.

    h, rhs and the formulas are those of `_rebuild`; solutions is the
    packed kernel at a from `_kernel_solutions` (None when its dimension is
    below 2).  Returns (x, y, z).  Raises GeometryError when the vector
    does not solve the system, is trivial or is missing from the kernel;
    ZeroDivisionError when u, beta or h is 0.
    """
    v = _rebuild(ev, a, y, h, rhs)
    w = pack_vec(v, ev.ctx.m)
    # the span solves the system: `_kernel_solutions` checked its basis, a aside
    if (solutions is None or w not in solutions) and not verify_solution(a, v, ev.u, ev.ctx):
        raise GeometryError(f"reconstructed vector {v} does not solve the system at {a}")
    if v in ((0, 0, 0), a):
        raise GeometryError(f"reconstructed vector {v} is a trivial solution")
    if solutions is None:
        raise GeometryError(f"kernel at {a} has dimension < 2 despite a surface point")
    if w not in solutions:
        raise GeometryError(f"reconstructed vector {v} missing from the kernel solutions")
    return v


def cross_validate(u: int, ctx: FieldCtx, progress=None) -> dict:
    """Check the kernel and surface pipelines against each other.

    Returns the ``report`` object of the ``cross-validate/1`` document:
    ``m``, hex ``u``, the counts ``kernel_triples_checked``,
    ``kernel_witness_triples`` and ``surface_points_checked``, the
    ``mismatches`` and ``consistent``.

    One sweep checks the triple (alpha, beta, 1) at every generic pair
    (`SurfaceEvaluator.kernel_roots`), with no fold: a fault at one pair
    need not repeat along its orbit.  Both directions hold only there, so
    the zeros of the obstruction form H are skipped.  There are none for a u
    that is not a 7th power: the `obstruction_factorization` identity
    writes H as the product of xi^5*beta + eta^i*xi*alpha + eta^j with
    xi^7 = u, and x^7 - u is then irreducible over F_q (mu_7 lies in F_q),
    so no factor, of degree <= 5 in xi with a nonzero constant term,
    vanishes at xi.

    The kernels come from `derivative._chart_kernels`, one elimination per
    block of whole rows, as many as fit in `CHART_LANES` lanes: the whole
    chart at m = 6, 8 rows at m = 9.  It reads out each pair's `_kernel`
    basis of its columns where that has >= 2 vectors.  There
    `_kernel_solutions` checks that basis as `build_certificate` would, one
    `verify_solution` per basis vector other than a (a solves its own system
    identically), raising its CertificateError, but builds no certificate.
    Kernel to surface: such a kernel must have a solution whose y is a
    surface root outside {0, beta}.  Surface to kernel: every such root must rebuild a
    nontrivial solution in that span (`_check_root`); one that does settles
    the first direction.  Mismatches list every kernel-to-surface entry
    first, then every surface-to-kernel entry, each in encoding order.
    progress gets the share of the chart's rows done, once per row and last
    at 1.0.  Raises ValueError for u = 0, which lies outside the family.
    """
    _guard_surface(ctx, "cross-validation")
    if u == 0:
        raise ValueError("u = 0 lies outside the family (u must be nonzero)")
    ev = SurfaceEvaluator(u, ctx)
    m, q, mask = ctx.m, ctx.q, ctx.q - 1
    block = max(1, CHART_LANES // q)
    triples = witnesses = points = 0
    to_surface, to_kernel = [], []
    for alpha in range(q):
        if progress is not None:
            progress(alpha / q)
        if alpha % block == 0:
            kernel_at = None  # free the block before the next one is built
            kernel_at = _chart_kernels(ctx, u, alpha, min(block, q - alpha))
        row, rhs_row = (ev.row(alpha), ev.rhs_row(alpha)) if alpha else (None, None)
        for beta in range(1, q):
            h, roots = ev.kernel_roots(alpha, beta, row)
            if not h:
                continue
            triples += 1
            a = (alpha, beta, 1)
            basis = kernel_at(alpha, beta)
            solutions = None
            if basis:
                witnesses += 1
                solutions = _kernel_solutions(a, basis, u, ctx)
            rhs = rhs_row(beta) if roots else None
            rebuilt = False
            for y in roots:
                points += 1
                try:
                    _check_root(ev, a, y, h, rhs, solutions)
                    rebuilt = True
                except GeometryError as err:
                    to_kernel.append({
                        "direction": "surface_to_kernel",
                        "point": ev.point_json(alpha, beta, y),
                        "detail": str(err),
                    })
            # a root rebuilt into the span is a kernel solution whose y is that root
            if solutions is not None and not rebuilt and not any((w >> m) & mask in roots
                                                                 for w in solutions):
                to_surface.append({
                    "direction": "kernel_to_surface",
                    "triple": [elem_to_hex(c) for c in a],
                    "detail": "no kernel solution has a surface root y outside {0, beta}",
                })
    if progress is not None:
        progress(1.0)
    mismatches = to_surface + to_kernel
    return {
        "m": ctx.m,
        "u": elem_to_hex(u),
        "kernel_triples_checked": triples,
        "kernel_witness_triples": witnesses,
        "surface_points_checked": points,
        "mismatches": mismatches,
        "consistent": not mismatches,
    }


# -- exact lower-bound arithmetic -----------------------------------------------


def _icbrt(n: int) -> int:
    """Integer cube root (floor) by Newton iteration; exact for any size."""
    if n < 0:
        raise ValueError("negative")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x


def ceil_cbrt(n: int) -> int:
    c = _icbrt(n)
    return c if c ** 3 == n else c + 1


def ceil_q_pow_3_2(m: int) -> int:
    """ceil(q^(3/2)) for q = 2^m, exact."""
    if (3 * m) % 2 == 0:
        return 1 << (3 * m // 2)
    return math.isqrt(1 << (3 * m)) + 1  # 2^(3m) is not a perfect square here


def _lang_weil_width(delta: int, m: int) -> int:
    """(delta-1)(delta-2)*ceil(q^(3/2)) + 5*ceil(delta^(13/3))*q for q = 2^m, exact."""
    return (delta - 1) * (delta - 2) * ceil_q_pow_3_2(m) + 5 * ceil_cbrt(delta ** 13) * (1 << m)


def surface_degree() -> int:
    """delta: the homogeneous degree in (a, b, g, y) of the verified surface P.

    Raises IdentityError if P fails verification or is not homogeneous.
    """
    degrees = {k + sum(e[c.vars.index(v)] for v in "abg")
               for k, c in enumerate(identities.verified_surface_coefficients()) for e in c.terms}
    if len(degrees) != 1:
        raise identities.IdentityError(f"surface polynomial is not homogeneous: {sorted(degrees)}")
    return degrees.pop()


def bound_check(m_from: int = 3, m_to: int = 40) -> dict:
    """Exact evaluation of the point-count lower bound across a range of m.

    Returns the ``bound/1`` document: ``schema``, ``delta``, ``dimension``,
    ``applicability_threshold``, one row per m, the minimal closing m overall
    and among multiples of 3 (None when the range has none), and the
    ``reference`` claim to compare them against.

    For an absolutely irreducible surface (dimension r = 2) of degree at
    most delta, the estimate applies once q > 2(r+1)delta^2 and gives at
    least LB(q) = q^2 - (delta-1)(delta-2)*ceil(q^(3/2)) - 5*ceil(delta^(13/3))*q
    rational points in the affine chart.  The argument closes when LB(q)
    reaches 48q, which strictly exceeds the exclusion budget of three lines
    (at most q+1 points each) plus a degree-44 curve (at most 44q+1).
    Non-multiples of 3 are reported but flagged: the family itself is only
    defined when 3 divides m.

    A surface point's ``on_excluded_lines`` tests four conditions (alpha = 0,
    beta = 0, y = 0, y = beta), and the three-line budget bounds their union:
    at m = 9, u = 0x7, alpha = 0 alone holds 1023 points and the union 1534,
    against 3(q+1) = 1539.
    """
    if m_from < 1 or m_to < m_from:
        raise ValueError("bad m range")
    if m_to > BOUND_MAX_M:
        raise ValueError(f"m_to={m_to} exceeds {BOUND_MAX_M}")
    delta = surface_degree()
    r = 2
    applicability = 2 * (r + 1) * delta * delta
    rows = []
    for m in range(m_from, m_to + 1):
        q = 1 << m
        lb = q * q - _lang_weil_width(delta, m)
        required = 48 * q
        budget = 3 * (q + 1) + 44 * q + 1  # the curve's degree 44 is taken from the paper
        rows.append({
            "m": m,
            "q": q,
            "multiple_of_3": m % 3 == 0,
            "applicable": q > applicability,
            "lower_bound": lb,
            "required": required,
            "exclusion_budget": budget,
            "closes": q > applicability and lb >= required and required > budget,
        })
    closed = [row["m"] for row in rows if row["closes"]]
    for row in rows:  # the closure condition is monotone in m; a violation is a bug
        if closed and row["m"] > closed[0] and not row["closes"]:
            raise AssertionError(f"closure is not monotone at m={row['m']}")
    closed3 = [m for m in closed if m % 3 == 0]
    return {
        "schema": BOUND_SCHEMA,
        "delta": delta,
        "dimension": r,
        "applicability_threshold": applicability,
        "rows": rows,
        "minimal_closing_m": closed[0] if closed else None,
        "minimal_closing_m_multiple_of_3": closed3[0] if closed3 else None,
        "reference": {"threshold_m": REFERENCE_THRESHOLD_M, "statement": REFERENCE_STATEMENT},
    }


def count_vs_band(u: int, ctx: FieldCtx) -> dict:
    """Exact affine point count of the surface against the estimate band.

    The count is the number of points ``iter_surface_points`` yields; it is
    re-summed beta-major with explicit power sums, an evaluation of P
    independent of ``SurfaceEvaluator.solve_pair``, and only that exactness is
    asserted.  The
    band is informational: it formally applies to an absolutely irreducible
    component of possibly smaller degree, and at small m it is vacuous
    (wider than q^2), which the report states explicitly.
    """
    _guard_surface(ctx)
    if ctx.m > 6:
        raise ValueError("exhaustive band comparison is limited to m in {3, 6}")
    ev = SurfaceEvaluator(u, ctx)
    q = ctx.q
    mul = ctx.mul
    count_a = sum(1 for _ in iter_surface_points(ev))

    count_b = 0  # beta-major, explicit power sums
    for beta in range(q):
        for alpha in range(q):
            coeffs = ev.surface_coeffs(alpha, beta)
            for y in range(q):
                ypow = 1
                acc = coeffs[0]
                for k in range(1, 7):
                    ypow = mul(ypow, y)
                    if coeffs[k]:
                        acc ^= mul(coeffs[k], ypow)
                if acc == 0:
                    count_b += 1

    delta = surface_degree()
    width = _lang_weil_width(delta, ctx.m)
    return {
        "m": ctx.m,
        "u": elem_to_hex(u),
        "delta": delta,
        "count": count_a,
        "counts_agree": count_a == count_b,
        "band_center": q * q,
        "band_width": width,
        "band_vacuous": width >= q * q,
        "caveat": ("the estimate applies to an absolutely irreducible component "
                   "of possibly smaller degree; the band is reported for context only"),
    }
