"""Sparse multivariate polynomials over GF(2) and GF(8).

A polynomial is a map from exponent vectors (one entry per variable, in a
fixed variable order) to nonzero coefficients.  Coefficients are ints:
GF(2) uses {0,1}; GF(8) uses 3-bit patterns in GF(2)[eta]/(eta^3+eta+1),
so GF(2) sits inside GF(8) and both share the same coefficient tables.
The canonical variable list for this project is VARS; smaller rings are
allowed but mixed-ring arithmetic is rejected.

Everything here is exact: addition, multiplication, substitution, exact
division with remainder reporting, and resultants as the cofactor expansion
of the Sylvester determinant (the elimination chain needs at most 5 x 5).
MPoly values are immutable; all operations return new objects.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2m import FieldCtx

VARS = ("x", "y", "z", "a", "b", "g", "u", "xi")

GF2 = "gf2"
GF8 = "gf8"

_GF8_MODULUS = 0b1011  # eta^3 + eta + 1


def _gf8_mul_slow(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0b1000:
            a ^= _GF8_MODULUS
        b >>= 1
    return r


GF8_MUL = [[_gf8_mul_slow(a, b) for b in range(8)] for a in range(8)]
GF8_SQR = [GF8_MUL[a][a] for a in range(8)]
GF8_INV = [0] * 8
for _a in range(1, 8):
    GF8_INV[_a] = next(b for b in range(1, 8) if GF8_MUL[_a][b] == 1)

# eta^k for k = 0..6, and the discrete log back
ETA_POW = [1]
for _k in range(6):
    ETA_POW.append(GF8_MUL[ETA_POW[-1]][0b010])
ETA_LOG = {c: k for k, c in enumerate(ETA_POW)}


class ExactDivisionError(ArithmeticError):
    """Raised when divide_exact hits a non-divisible remainder."""

    def __init__(self, message: str, remainder: "MPoly"):
        super().__init__(message)
        self.remainder = remainder


class MPoly:
    __slots__ = ("vars", "domain", "terms")

    def __init__(self, variables: tuple[str, ...], domain: str, terms: dict | None = None):
        if domain not in (GF2, GF8):
            raise ValueError(f"unknown coefficient domain {domain!r}")
        limit = 2 if domain == GF2 else 8
        clean = {}
        for exps, c in (terms or {}).items():
            if not (0 < c < limit):
                if c == 0:
                    continue
                raise ValueError(f"coefficient {c} outside {domain}")
            if len(exps) != len(variables) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            clean[tuple(exps)] = c
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _make(cls, variables, domain, terms):
        """Internal fast constructor: terms must already be clean."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, variables=VARS, domain=GF2):
        return cls._make(tuple(variables), domain, {})

    @classmethod
    def const(cls, c: int, variables=VARS, domain=GF2):
        z = (0,) * len(variables)
        return cls(variables, domain, {z: c} if c else {})

    # -- basics ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compat(self, other: "MPoly") -> None:
        if self.vars != other.vars or self.domain != other.domain:
            raise ValueError(
                f"ring mismatch: {self.vars}/{self.domain} vs {other.vars}/{other.domain}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.vars == other.vars
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.domain, frozenset(self.terms.items())))

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) ^ c
            if v:
                out[e] = v
            else:
                del out[e]
        return MPoly._make(self.vars, self.domain, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_compat(other)
        if not self.terms or not other.terms:
            return MPoly._make(self.vars, self.domain, {})
        out: dict = {}
        mul = GF8_MUL
        for e1, c1 in self.terms.items():
            row = mul[c1]
            for e2, c2 in other.terms.items():
                e = tuple(map(int.__add__, e1, e2))
                v = out.get(e, 0) ^ row[c2]
                if v:
                    out[e] = v
                else:
                    del out[e]
        return MPoly._make(self.vars, self.domain, out)

    def square(self) -> "MPoly":
        """Frobenius: squaring is term-wise in characteristic 2."""
        return MPoly._make(
            self.vars,
            self.domain,
            {tuple(2 * e for e in exps): GF8_SQR[c] for exps, c in self.terms.items()},
        )

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(1, self.vars, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.square()
        return result

    # -- structure ----------------------------------------------------------

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def coeff_of(self, var: str, k: int) -> "MPoly":
        """Coefficient of var^k, as a polynomial with that variable cleared."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1 :]] = c
        return MPoly._make(self.vars, self.domain, out)

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Coefficient list [c_0, ..., c_d] of the polynomial viewed in var."""
        d = self.degree(var)
        return [self.coeff_of(var, k) for k in range(d + 1)]

    # -- substitution ---------------------------------------------------------

    def substitute_cleared(self, var: str, num: "MPoly", den: "MPoly") -> "MPoly":
        """Substitute var <- num/den with denominators cleared by den^deg.

        Returns den^d * p(var <- num/den) where d = degree of p in var, which
        stays inside the polynomial ring; den = 1 gives p(var <- num).
        """
        self._check_compat(num)
        self._check_compat(den)
        i = self.vars.index(var)
        d = self.degree(var)
        if d <= 0:
            return self
        npow = {0: MPoly.const(1, self.vars, self.domain)}
        dpow = {0: MPoly.const(1, self.vars, self.domain)}

        def _pow(cache, base, k):
            if k not in cache:
                cache[k] = _pow(cache, base, k - 1) * base
            return cache[k]

        acc = MPoly._make(self.vars, self.domain, {})
        for e, c in self.terms.items():
            k = e[i]
            base = MPoly._make(self.vars, self.domain, {e[:i] + (0,) + e[i + 1 :]: c})
            acc = acc + base * _pow(npow, num, k) * _pow(dpow, den, d - k)
        return acc

    # -- evaluation ------------------------------------------------------------

    def eval(self, assignment: dict[str, int], ctx: FieldCtx) -> int:
        """Value in F_{2^m} under a full variable assignment.

        GF(8) coefficients embed via a root of t^3+t+1, which exists iff
        3 | m; GF(2) coefficients need no embedding.
        """
        # only a variable the assignment lacks is looked for in the terms
        missing = [v for j, v in enumerate(self.vars)
                   if v not in assignment and any(e[j] for e in self.terms)]
        if missing:
            raise ValueError(f"assignment missing variables {missing}")
        emb = None
        if any(c > 1 for c in self.terms.values()):
            emb = _gf8_embedding(ctx)
        pw: list[dict[int, int]] = [{} for _ in self.vars]

        def vpow(j: int, e: int) -> int:
            cache = pw[j]
            if e not in cache:
                cache[e] = ctx.pow(assignment[self.vars[j]], e)
            return cache[e]

        total = 0
        for exps, c in self.terms.items():
            v = c if c <= 1 else emb[c]
            for j, e in enumerate(exps):
                if e and v:
                    v = ctx.mul(v, vpow(j, e))
            total ^= v
        return total

    # -- domain conversion ------------------------------------------------------

    def to_gf8(self) -> "MPoly":
        return MPoly._make(self.vars, GF8, dict(self.terms))

    # -- text format -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            if self.domain == GF8:
                factors.append(f"e{ETA_LOG[c]}")
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                factors.append("1")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self.domain}: {self})"


def parse(text: str, domain: str = GF2, variables: tuple[str, ...] = VARS) -> MPoly:
    """Parse the textual polynomial format (inverse of str())."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    text = text.replace(" ", "").replace("\n", "")
    if text in ("", "0"):
        return MPoly.zero(variables, domain)
    terms: dict = {}
    for chunk in text.split("+"):
        if not chunk:
            raise ValueError("empty term")
        coeff = 1
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if factor == "1":
                continue
            if factor[0] == "e" and factor[1:].isdigit() and factor not in index:
                if domain != GF8:
                    raise ValueError(f"GF(8) coefficient {factor!r} in a GF(2) polynomial")
                coeff = GF8_MUL[coeff][ETA_POW[int(factor[1:]) % 7]]
                continue
            name, _, exp = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += int(exp) if exp else 1
        if coeff == 0:
            continue
        key = tuple(exps)
        v = terms.get(key, 0) ^ coeff
        if v:
            terms[key] = v
        else:
            del terms[key]
    return MPoly(variables, domain, terms)


def divide_exact(p: MPoly, d: MPoly) -> MPoly:
    """Exact quotient p/d in the polynomial ring; error if not divisible."""
    p._check_compat(d)
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_d = max(d.terms)
    cd_inv = GF8_INV[d.terms[lead_d]]
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        lead_r = max(rem)
        diff = tuple(map(int.__sub__, lead_r, lead_d))
        if any(e < 0 for e in diff):
            raise ExactDivisionError(
                "non-exact division", MPoly._make(p.vars, p.domain, rem)
            )
        c = GF8_MUL[rem[lead_r]][cd_inv]
        quot[diff] = quot.get(diff, 0) ^ c
        row = GF8_MUL[c]
        for e, cd in d.terms.items():
            key = tuple(map(int.__add__, diff, e))
            v = rem.get(key, 0) ^ row[cd]
            if v:
                rem[key] = v
            else:
                del rem[key]
    return MPoly._make(p.vars, p.domain, {e: c for e, c in quot.items() if c})


def sylvester_matrix(p: MPoly, q: MPoly, var: str) -> list[list[MPoly]]:
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise ValueError(f"resultant requires positive degree in {var!r}")
    pc = p.coeffs_in(var)  # index k = coeff of var^k
    qc = q.coeffs_in(var)
    n = dp + dq
    zero = MPoly.zero(p.vars, p.domain)
    rows = []
    for i in range(dq):  # dq shifted copies of p
        row = [zero] * n
        for k in range(dp + 1):
            row[i + dp - k] = pc[k]
        rows.append(row)
    for i in range(dp):  # dp shifted copies of q
        row = [zero] * n
        for k in range(dq + 1):
            row[i + dq - k] = qc[k]
        rows.append(row)
    return rows


def _det_cofactor(rows: list[list[MPoly]], zero: MPoly) -> MPoly:
    """Cofactor expansion, memoized on each minor's rows and columns."""
    memo: dict = {}

    def det(live: tuple[int, ...], cols: tuple[int, ...]) -> MPoly:
        if len(live) == 1:
            return rows[live[0]][cols[0]]
        key = (live, cols)
        if key not in memo:
            # expand along the row with the fewest nonzero entries (signs vanish in char 2)
            best = min(live, key=lambda i: sum(1 for j in cols if rows[i][j]))
            rest = tuple(i for i in live if i != best)
            acc = zero
            for j in cols:
                if rows[best][j]:
                    acc = acc + rows[best][j] * det(rest, tuple(c for c in cols if c != j))
            memo[key] = acc
        return memo[key]

    every = tuple(range(len(rows)))
    return det(every, every)


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Determinant of the Sylvester matrix of p and q with respect to var."""
    p._check_compat(q)
    rows = sylvester_matrix(p, q, var)
    return _det_cofactor(rows, MPoly.zero(p.vars, p.domain))


@lru_cache(maxsize=8)
def _gf8_embedding(ctx: FieldCtx) -> tuple[int, ...]:
    """Images of the 8 GF(8) encodings in F_{2^m}; needs 3 | m."""
    if ctx.m % 3 != 0:
        raise ValueError(f"GF(8) does not embed in F_(2^{ctx.m}) (3 must divide m)")
    root = None
    if ctx.generator is not None:
        w = ctx.pow(ctx.generator, (ctx.q - 1) // 7)
        candidates = sorted(ctx.pow(w, i) for i in range(1, 7))
    else:
        candidates = ctx.elements()
    for r in candidates:
        if ctx.add(ctx.mul(ctx.square(r), r), ctx.add(r, 1)) == 0:
            root = r
            break
    if root is None:
        raise ValueError("no root of t^3+t+1 found")  # unreachable when 3 | m
    r2 = ctx.square(root)
    images = []
    for c in range(8):
        v = (c & 1) and 1
        if c & 2:
            v ^= root
        if c & 4:
            v ^= r2
        images.append(v)
    return tuple(images)
