"""Differential analysis of the trivariate family C_u over F_{2^m}^3.

C_u(x, y, z) = (x^3 + u*y^2*z, y^3 + u*x*z^2, z^3 + u*x^2*y).

Because C_u is quadratic, the solutions of C_u(v + a) + C_u(v) + C_u(a) +
C_u(0) = 0 for a fixed difference triple a form the kernel of an F_2-linear
map on F_q^3.  This module builds the 3m columns of that map and finds their
kernel with a single GF(2) elimination.  What a coordinate of a adds to the
columns is F_2-linear in its value, so `derivative_columns` XORs the tags
with the shares of the coordinates' set bits: monomials t^n and u*t^n
reduced mod the modulus, laid out once per (field, u).  `_kernel` is the
one elimination of a triple: the exhaustive witness search steps from each
beta to the next by linearity (`_representatives`); the orbit walk
(`_orbit_rows`) and the per-triple kernel basis behind sampled search and
certificates build a triple's columns.  Cross-validation eliminates a
block of the gamma = 1 chart at once (`_chart_kernels`), one bit per pair
in each word, and gets `_kernel`'s basis at every pair.  A witness is a
triple whose kernel has dimension >= 2 (at least 4 solutions), packaged as
a certificate whose re-verification uses no elimination: direct arithmetic
on each solution and the span of the basis (`_kernel_solutions`, which
cross-validation runs as well).

The diagonal D = diag(1, s, s^-2), s^7 = 1, and the rotation
sigma(x, y, z) = (z, x, y) generate a group of order 21 that moves
kernels and images with the triple.  The spectrum and the permutation
test walk one point per orbit of it, with weights 3, 7 and 21; the
spectrum eliminates only where the witness surface cannot give the kernel
dimension.  The surface counts (in `geometry`) walk its rows with
alpha*beta != 0 as well: a generic orbit counts from its representative,
any other image by image.  The exhaustive witness search, the surface
points and cross-validation walk every point; the witness search takes
the rotations of the points with leading coordinate 1, in code order, as
no multiple of one has a smaller code.

Vectors in F_q^3 are packed as ints with the x coordinate in the low m
bits, then y, then z; column j of the map is the image of bit j.
Difference triples are ordered by their code:
code(a) = (alpha << 2m) | (beta << m) | gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import xor
from typing import Callable, Iterable, Iterator

from .gf2m import FieldCtx, _gf2_mod, elem_to_hex, make_field, mu7_representatives

Triple = tuple[int, int, int]

# m = 12 takes about 5 s (2-core Xeon, Python 3.11): 791 of 799,113 orbits
# are eliminated for u = 0x3.  The permutation test eliminates every orbit.
SPECTRUM_MAX_M = 12
PERMUTATION_MAX_M = 9
# The exhaustive witness search can show that no witness exists only by
# walking all q^2 + q + 1 points, about 1.1e9 at m = 15.
WITNESS_MAX_M = 15
# Largest m a loaded certificate may name.  The field's irreducibility test
# grows about cubically in m, so an unbounded m lets a certificate file keep
# verify-cert busy for hours; the sampled search is exercised up to m = 21.
CERT_MAX_M = 63
WITNESS_SCHEMA = "witness/1"
# the invariants a certificate records as re-verified, in its "reverified" order
_REVERIFIED = ("solutions_solve_system", "contains_zero", "contains_triple",
              "count_is_power_of_two")


class CertificateError(RuntimeError):
    """A certificate failed its independent re-verification."""


def encode_triple(a: Triple, m: int) -> int:
    return (a[0] << (2 * m)) | (a[1] << m) | a[2]


def decode_triple(code: int, m: int) -> Triple:
    mask = (1 << m) - 1
    return ((code >> (2 * m)) & mask, (code >> m) & mask, code & mask)


def pack_vec(v: Triple, m: int) -> int:
    """Pack a solution vector (x, y, z) with x in the low bits."""
    return v[0] | (v[1] << m) | (v[2] << (2 * m))


def unpack_vec(w: int, m: int) -> Triple:
    mask = (1 << m) - 1
    return (w & mask, (w >> m) & mask, (w >> (2 * m)) & mask)


# -- evaluation ----------------------------------------------------------------


def eval_cu(x: int, y: int, z: int, u: int, ctx: FieldCtx) -> Triple:
    """Image of (x, y, z) under C_u."""
    return (
        ctx.pow(x, 3) ^ ctx.mul(ctx.mul(u, ctx.square(y)), z),
        ctx.pow(y, 3) ^ ctx.mul(ctx.mul(u, x), ctx.square(z)),
        ctx.pow(z, 3) ^ ctx.mul(ctx.mul(u, ctx.square(x)), y),
    )


def verify_solution(a: Triple, v: Triple, u: int, ctx: FieldCtx) -> bool:
    """Direct arithmetic check of the three linearized equations.

    Deliberately independent of the column/kernel code path: certificates
    must not inherit a linear-algebra bug.  Each equation is factored, e.g.
    the first, alpha*x^2 + alpha^2*x + u*gamma*y^2 + u*beta^2*z, as
    alpha*x*(x + alpha) + u*(gamma*y^2 + beta^2*z); in characteristic 2 it
    vanishes when the two parts are equal.
    """
    al, be, ga = a
    x, y, z = v
    mul, sq = ctx.mul, ctx.square
    return (mul(al, mul(x, x ^ al)) == mul(u, mul(ga, sq(y)) ^ mul(sq(be), z))
            and mul(be, mul(y, y ^ be)) == mul(u, mul(al, sq(z)) ^ mul(sq(ga), x))
            and mul(ga, mul(z, z ^ ga)) == mul(u, mul(be, sq(x)) ^ mul(sq(al), y)))


# -- the map's columns and its kernel --------------------------------------------


# 3m shares of 3m ints each: 0.19 MiB at m = 21 (measured), about 3 MiB at
# the certificate limit m = 63, so under 50 MiB for 16 entries.
@lru_cache(maxsize=16)
def _unit_shares(m: int, modulus: int, u: int) -> list[list[list[int]]]:
    """What coordinate k of the triple adds to the 3m columns when it is t^i: [k][i].

    For alpha = t^i and each basis element e = t^j, lane 0 of the x-column
    of e gets t^(i+2j) + t^(2i+j), lane 2 of its y-column u*t^(2i+j) and
    lane 1 of its z-column u*t^(i+2j).  Beta and gamma shift both the
    columns and the lanes cyclically, as the coordinates of C_u do.  Lane L
    sits at bit 3m + L*m, above the column tags.  Every entry is read from
    t^n and u*t^n reduced mod the modulus, n < 3m: no field multiplication.
    """
    t = [_gf2_mod(1 << n, modulus) for n in range(3 * m)]
    ut = [_gf2_mod(u << n, modulus) for n in range(3 * m)]
    shares: list[list[list[int]]] = [[], [], []]
    for i in range(m):
        parts = ([t[i + 2 * j] ^ t[2 * i + j] for j in range(m)],
                 [ut[2 * i + j] for j in range(m)],
                 [ut[i + 2 * j] for j in range(m)])
        for k, units in enumerate(shares):
            cols = [0] * (3 * m)
            for b, part in enumerate(parts):
                lo = (b + k) % 3 * m
                shift = (3 + (k - b) % 3) * m
                cols[lo:lo + m] = [v << shift for v in part]
            units.append(cols)
    return shares


def derivative_columns(a: Triple, u: int, ctx: FieldCtx) -> list[int]:
    """The 3m tagged columns of the linear map at a.

    Column j is (M e_j) << 3m | 1 << j, where e_j is the j-th bit of a
    packed vector and M*v = 0 exactly when v solves the linearized system.
    The tags are XORed with the unit share of each set bit of each
    coordinate.
    """
    cols = [1 << j for j in range(3 * ctx.m)]
    for c, units in zip(a, _unit_shares(ctx.m, ctx.modulus, u)):
        while c:
            low = c & -c
            cols = list(map(xor, cols, units[low.bit_length() - 1]))
            c ^= low
    return cols


def _kernel(tagged: Iterable[int], n: int) -> list[int]:
    """GF(2) elimination on tagged columns; returns a basis of the kernel.

    Every entry is image << n | tag, with distinct tags below 1 << n.
    Pivots sit on the highest bit.  A column whose image reduces to zero
    is left holding the combination of tags that produced it: its own tag,
    which no other kernel vector holds, and tags of pivot columns.  So when
    the tags come in decreasing order, each kernel vector's lowest bit is
    its own tag and is set in no other vector.
    """
    top = 1 << n
    piv = [0] * (2 * n + 1)  # indexed by bit length
    kernel = []
    for cur in tagged:
        while cur >= top:
            length = cur.bit_length()
            p = piv[length]
            if p:
                cur ^= p
            else:
                piv[length] = cur
                break
        else:
            kernel.append(cur)
    return kernel


def kernel_basis(a: Triple, u: int, ctx: FieldCtx) -> list[int]:
    """Basis of the solutions at a as packed 3m-bit ints, in reduced echelon form.

    The columns reach `_kernel` in decreasing tag order: then each vector's
    lowest set bit is set in no other vector, which makes the basis unique,
    and reversing returns it in increasing pivot order.
    """
    cols = derivative_columns(a, u, ctx)
    return _kernel(reversed(cols), len(cols))[::-1]


# -- the scan over projective points -----------------------------------------------


def _orbit_rows(ctx: FieldCtx) -> Iterator:
    """Rows ((alpha, 0, gamma), betas, weight): one point per orbit of a group of order 21.

    The group is generated by D = diag(1, s, s^-2), s^7 = 1, and the
    rotation sigma(x, y, z) = (z, x, y).  C_u o D = diag(1, s^3, s) o C_u
    (7 | q - 1 as 3 | m), C_u o sigma = sigma o C_u and sigma D_s sigma^-1
    = D_{s^2}, so the group has order 21 and kernels and images move with
    the triple.  The three coordinate points are one row of weight 3, the
    lines alpha = 0, beta = 0 and gamma = 0 are the row (0, beta, 1) over
    the mu_7 representatives, of weight 21, and `_rotation_rows` gives the
    rest from the field's log tables, built at the field's first walk.
    """
    yield (0, 0, 0), (1,), 3
    yield (0, 0, 1), mu7_representatives(ctx), 21
    yield from _rotation_rows(ctx)


# bounded like `geometry._field_tables`, whose comment gives the sizes
@lru_cache(maxsize=8)
def _rotation_rows(ctx: FieldCtx) -> tuple:
    """The rows of the order-21 fold with alpha * beta != 0, built once per field.

    In logs (a, b) of (alpha, beta), with n = q - 1 and M = n / 7, mu_7
    moves (a, b) by multiples of (2M, 3M), and normalising a to a mod M
    maps (a, b) to (a - kM, b + 2kM) with k = a // M.  The rotation takes
    (alpha, beta, 1) to (1/beta, alpha/beta, 1), so (a, b) to (-b, a - b)
    and then to (b - a, -a).  Row a < M keeps the b whose pair is the smallest of the
    three normalised pairs.  The normalised first logs, -b mod M and
    (b - a) mod M, depend on b mod M alone, so the seven b of a residue are
    kept or dropped together unless one of them ties with a.  The pairs
    that the rotation fixes are the points an element of order 3 fixes, in
    orbits of 7: three for even m, one for odd m, each the one pair of its
    row of weight 7.  Every other pair stands for 21 points.
    """
    n = ctx.q - 1
    M = n // 7
    exp = ctx._exp2
    out = []
    for a in range(M):
        rows: dict[int, list[int]] = {21: [], 7: []}
        for r in range(M):
            a1, a2 = -r % M, (r - a) % M
            if a1 > a < a2:
                rows[21] += exp[r:n:M]
            elif a1 >= a <= a2:
                for b in range(r, n, M):
                    p1 = (a1, (a - b + 2 * (-b % n - a1)) % n)
                    p2 = (a2, (2 * ((b - a) % n - a2) - a) % n)
                    if (a, b) <= min(p1, p2):
                        rows[7 if p1 == (a, b) else 21].append(exp[b])
        out += (((exp[a], 0, 1), tuple(betas), w) for w, betas in rows.items() if betas)
    return tuple(out)


def _representatives(ctx: FieldCtx, u: int) -> Iterator:
    """(triple, columns) at every point: (0, 1, 0), (1, beta, 0), then (alpha, beta, 1).

    Rotated to (gamma, alpha, beta), the points, taken in order, are the
    triples with leading coordinate 1 in increasing code.  In a row beta
    runs up by one, and beta - 1 differs from beta in the bits below and at
    t, the lowest set bit of beta; by linearity the columns XOR the sum of
    beta's unit shares 0..t.  The columns yielded are the walk's running
    state: a caller that edits them must copy them first.
    """
    carry = list(accumulate(_unit_shares(ctx.m, ctx.modulus, u)[1],
                            lambda acc, unit: list(map(xor, acc, unit))))
    yield (0, 1, 0), derivative_columns((0, 1, 0), u, ctx)
    for al, ga in [(1, 0)] + [(al, 1) for al in range(ctx.q)]:
        cols = derivative_columns((al, 0, ga), u, ctx)
        yield (al, 0, ga), cols
        for be in range(1, ctx.q):
            cols = list(map(xor, cols, carry[(be & -be).bit_length() - 1]))
            yield (al, be, ga), cols


# Lanes of one `_chart_kernels` call: the m = 6 chart is one block, m = 9 takes
# blocks of 8 rows.  At m = 9, u = 0x7, cross_validate took 4.2 s with 2^12
# lanes and 3.7 s with 2^15, which cost 11 MB more peak RSS (2-core Xeon,
# Python 3.11).
CHART_LANES = 1 << 12


def _chart_columns(ctx: FieldCtx, u: int, a0: int, rows: int) -> list[list[int]]:
    """Image bit r of column j at every (alpha, beta, 1) with a0 <= alpha < a0 + rows: [j][r].

    Bit L of a word, its lane, stands for L = (alpha - a0)*q + beta.  The
    columns are F_2-linear in alpha and in beta, so a word is that bit at
    (0, 0, 1) in every lane, XOR the lane mask of each unit share of alpha
    or of beta (`_unit_shares`) that has it.
    """
    m, q, n = ctx.m, ctx.q, 3 * ctx.m
    ones, every_row = (1 << q) - 1, sum(1 << k * q for k in range(rows))
    shares = _unit_shares(m, ctx.modulus, u)
    words = [[ones * every_row if c >> n + r & 1 else 0 for r in range(n)] for c in shares[2][0]]
    for t in range(m):
        lanes = (ones * sum(1 << k * q for k in range(rows) if a0 + k >> t & 1),
                 every_row * sum(1 << b for b in range(q) if b >> t & 1))
        for mask, units in zip(lanes, shares):
            for col, c in zip(words, units[t]):
                for r in range(n):
                    if c >> n + r & 1:
                        col[r] ^= mask
    return words


def _chart_kernels(ctx: FieldCtx, u: int, a0: int, rows: int) -> Callable[[int, int], list[int]]:
    """`_kernel` at every (alpha, beta, 1) of a block of rows, read out where it has >= 2 vectors.

    One GF(2) elimination runs on the words of `_chart_columns`, one lane
    per pair, with `_kernel`'s rule: each column in turn walks its image
    bits from high to low; lanes that have the bit and a pivot there XOR
    the pivot in, lanes with no pivot there keep the column as their pivot
    and drop out.  A lane still in at the end has a kernel vector, its
    combination of tags.  So each lane's basis is `_kernel`'s list.  The
    k-th vectors of all lanes share tag words; only the lanes with two or
    more are kept, lane-major (`_lane_major`).  Returns basis(alpha, beta):
    that list, or [] where it has fewer than 2 vectors.
    """
    q, n = ctx.q, 3 * ctx.m
    full = (1 << rows * q) - 1
    piv = [None] * n  # piv[r]: the image words below bit r and the tag words of its pivots
    has = [0] * n
    found = []  # found[k]: the lanes with a k-th kernel vector and its tag words
    for j, image in enumerate(_chart_columns(ctx, u, a0, rows)):
        tags = [0] * n
        tags[j] = live = full
        for r in range(n - 1, -1, -1):
            hit = image[r] & live
            if not hit:
                continue
            x = hit & has[r]
            if x:
                pimg, ptags = piv[r]
                image[:r] = [c ^ p & x for c, p in zip(image, pimg)]
                tags = [c ^ p & x for c, p in zip(tags, ptags)]
            new = hit ^ x
            if new:
                pimg, ptags = piv[r] or ([0] * r, [0] * n)
                piv[r] = ([p | c & new for p, c in zip(pimg, image)],
                          [p | c & new for p, c in zip(ptags, tags)])
                has[r] |= new
                live ^= new
        for slot in found:
            if not live:
                break
            new = live & ~slot[0]
            slot[0] |= new
            slot[1] = [p | c & new for p, c in zip(slot[1], tags)]
            live ^= new
        if live:
            found.append([live, [c & live for c in tags]])
    two, w = found[1][0] if len(found) > 1 else 0, (n + 7) // 8
    lanes = _lane_major([c & two for _, vecs in found for c in vecs + [0] * (8 * w - n)],
                        rows * q + 7 >> 3)
    width, tag = w * len(found), (1 << n) - 1

    def basis(alpha: int, beta: int) -> list[int]:
        L = (alpha - a0) * q + beta
        v, vecs = int.from_bytes(lanes[width * L:width * (L + 1)], "little"), []
        while v:
            vecs.append(v & tag)
            v >>= 8 * w
        return vecs

    return basis


_BITS = [bytes(b >> s & 1 for b in range(256)) for s in range(8)]  # [s]: byte -> its bit s


def _lane_major(words: list[int], size: int) -> bytearray:
    """8k words of size bytes, lane-major: bit i of lane L at byte k*L + i // 8, bit i % 8."""
    k = len(words) // 8
    out = bytearray(8 * k * size)
    for g in range(k):
        group = [(t, c.to_bytes(size, "little")) for t, c in enumerate(words[8 * g:8 * g + 8]) if c]
        plane = bytearray(8 * size)
        for s, bits in enumerate(_BITS):
            acc = 0
            for t, c in group:
                acc ^= int.from_bytes(c.translate(bits), "little") << t
            plane[s::8] = acc.to_bytes(size, "little")
        out[g::k] = plane
    return out


# -- spectra and the permutation test ----------------------------------------------


def _guard_family(ctx: FieldCtx) -> None:
    if ctx.m % 3 != 0:
        raise ValueError(f"the family needs 3 | m; got m={ctx.m}")


def differential_spectrum(u: int, ctx: FieldCtx, progress=None) -> dict:
    """Exact kernel-dimension histogram over all q^3 - 1 nonzero triples.

    Returns the ``verdicts`` (``is_apn``, ``differential_uniformity``,
    ``max_kernel_dim``) and the ``histogram``, keyed by the dimension as a
    string.  One triple per orbit of the order-21 group, the rows of
    `_orbit_rows`, counts for its weight (3, 7 or 21) times q - 1 triples.
    At a generic (alpha, beta, 1), 2^k = 2 + #roots
    (`geometry.SurfaceEvaluator.kernel_roots`), and an impossible count
    raises AssertionError; any other triple is eliminated.  Building the
    evaluator verifies the identity chain (IdentityError).  progress gets
    the share of the q^2 + q + 1 points decided, once per row and last at
    1.0.
    """
    from .geometry import SurfaceEvaluator  # geometry imports this module

    _guard_family(ctx)
    q = ctx.q
    if ctx.m > SPECTRUM_MAX_M:
        raise ValueError(f"the spectrum is limited to m <= {SPECTRUM_MAX_M} (the order-21 "
                         "fold has 51,132,125 orbits at m = 15); use the sampled witness "
                         "search instead")
    ev = SurfaceEvaluator(u, ctx)
    points = q * q + q + 1
    hist = [0] * (3 * ctx.m + 1)  # points by kernel dimension
    for (al, _, ga), betas, weight in _orbit_rows(ctx):
        # a row of weight 7 is one pair; alpha = 0 has no generic pair
        row = ev.row(al) if al and weight == 21 else None
        for be in betas:
            h, ys = ev.kernel_roots(al, be, row) if ga else (0, None)
            if h:
                count = 2 + len(ys)
                if count & (count - 1):
                    raise AssertionError(f"{count - 2} surface roots at {(al, be, ga)}: "
                                         "2 + #roots is not a power of two")
                k = count.bit_length() - 1
            else:
                k = len(_kernel(derivative_columns((al, be, ga), u, ctx), 3 * ctx.m))
            hist[k] += weight
        if progress is not None:
            progress(sum(hist) / points)
    total = (q - 1) * sum(hist)
    if total != q ** 3 - 1:
        raise AssertionError(f"histogram covers {total} triples, expected {q ** 3 - 1}")
    top = max(k for k, n in enumerate(hist) if n)
    return {"verdicts": {"is_apn": top == 1, "differential_uniformity": 1 << top,
                         "max_kernel_dim": top},
            "histogram": {str(k): (q - 1) * n for k, n in enumerate(hist) if n}}


def _in_image(cols: list[int], w: int, n: int) -> bool:
    """Whether w is an image of the map with these tagged columns.

    One elimination: the tags move up a bit and w joins last as the column
    w << (n + 1) | 1.  It reduces to zero against the pivots of the other
    columns iff w is an image, and then it is the only kernel vector that
    holds the tag 1, the last one found.
    """
    kernel = _kernel([*(c << 1 for c in cols), w << (n + 1) | 1], n + 1)
    return bool(kernel) and kernel[-1] & 1 == 1


def is_permutation(u: int, ctx: FieldCtx) -> bool:
    """True iff C_u is injective on F_q^3.

    C_u is quadratic with C_u(0) = 0, so C_u(v + a) = C_u(v) exactly when
    the map at a sends v to C_u(a).  Scaling a by lambda scales that map's
    image and C_u(a) by lambda^3, the D of `_orbit_rows` moves both by
    diag(1, s^3, s), and the map at sigma(a) is sigma o (map at a) o
    sigma^-1 with C_u(sigma(a)) = sigma(C_u(a)).  So one triple per orbit of
    the order-21 group decides, whatever its weight.  The walk stops at the
    first collision; the rows it walks are built once per field.
    """
    _guard_family(ctx)
    if ctx.m > PERMUTATION_MAX_M:
        raise ValueError(f"permutation check is limited to m <= {PERMUTATION_MAX_M}")
    m = ctx.m
    return not any(_in_image(derivative_columns((al, be, ga), u, ctx),
                             pack_vec(eval_cu(al, be, ga, u, ctx), m), 3 * m)
                   for (al, _, ga), betas, _ in _orbit_rows(ctx) for be in betas)


# -- witness certificates -----------------------------------------------------------


@dataclass
class WitnessCertificate:
    """A verified non-APN witness: a difference triple with >= 4 solutions."""

    m: int
    modulus: int
    u: int
    triple: Triple
    kernel_dim: int
    kernel_basis: list[Triple]
    solutions: list[Triple]
    reverified: dict[str, bool] = field(default_factory=dict)

    def to_json(self) -> dict:
        tri = lambda t: [elem_to_hex(c) for c in t]
        return {
            "schema": WITNESS_SCHEMA,
            "m": self.m,
            "modulus": elem_to_hex(self.modulus),
            "u": elem_to_hex(self.u),
            "triple": tri(self.triple),
            "kernel_dim": self.kernel_dim,
            "kernel_basis": [tri(t) for t in self.kernel_basis],
            "solutions": [tri(t) for t in self.solutions],
            "reverified": dict(self.reverified),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WitnessCertificate":
        """Parse a certificate document; raises ValueError on wrong types."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != WITNESS_SCHEMA:
            raise ValueError(f"unexpected certificate schema {schema!r}")
        for key in ("m", "kernel_dim"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")

        def tri(t) -> tuple[int, ...]:
            if not isinstance(t, list):
                raise ValueError(f"expected a list of hex strings, got {t!r}")
            return tuple(map(_hex, t))

        return cls(
            m=doc["m"],
            modulus=_hex(doc["modulus"]),
            u=_hex(doc["u"]),
            triple=tri(doc["triple"]),
            kernel_dim=doc["kernel_dim"],
            kernel_basis=[tri(t) for t in doc["kernel_basis"]],
            solutions=[tri(t) for t in doc["solutions"]],
            reverified=dict(doc.get("reverified", {})),
        )


def _hex(s) -> int:
    if not isinstance(s, str):
        raise ValueError(f"expected a hex string, got {s!r}")
    return int(s, 16)


def _kernel_solutions(a: Triple, basis: list[int], u: int, ctx: FieldCtx) -> set[int]:
    """The packed span of a kernel basis of k >= 2 vectors at a, checked by `verify_solution`.

    Raises CertificateError when the basis is dependent, when a vector of
    the span does not solve the system or when a is not in it, with the
    flags a certificate records.  0 and a are not passed to
    `verify_solution`, which cannot reject them: in each equation both
    sides reduce to mul(..., 0) or to the same product twice, as the
    `trivial_solutions` identity shows in the algebra.  contains_zero and
    count_is_power_of_two hold by construction.
    """
    m, k = ctx.m, len(basis)
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    if len(span) != 1 << k:
        raise CertificateError("kernel basis is not linearly independent")
    packed = pack_vec(a, m)
    solve = all(verify_solution(a, unpack_vec(w, m), u, ctx) for w in span if w not in (0, packed))
    if not (solve and packed in span):
        flags = dict(zip(_REVERIFIED, (solve, True, packed in span, True)))
        raise CertificateError(f"certificate re-verification failed: {flags}")
    return span


def build_certificate(a: Triple, u: int, ctx: FieldCtx) -> WitnessCertificate | None:
    """Certificate for a triple with kernel dimension >= 2, else None.

    Every invariant is re-established through direct arithmetic before the
    certificate is returned (`_kernel_solutions`); a failure there is a
    hard internal error.
    """
    if a == (0, 0, 0):
        raise ValueError("the difference triple must be nonzero")
    basis = kernel_basis(a, u, ctx)
    if len(basis) < 2:
        return None
    m = ctx.m
    return WitnessCertificate(
        m=m, modulus=ctx.modulus, u=u, triple=a, kernel_dim=len(basis),
        kernel_basis=sorted(unpack_vec(v, m) for v in basis),
        solutions=sorted(unpack_vec(v, m) for v in _kernel_solutions(a, basis, u, ctx)),
        reverified=dict.fromkeys(_REVERIFIED, True))


def verify_certificate(cert: WitnessCertificate) -> list[str]:
    """Re-check a loaded certificate from scratch; returns failure messages.

    The sizes are checked before anything is shifted or expanded, so a
    certificate cannot make the check allocate 2^kernel_dim of anything it
    did not itself supply, and m is bounded before the field is built.
    The basis is independent exactly when its span has 2^kernel_dim
    vectors; no elimination is run.
    """
    if cert.m % 3 or not 3 <= cert.m <= CERT_MAX_M:
        return [f"m={cert.m} is not a multiple of 3 in 3..{CERT_MAX_M}"]
    try:
        ctx = make_field(cert.m, cert.modulus)
    except ValueError as err:
        return [f"bad field: {err}"]
    if not 0 <= cert.u < ctx.q:
        return ["u out of range"]
    n, k = 3 * cert.m, cert.kernel_dim
    if not isinstance(k, int) or not 2 <= k <= n:
        return [f"kernel dimension {k!r} outside 2..{n}"]
    failures = []
    if len(cert.solutions) != 1 << k:
        failures.append("solution count is not 2^kernel_dim")
    if len(cert.kernel_basis) != k:
        failures.append("basis size differs from kernel dimension")
    in_range = lambda v: len(v) == 3 and all(0 <= c < ctx.q for c in v)
    if not all(map(in_range, [cert.triple, *cert.kernel_basis])):
        failures.append("the triple or a basis vector is out of range")
    if failures:
        return failures
    if cert.triple == (0, 0, 0):
        failures.append("the difference triple is zero")
    if (0, 0, 0) not in cert.solutions:
        failures.append("zero solution missing")
    if cert.triple not in cert.solutions:
        failures.append("the difference triple is not listed as a solution")
    for v in cert.solutions:
        if not in_range(v):
            failures.append(f"solution {v} out of range")
        elif not verify_solution(cert.triple, v, cert.u, ctx):
            failures.append(f"solution {v} does not solve the system")
    span = {0}
    for b in cert.kernel_basis:
        packed = pack_vec(b, cert.m)
        span |= {v ^ packed for v in span}
    if len(span) != 1 << k:
        failures.append("basis vectors are linearly dependent")
    if failures:
        return failures
    if span != {pack_vec(v, cert.m) for v in cert.solutions}:
        failures.append("solutions are not the span of the basis")
    return failures


# -- search ------------------------------------------------------------------------


_GAMMA64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def draw_code(seed: int, index: int, bits: int) -> int:
    """Deterministic 64-bit mixing generator; draw index -> triple code.

    Each index consumes ceil(bits/64) mixed words, so draw i depends only
    on the seed and i, never on the draws before it.
    """
    words = (bits + 63) // 64
    v = 0
    for w in range(words):
        v = (v << 64) | _mix64((seed + (index * words + w + 1) * _GAMMA64) & _MASK64)
    return v & ((1 << bits) - 1)


def _first_witness(u: int, ctx: FieldCtx) -> WitnessCertificate | None:
    """The certificate of the witness with the smallest code, or None if there is none.

    Walks the q^2 + q + 1 projective points of `_representatives`.
    """
    for (al, be, ga), cols in _representatives(ctx, u):
        if len(_kernel(cols, 3 * ctx.m)) >= 2:
            cert = build_certificate((ga, al, be), u, ctx)
            if cert is None:
                raise CertificateError("scan reported a witness the kernel basis rejects")
            return cert
    return None


def witness_search(u: int, ctx: FieldCtx, strategy: str = "exhaustive", seed: int = 0,
                   max_draws: int = 10 ** 6) -> dict:
    """Find a triple whose kernel has dimension >= 2, or report not-found.

    Returns the ``verdicts`` (``found``) and the ``certificate`` document
    (None when not found), then ``scanned`` in exhaustive mode, and
    ``generator``, ``seed``, ``max_draws`` and ``draws_used`` in sampled
    mode.  Exhaustive mode walks the projective points in-process
    (`_first_witness`) and returns the witness with the smallest code; its
    not-found proves that no witness exists.  `scanned` counts the
    triples it decided, codes 1..code (q^3 - 1 if none).  Sampled mode
    draws triples from the seeded generator; not-found there is merely
    inconclusive.  When the budget covers the field (q^3 - 1 <= max_draws,
    m <= WITNESS_MAX_M), the exhaustive walk runs first, and if it proves
    there is no witness the draws are skipped: they would all miss, so the
    not-found document is the same, with draws_used = max_draws.
    """
    _guard_family(ctx)
    m, q = ctx.m, ctx.q
    if strategy == "exhaustive":
        if m > WITNESS_MAX_M:
            raise ValueError(f"exhaustive witness search needs m <= {WITNESS_MAX_M}; use --sampled")
        cert = _first_witness(u, ctx)
        # codes 1..code are decided, not eliminated; zero never is
        return _search_doc(cert, scanned=encode_triple(cert.triple, m) if cert else q ** 3 - 1)
    if strategy == "sampled":
        if max_draws < 1:
            raise ValueError(f"max_draws must be at least 1, got {max_draws}")
        bits = 3 * m
        sampled = {"generator": "splitmix64", "seed": seed, "max_draws": max_draws}
        if m <= WITNESS_MAX_M and q ** 3 - 1 <= max_draws and _first_witness(u, ctx) is None:
            return _search_doc(None, **sampled, draws_used=max_draws)
        for i in range(max_draws):
            code = draw_code(seed, i, bits)
            if code == 0:
                continue
            cert = build_certificate(decode_triple(code, m), u, ctx)
            if cert is not None:
                return _search_doc(cert, **sampled, draws_used=i + 1)
        return _search_doc(None, **sampled, draws_used=max_draws)
    raise ValueError(f"unknown strategy {strategy!r}")


def _search_doc(cert: WitnessCertificate | None, **fields) -> dict:
    return {"verdicts": {"found": cert is not None},
            "certificate": cert.to_json() if cert else None, **fields}
