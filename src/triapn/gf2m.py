"""Exact arithmetic in binary extension fields F_{2^m}.

Field elements are plain ints: bit i holds the coefficient of t^i in the
polynomial-basis representation, so 0 and 1 are the field's zero and one
and addition is xor.  A FieldCtx pins the extension degree m and an
irreducible modulus; it is immutable after construction and safe to share
across workers.  For small fields, multiplication and powers read
log/exp tables; otherwise they multiply by shift-and-reduce, powers by
square-and-multiply.  `make_field` builds each field once per process; the
default modulus of each m (`default_modulus`) and the smallest non-7th power
of each field (`smallest_non_seventh_power`, the CLI's `--u auto`) are also
found once and remembered.  Not constant-time; not for cryptographic use.
"""

from __future__ import annotations

from functools import cache, lru_cache

# Fields up to this degree get log/exp tables built at construction; the
# build multiplies by the generator one byte of an element at a time, so at most 16.
_TABLE_LIMIT = 16


def _gf2_mod(a: int, f: int) -> int:
    """Reduce the GF(2) polynomial a modulo f."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _gf2_mulmod(a: int, b: int, f: int) -> int:
    """Multiply two GF(2) polynomials and reduce modulo f."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return _gf2_mod(r, f)


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n stays desk-scale here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as a bit pattern."""
    m = f.bit_length() - 1
    if m < 1 or not f & 1:
        # x divides f, or f is constant
        return f == 3 if m == 1 else False
    if m == 1:
        return True  # x+1 (f=3); f=2 (x) was excluded above
    # x^(2^m) == x mod f, and gcd(x^(2^(m/p)) - x, f) == 1 for prime p | m
    xq = 2
    checkpoints = {m // p for p in _prime_factors(m)}
    for i in range(1, m + 1):
        xq = _gf2_mulmod(xq, xq, f)
        if i in checkpoints:
            if _gf2_gcd(xq ^ 2, f) != 1:
                return False
    return xq == 2


@cache
def default_modulus(m: int) -> int:
    """Irreducible degree-m polynomial with the smallest integer encoding.

    Remembered per m: the search runs Rabin tests on every candidate.
    """
    for enc in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(enc):
            return enc
    raise ValueError(f"no irreducible polynomial of degree {m}")  # unreachable


class FieldCtx:
    """A concrete model of F_{2^m}: degree, modulus bit pattern, q = 2^m.

    Do not mutate after construction.  Instances compare and hash by
    (m, modulus).
    """

    def __init__(self, m: int, modulus: int):
        if m < 2:
            raise ValueError(f"extension degree must be >= 2, got {m}")
        if modulus < 0:
            raise ValueError(f"modulus {modulus:#x} is negative")
        if modulus.bit_length() - 1 != m:
            raise ValueError(
                f"modulus {modulus:#x} has degree {modulus.bit_length() - 1}, expected {m}"
            )
        if not modulus & 1:
            raise ValueError(f"modulus {modulus:#x} has zero constant term")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self._mask = self.q - 1
        self._log: list[int] | None = None
        self._exp2: list[int] | None = None
        self.generator: int | None = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        g = self._find_generator()
        n = self.q - 1
        # v -> v*g is GF(2)-linear: for v < 2^16 it is lo[v & 255] ^ hi[v >> 8],
        # xors of the columns t^j*g, each one doubling of the last
        cols = [g]
        for _ in range(15):
            c = cols[-1] << 1
            cols.append(c ^ self.modulus if c >> self.m else c)
        lo, hi = [0] * 256, [0] * 256
        for k in range(1, 256):
            j = (k & -k).bit_length() - 1
            lo[k] = lo[k & k - 1] ^ cols[j]
            hi[k] = hi[k & k - 1] ^ cols[j + 8]
        exp = [1] * n
        v = 1
        for i in range(1, n):
            exp[i] = v = lo[v & 255] ^ hi[v >> 8]
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = g
        self._log = log
        self._exp2 = exp + exp  # doubled to skip the mod in mul

    def _find_generator(self) -> int:
        n = self.q - 1
        cofactors = [n // p for p in _prime_factors(n)]
        for g in range(2, self.q):
            # the tables are not built yet, so pow multiplies by shift-and-reduce
            if all(self.pow(g, c) != 1 for c in cofactors):
                return g
        raise ValueError("no generator found")  # unreachable for a field

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp2[self._log[a] + self._log[b]]
        return _gf2_mulmod(a, b, self.modulus)

    def square(self, a: int) -> int:
        if a == 0:
            return 0
        if self._log is not None:
            return self._exp2[2 * self._log[a]]
        return _gf2_mulmod(a, a, self.modulus)

    def pow(self, a: int, e: int) -> int:
        """a^e, from the tables or by square-and-multiply; pow(a, 0) = 1 for every a."""
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp2[self._log[a] * e % self._mask]
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.square(a)
            e >>= 1
        return r

    def elements(self) -> range:
        """All q elements in increasing bit-encoding order."""
        return range(self.q)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#x})"


def make_field(m: int, modulus: int | None = None) -> FieldCtx:
    """F_{2^m} with the given modulus, or the smallest-encoding default.

    Each field is built once and shared; a construction that raises is not
    remembered.
    """
    if m < 2:
        raise ValueError(f"extension degree must be >= 2, got {m}")
    if modulus is None:
        modulus = default_modulus(m)
    return _field(m, modulus)


# At most 8 fields.  One field's log/exp tables take 2.6 MiB at m = 15 and
# 5.2 MiB at m = 16, the largest m that has them (tracemalloc), so the cache
# holds at most about 42 MiB; a field without tables takes a few hundred bytes.
@lru_cache(maxsize=8)
def _field(m: int, modulus: int) -> FieldCtx:
    return FieldCtx(m, modulus)


def is_seventh_power(u: int, ctx: FieldCtx) -> bool:
    """True iff u is a 7th power in F_q*, i.e. u^((q-1)/7) = 1.

    Requires u != 0 and 3 | m: otherwise 7 does not divide q-1 and every
    element is trivially a 7th power, so the test would say nothing.
    """
    if u == 0:
        raise ValueError("0 is excluded from the 7th-power residue test")
    if ctx.m % 3 != 0:
        raise ValueError(f"3 must divide m, got m={ctx.m}")
    return ctx.pow(u, (ctx.q - 1) // 7) == 1


def mu7_representatives(ctx: FieldCtx) -> list[int]:
    """g^i for i < (q-1)/7: one element of each coset of mu_7 in F_q* (requires 3 | m).

    mu_7 is generated by g^((q-1)/7), so the cosets g^i*mu_7 for these i
    are distinct and cover F_q*.
    """
    if ctx.m % 3 != 0:
        raise ValueError(f"3 must divide m, got m={ctx.m}")
    return [ctx.pow(ctx.generator, i) for i in range((ctx.q - 1) // 7)]


# At most 8 fields, the bound of `_field`.  The CLI's fields come from
# `make_field`, so this cache holds the same objects and no extra tables.
@lru_cache(maxsize=8)
def smallest_non_seventh_power(ctx: FieldCtx) -> int:
    """Smallest-encoding u in F_q* that is not a 7th power (requires 3 | m).

    Remembered per field (equal fields share the answer); a call that raises
    is not remembered.
    """
    if ctx.m % 3 != 0:
        raise ValueError(f"3 must divide m, got m={ctx.m}")
    for u in range(2, ctx.q):
        if not is_seventh_power(u, ctx):
            return u
    raise ValueError("all elements are 7th powers")  # unreachable for 3 | m


def elem_to_hex(v: int) -> str:
    return f"0x{v:X}"

