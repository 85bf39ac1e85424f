"""Exact arithmetic in GF(p^k) for small prime powers.

An element of GF(p^k) is an int in range(p**k).  Its base-p digits are the
coefficients of the polynomial-basis representation: digit i is the
coefficient of g^i, where g is the residue class of the generator modulo
the chosen irreducible polynomial.  For k = 1 this degenerates to the
integers mod p.  The numeric order 0, 1, ..., q-1 is the canonical element
order used by every enumeration in this package (for GF(4) it reads
0, 1, g, g+1), so any routine that picks a "first" witness is
deterministic.

Moduli are given as coefficient tuples in ascending degree, so
(1, 1, 1) means g^2 + g + 1.  Construction validates irreducibility by
brute force over all candidate divisors, which is cheap at the supported
orders (q <= 2^16).
"""

from __future__ import annotations

from itertools import product

from .errors import DivisionByZero, NoDefaultModulus, NotPrime, ReducibleModulus

MAX_ORDER = 1 << 16

# full q x q operation tables are built below this order
_TABLE_LIMIT = 256

DEFAULT_MODULI = {
    4: (1, 1, 1),  # g^2 + g + 1
    8: (1, 1, 0, 1),  # g^3 + g + 1
    9: (2, 2, 1),  # g^2 + 2g + 2
    16: (1, 1, 0, 0, 1),  # g^4 + g + 1
    25: (2, 4, 1),  # g^2 + 4g + 2
    27: (1, 2, 0, 1),  # g^3 + 2g + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_rem(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo monic b, coefficients ascending, over F_p."""
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c:
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    while r and r[-1] % p == 0:
        r.pop()
    return tuple(c % p for c in r)


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=deg):
            candidate = tail + (1,)
            if not _poly_rem(modulus, candidate, p):
                return False
    return True


class Field:
    """GF(p^k) with int-encoded elements and exact table arithmetic."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        # p and k are bounded before the trial division and the power
        if p > MAX_ORDER:
            raise ValueError(f"characteristic {p} exceeds the supported field order {MAX_ORDER}")
        if not _is_prime(p):
            raise NotPrime(p)
        if k < 1:
            raise ValueError("extension degree k must be >= 1")
        if k > MAX_ORDER.bit_length():
            raise ValueError(f"field order {p}^{k} exceeds the supported limit {MAX_ORDER}")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported limit {MAX_ORDER}")
        if k == 1:
            if modulus is not None:
                raise ValueError("a modulus only applies to extension fields (k > 1)")
            self.modulus = None
        else:
            if modulus is None:
                if q not in DEFAULT_MODULI:
                    raise NoDefaultModulus(q)
                modulus = DEFAULT_MODULI[q]
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k, coefficients ascending")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(modulus)
            self.modulus = modulus
        self.p = p
        self.k = k
        self.q = q
        if q <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._add_table = None
            self._mul_table = None
            self._neg_table = None
            self._inv_table = None

    # construction helpers

    def _build_tables(self):
        q = self.q
        add = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        mul = [[self._mul_raw(a, b) for b in range(q)] for a in range(q)]
        neg = [0] * q
        inv = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if a and mul[a][b] == 1:
                    inv[a] = b
        self._add_table = add
        self._mul_table = mul
        self._neg_table = neg
        self._inv_table = inv

    def _add_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.k):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        p = self.p
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_rem(tuple(prod), self.modulus, p)
        out = 0
        for c in reversed(rem):
            out = out * p + c
        return out

    # arithmetic

    def add(self, a: int, b: int) -> int:
        t = self._add_table
        if t is not None:
            return t[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        t = self._neg_table
        if t is not None:
            return t[a]
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.k):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        if t is not None:
            return t[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero()
        t = self._inv_table
        if t is not None:
            return t[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # enumeration and representation

    def elements(self) -> range:
        """All q elements in canonical order."""
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, ascending degree, length k."""
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for {self!r}")
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    # literal text, e.g. "0", "2", "g", "g+1", "2*g^2+g+2"; freepoly.parse_literal
    # reads it back

    def format_literal(self, a: int) -> str:
        cs = self.coeffs(a)
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("g" if c == 1 else f"{c}*g")
            else:
                parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
        return "+".join(parts) if parts else "0"

    # identity and hashing: two fields are interchangeable iff p, k, modulus agree

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


_FIELD_CACHE: dict[tuple, Field] = {}


def field_of_order(q: int) -> Field:
    """The field of order q with the default modulus, cached.

    Only an int order is read: 2.0 and True hash as 2 and 1, so the type
    is checked before the cache lookup, which would otherwise accept a
    float equal to an order already cached."""
    if type(q) is not int:
        raise TypeError(f"field order must be an int, not {type(q).__name__}")
    key = ("order", q)
    f = _FIELD_CACHE.get(key)
    if f is None:
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported limit {MAX_ORDER}")
        p, k = _factor_prime_power(q)
        f = Field(p, k)
        _FIELD_CACHE[key] = f
    return f


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrime(q)
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            n = q
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise NotPrime(q)
            return p, k
        p += 1
    return q, 1
