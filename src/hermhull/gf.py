"""Exact arithmetic in small finite fields GF(p^m).

Elements are plain ints in ``[0, p^m)``: the base-p digits of the int are
the coefficients of the element in the polynomial basis (low degree first).
Zero and one are therefore always ``0`` and ``1``.  A :class:`FieldContext`
carries the modulus, discrete-log tables and (for even extension degree)
the index-2 subfield structure used by the Hermitian machinery: the
conjugation x -> x^q, trace, norm, and the norm-equation solver a^(q+1) = x.

Default moduli are Conway polynomials, computed on demand, so that the
canonical primitive element matches the one used by computer-algebra
systems (MAGMA, GAP, Sage).  User-supplied moduli are accepted and are
verified to be irreducible with a primitive root.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

# Pairwise lookup tables (mul, and add in odd characteristic) are built for
# fields up to this order; larger fields use digit/log arithmetic (still
# vectorised).  Addition in characteristic 2 is XOR at every order.
_TABLE_LIMIT = 1024

# Hard ceiling from the artifact contract: no fields beyond 2^16 elements.
_ORDER_LIMIT = 1 << 16


class ReducibleModulusError(ValueError):
    """The supplied modulus is not irreducible over GF(p)."""


class NotPrimitiveError(ValueError):
    """The modulus is irreducible but its root does not generate GF(p^m)^*."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e for a prime power q; ValueError otherwise."""
    fs = prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = fs[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


# ----------------------------------------------------------------------
# Polynomials over the prime field GF(p): coefficient tuples, low degree
# first, no trailing zeros (the zero polynomial is the empty tuple).
# Only what modulus verification and the Conway search need.
# ----------------------------------------------------------------------

def _pf_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pf_add(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _pf_trim([( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) ) % p
                     for i in range(n)])


def _pf_mul(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pf_trim(out)


def _pf_mod(p: int, a: Sequence[int], f: Sequence[int]) -> tuple[int, ...]:
    """a mod f, with f monic."""
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * fi) % p
        a.pop()
    return _pf_trim(a)


def _pf_mulmod(p, a, b, f):
    return _pf_mod(p, _pf_mul(p, a, b), f)


def _pf_powmod(p: int, a: Sequence[int], e: int, f: Sequence[int]) -> tuple[int, ...]:
    r: tuple[int, ...] = (1,)
    a = _pf_mod(p, a, f)
    while e:
        if e & 1:
            r = _pf_mulmod(p, r, a, f)
        a = _pf_mulmod(p, a, a, f)
        e >>= 1
    return r


def _pf_gcd(p, a, b):
    a, b = _pf_trim(a), _pf_trim(b)
    while b:
        # make b monic before reduction
        inv = pow(b[-1], p - 2, p)
        b = _pf_trim([c * inv % p for c in b])
        a, b = b, _pf_mod(p, a, b)
    return a


def _is_irreducible(p: int, f: Sequence[int]) -> bool:
    """Rabin test for a monic polynomial f over GF(p)."""
    m = len(f) - 1
    if m < 1:
        return False
    x = (0, 1)
    # x^(p^m) == x (mod f)
    if _pf_powmod(p, x, p ** m, f) != _pf_mod(p, x, f):
        return False
    for r in prime_factors(m):
        h = _pf_add(p, _pf_powmod(p, x, p ** (m // r), f), _pf_trim([-c % p for c in x]))
        if _pf_gcd(p, f, h) != (1,):
            return False
    return True


def _root_is_primitive(p: int, f: Sequence[int]) -> bool:
    """Does x generate the multiplicative group of GF(p)[x]/(f)?"""
    m = len(f) - 1
    n = p ** m - 1
    x = (0, 1)
    if _pf_powmod(p, x, n, f) != (1,):
        return False
    return all(_pf_powmod(p, x, n // r, f) != (1,) for r in prime_factors(n))


@functools.lru_cache(maxsize=None)
def conway_polynomial(p: int, m: int) -> tuple[int, ...]:
    """Conway polynomial C_{p,m} as a coefficient tuple, low degree first.

    Candidates x^m + sum (-1)^(m-i) b_i x^i are scanned in lexicographic
    order of the word (b_{m-1}, ..., b_0); the first primitive polynomial
    compatible with C_{p,d} for every proper divisor d of m wins.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    divisors = [d for d in range(1, m) if m % d == 0]
    subs = {d: conway_polynomial(p, d) for d in divisors}
    for word in itertools.product(range(p), repeat=m):
        coeffs = [0] * (m + 1)
        coeffs[m] = 1
        for i in range(m):
            b = word[m - 1 - i]  # word is (b_{m-1}, ..., b_0)
            coeffs[i] = (b if (m - i) % 2 == 0 else -b) % p
        f = tuple(coeffs)
        if not _is_irreducible(p, f):
            continue
        if not _root_is_primitive(p, f):
            continue
        ok = True
        for d in divisors:
            gamma = _pf_powmod(p, (0, 1), (p ** m - 1) // (p ** d - 1), f)
            # evaluate C_{p,d} at gamma inside GF(p)[x]/(f)
            acc: tuple[int, ...] = ()
            for c in reversed(subs[d]):
                acc = _pf_mulmod(p, acc, gamma, f)
                if c:
                    acc = _pf_add(p, acc, (c,))
            if acc != ():
                ok = False
                break
        if ok:
            return f
    raise RuntimeError(f"no Conway polynomial found for ({p}, {m})")  # unreachable


# ----------------------------------------------------------------------
# Field contexts
# ----------------------------------------------------------------------

_CONTEXT_CACHE: dict[tuple[int, int, tuple[int, ...]], "FieldContext"] = {}


class FieldContext:
    """A concrete finite field GF(p^m); immutable after construction.

    Do not instantiate directly: use :func:`make_field`, which caches
    contexts so that the subfield of GF(q^2) is the same object as an
    independently requested GF(q).

    ``zlog`` and ``zexp`` multiply in the log domain with zero included:
    x * y = zexp[zlog[x] + zlog[y]] for all x, y, and zexp[zlog[x] + j] =
    x * alpha^j for 0 <= j < order - 1.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], _token=None):
        if _token is not _MAKE_TOKEN:
            raise TypeError("use make_field() to construct FieldContext")
        self.p = p
        self.m = m
        self.modulus = modulus  # monic, degree m, low degree first, length m+1
        self.order = p ** m
        self._pp = tuple(p ** i for i in range(m))  # digit place values

        # alpha = the class of x (for m == 1 the root of the linear modulus)
        self.alpha = p if m > 1 else (-modulus[0]) % p

        self._build_log_tables()
        self._build_arith_tables()

        self.subfield: Optional[FieldContext] = None
        self.q: Optional[int] = None
        if m % 2 == 0:
            self._attach_subfield()

    # -- construction helpers ------------------------------------------

    def _build_log_tables(self):
        p, m, f = self.p, self.m, self.modulus
        order = self.order
        exp = np.zeros(order - 1, dtype=np.int32)
        log = np.full(order, -1, dtype=np.int32)
        cur = (1,)
        x = (0, 1) if m > 1 else ((self.alpha,) if self.alpha else ())
        for i in range(order - 1):
            v = self._encode_digits(cur)
            exp[i] = v
            if log[v] != -1:
                raise NotPrimitiveError(
                    f"root of modulus {list(f)} over GF({p}) is not primitive")
            log[v] = i
            cur = _pf_mulmod(p, cur, x, f)
        if cur != (1,):
            raise NotPrimitiveError(
                f"root of modulus {list(f)} over GF({p}) is not primitive")
        self.exp = exp
        self.log = log

    def _encode_digits(self, coeffs: Sequence[int]) -> int:
        return sum(c * self._pp[i] for i, c in enumerate(coeffs))

    def _build_arith_tables(self):
        order, p, m = self.order, self.p, self.m
        # digit matrix: row v = base-p digits of v (int32: p may exceed 2^15)
        vs = np.arange(order)
        digs = np.empty((order, m), dtype=np.int32)
        for i in range(m):
            digs[:, i] = (vs // (p ** i)) % p
        self._digits = digs
        self._pw = np.array(self._pp, dtype=np.int64)

        # log-domain products: x*y = zexp[zlog[x] + zlog[y]].  zlog[0] is a
        # sentinel above every sum of two true logs, and zexp is exp twice
        # over followed by a zero tail long enough for any sum that involves
        # the sentinel, so no mask and no modulo are needed
        n1 = order - 1
        self.zlog = self.log.copy()
        self.zlog[0] = 2 * n1
        self.zexp = np.zeros(4 * n1 + 1, dtype=np.int32)
        self.zexp[:2 * n1] = np.tile(self.exp, 2)

        self._add_t = None
        self._mul_t = None
        if order <= _TABLE_LIMIT:
            if p != 2:
                s = (digs[:, None, :] + digs[None, :, :]) % p
                self._add_t = (s @ self._pw).astype(np.int32)
            lg = self.log
            a = np.arange(order)
            la, lb = np.meshgrid(lg, lg, indexing="ij")
            prod = self.exp[(la + lb) % (order - 1)]
            prod[0, :] = 0
            prod[:, 0] = 0
            self._mul_t = prod.astype(np.int32)

        negd = (-digs) % p
        self._neg_t = (negd @ self._pw).astype(np.int32)
        inv = np.zeros(order, dtype=np.int32)
        inv[self.exp] = self.exp[(-(np.arange(order - 1))) % (order - 1)]
        self._inv_t = inv  # inv[0] stays 0; scalar inv() rejects 0

    def _attach_subfield(self):
        q = self.p ** (self.m // 2)
        sub = make_field(self.p, self.m // 2)
        # embedding image of the subfield's primitive element: a root of the
        # subfield modulus inside this field, preferring alpha^(q+1) (which
        # is a root whenever both moduli are Conway polynomials)
        cand = self.alpha_pow(q + 1)
        gamma = None
        if self._eval_prime_poly(sub.modulus, cand) == 0:
            gamma = cand
        else:
            roots = [v for v in range(self.order)
                     if self._eval_prime_poly(sub.modulus, v) == 0]
            gamma = min(roots, key=lambda v: self.log_of(v) if v else -1)
        emb = np.zeros(sub.order, dtype=np.int32)
        gpow = [1]
        for _ in range(sub.m - 1):
            gpow.append(self.mul(gpow[-1], gamma))
        for s in range(sub.order):
            acc = 0
            for i in range(sub.m):
                d = (s // sub._pp[i]) % self.p
                if d:
                    acc = self.add(acc, self.mul(d % self.p, gpow[i]))
            emb[s] = acc
        proj = np.full(self.order, -1, dtype=np.int32)
        proj[emb] = np.arange(sub.order)
        self.subfield = sub
        self.q = q
        self._emb_t = emb
        self._proj_t = proj
        # conjugation table x -> x^q
        powq = np.zeros(self.order, dtype=np.int32)
        idx = (np.arange(self.order - 1) * q) % (self.order - 1)
        powq[self.exp] = self.exp[idx]
        self._powq_t = powq

    def _eval_prime_poly(self, coeffs: Sequence[int], v: int) -> int:
        """Evaluate a GF(p)[x] polynomial at a field element (Horner)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, v), c % self.p)
        return acc

    # -- scalar arithmetic ---------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self._add_t is not None:
            return int(self._add_t[x, y])
        if self.p == 2:
            return int(x) ^ int(y)
        return int(((self._digits[x] + self._digits[y]) % self.p) @ self._pw)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        return int(self._neg_t[x])

    def mul(self, x: int, y: int) -> int:
        if self._mul_t is not None:
            return int(self._mul_t[x, y])
        if x == 0 or y == 0:
            return 0
        return int(self.exp[(int(self.log[x]) + int(self.log[y])) % (self.order - 1)])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self._inv_t[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return int(self.exp[(int(self.log[x]) * e) % (self.order - 1)])

    def alpha_pow(self, e: int) -> int:
        return int(self.exp[e % (self.order - 1)])

    def log_of(self, x: int) -> int:
        """Discrete log base alpha; -1 for the zero element."""
        return int(self.log[x])

    # -- vectorised arithmetic on int arrays ----------------------------

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._add_t is not None:
            return self._add_t[a, b]
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return (((self._digits[a] + self._digits[b]) % self.p) @ self._pw).astype(np.int32)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul_t is not None:
            return self._mul_t[a, b]
        return self.zexp[self.zlog[a] + self.zlog[b]]

    @functools.cached_property
    def mul_matrices(self) -> np.ndarray:
        """(order, m, m) float64: row r of entry x is the digit vector of
        x * p^r, so digits(y) @ mul_matrices[x] = digits(x * y) (mod p).

        Multiplication by x is GF(p)-linear on digit vectors; these are its
        matrices in the polynomial basis.  Built once, on first use.
        """
        basis = np.array(self._pp, dtype=np.int32)
        xs = np.arange(self.order, dtype=np.int32)
        prods = self.mul_arr(xs[:, None], basis[None, :])
        return self._digits[prods].astype(np.float64)

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        return self._neg_t[a]

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("0 has no inverse")
        return self._inv_t[a]

    def pow_q_arr(self, a: np.ndarray) -> np.ndarray:
        self._require_quadratic()
        return self._powq_t[a]

    # -- quadratic-extension structure -----------------------------------

    def _require_quadratic(self):
        if self.subfield is None:
            raise ValueError(
                f"GF({self.p}^{self.m}) has no declared index-2 subfield")

    def frobenius_q(self, x: int) -> int:
        """Conjugation x -> x^q over the index-2 subfield GF(q)."""
        self._require_quadratic()
        return int(self._powq_t[x])

    def in_subfield(self, x: int) -> bool:
        self._require_quadratic()
        return int(self._powq_t[x]) == x

    def is_norm(self, x: int) -> bool:
        """Is x a value of the norm map y -> y^(q+1)?  True iff x in GF(q)^*."""
        self._require_quadratic()
        return x != 0 and int(self._powq_t[x]) == x

    def solve_norm(self, x: int) -> int:
        """The canonical a with a^(q+1) = x, for x in GF(q)^*; see
        :meth:`solve_norm_arr`."""
        return int(self.solve_norm_arr(np.array([x]))[0])

    def solve_norm_arr(self, x: np.ndarray) -> np.ndarray:
        """Entry-wise canonical a with a^(q+1) = x, for x in GF(q)^*.

        Deterministic choice: a = alpha^j with j the smallest nonnegative
        solution of (q+1) j = log(x)  (mod q^2 - 1).
        """
        self._require_quadratic()
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.order
                       or (x == 0).any() or (self._powq_t[x] != x).any()):
            raise ValueError("norm equation a^(q+1) = x needs x in GF(q)^*")
        q = self.q
        j = (self.log[x] // (q + 1)) % (q - 1)
        bad = self.exp[(j * (q + 1)) % (self.order - 1)] != x
        if bad.any():
            raise RuntimeError(f"norm solution {self.exp[j][bad][0]} does not "
                               f"satisfy a^(q+1) = {x[bad][0]}")
        return self.exp[j]

    def to_subfield(self, x: int) -> int:
        """Rewrite a subfield-valued element in the subfield's own context."""
        self._require_quadratic()
        s = int(self._proj_t[x])
        if s < 0:
            raise ValueError(f"element {x} is not in the subfield GF({self.q})")
        return s

    def from_subfield(self, s: int) -> int:
        self._require_quadratic()
        return int(self._emb_t[s])

    def embed_arr(self, a: np.ndarray) -> np.ndarray:
        self._require_quadratic()
        return self._emb_t[a]

    def subfield_decomposition(self) -> np.ndarray:
        """(order, 2) table: x = c0 + c1*alpha with c0, c1 in the subfield.

        Entries are elements of the subfield's own context.
        """
        self._require_quadratic()
        dec = getattr(self, "_dec_t", None)
        if dec is None:
            sub = self.subfield
            dec = np.zeros((self.order, 2), dtype=np.int32)
            for s0 in range(sub.order):
                e0 = int(self._emb_t[s0])
                for s1 in range(sub.order):
                    x = self.add(e0, self.mul(int(self._emb_t[s1]), self.alpha))
                    dec[x, 0] = s0
                    dec[x, 1] = s1
            self._dec_t = dec
        return dec

    def project_arr(self, a: np.ndarray) -> np.ndarray:
        self._require_quadratic()
        out = self._proj_t[a]
        if np.any(out < 0):
            raise ValueError("array has entries outside the subfield")
        return out

    # -- misc -------------------------------------------------------------

    def describe(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


_MAKE_TOKEN = object()


def make_field(p: int, m: int, modulus: Optional[Iterable[int]] = None) -> FieldContext:
    """Build (or fetch from cache) the field GF(p^m).

    ``modulus`` is a coefficient list, low degree first, length m+1, monic.
    When omitted, the Conway polynomial for (p, m) is used.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** m > _ORDER_LIMIT:
        raise ValueError(f"fields beyond {_ORDER_LIMIT} elements are unsupported")
    if modulus is None:
        mod = conway_polynomial(p, m)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
    key = (p, m, mod)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        if not _is_irreducible(p, mod):
            raise ReducibleModulusError(
                f"modulus {list(mod)} is reducible over GF({p})")
        if not _root_is_primitive(p, mod):
            raise NotPrimitiveError(
                f"modulus {list(mod)} is irreducible but its root is not primitive")
        ctx = FieldContext(p, m, mod, _token=_MAKE_TOKEN)
        _CONTEXT_CACHE[key] = ctx
    return ctx


def quadratic_field(q: int, field: Optional[FieldContext] = None) -> FieldContext:
    """GF(q^2) with its canonical GF(q) subfield, for a prime power q.

    A given ``field`` overrides the default context; it must still be a
    quadratic extension with q^2 elements.
    """
    if field is not None:
        if field.order != q * q or field.subfield is None:
            raise ValueError(f"field override must be a quadratic extension "
                             f"with {q * q} elements")
        return field
    p, e = prime_power(q)
    return make_field(p, 2 * e)
