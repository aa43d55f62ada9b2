"""Polynomial helpers over a FieldContext.

Polynomials are tuples of field elements (ints), low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Everything here is
exact and small-scale: products of linear factors, derivatives, evaluation,
root multiplicities, powers modulo a polynomial.  ``gf`` runs its modulus
checks, Conway search and log tables here too, over GF(p) as plain ints
mod p, before GF(p)'s own context exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .gf import FieldContext

Poly = tuple


def trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def add(F: FieldContext, a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim([F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                 for i in range(n)])


def neg(F: FieldContext, a: Poly) -> Poly:
    return tuple(F.neg(c) for c in a)


def scale(F: FieldContext, a: Poly, s: int) -> Poly:
    if s == 0:
        return ()
    return tuple(F.mul(c, s) for c in a)


def mul(F: FieldContext, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return trim(out)


def divmod_(F: FieldContext, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = degree(b), b[-1]
    ilead = F.inv(lead)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = F.mul(a[-1], ilead)
        k = len(a) - 1 - db
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] = F.sub(a[k + i], F.mul(c, bi))
        while a and a[-1] == 0:
            a.pop()
    return trim(q), trim(a)


def powmod(F: FieldContext, a: Poly, e: int, f: Poly) -> Poly:
    """a^e modulo f, for e >= 0 and f of degree >= 1.

    Left to right over the bits of e, so each step multiplies by a itself:
    cheap when a is short, as x is.
    """
    r: Poly = (1,)
    for bit in bin(e)[2:]:
        r = divmod_(F, mul(F, r, r), f)[1]
        if bit == "1":
            r = divmod_(F, mul(F, r, a), f)[1]
    return r


def gcd(F: FieldContext, a: Poly, b: Poly) -> Poly:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod_(F, a, b)[1]
    if a:
        a = scale(F, a, F.inv(a[-1]))  # monic
    return a


def evaluate(F: FieldContext, f: Poly, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def derivative(F: FieldContext, f: Poly) -> Poly:
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(i % F.p, f[i]))
    return trim(out)


def from_roots(F: FieldContext, roots: Sequence[int]) -> Poly:
    """Monic product of (x - r) over the given roots."""
    f: Poly = (1,)
    for r in roots:
        f = mul(F, f, (F.neg(r), 1))
    return f


def root_multiplicity(F: FieldContext, f: Poly, r: int) -> int:
    """Multiplicity of r as a root of f (0 if not a root)."""
    if not f:
        raise ValueError("zero polynomial has roots everywhere")
    k = 0
    lin = (F.neg(r), 1)
    while True:
        q, rem = divmod_(F, f, lin)
        if rem:
            return k
        k += 1
        f = q
        if not f:
            return k
