"""Exact polynomials over the integers, for the certified root tests.

A polynomial is a list of Python ints, lowest degree first.  Everything here
is exact: Descartes' rule of signs on the coefficients, Taylor shifts and
affine substitutions, gcds (a modular coprimality test first, then the
primitive remainder sequence), and Vincent-Collins-Akritas root isolation.

``polynomials`` imports this module on first use, not at package import, so
a run that never asks a root question does not load it (without a bytecode
cache, every interpreter compiles each module it imports).
"""

from __future__ import annotations

import itertools
import math
import operator

# A prime for the modular coprimality test that spares most exact gcds
PRIME = (1 << 61) - 1


def trimmed(a: list[int]) -> list[int]:
    """a without its zero leading (highest-degree) coefficients."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def variations(a: list[int]) -> int:
    """Sign changes along the coefficients, zeros skipped.  By Descartes'
    rule this bounds the number of positive roots, with the same parity."""
    signs = [c > 0 for c in a if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def taylor_shift(a: list[int], p: int) -> list[int]:
    """Coefficients of a(t + p): each pass is a suffix Horner sum."""
    b = list(a)
    if p == 0:
        return b
    step = operator.add if p == 1 else (lambda acc, c: c + p * acc)
    for i in range(len(b) - 1):
        b[i:] = list(itertools.accumulate(reversed(b[i:]), step))[::-1]
    return b


def affine_image(a: list[int], lo: int, hi: int, den: int) -> list[int]:
    """b(x) = den**n a((lo + (hi - lo) x) / den).  The roots of a in
    (lo/den, hi/den) become those of b in (0, 1); with hi = lo + 1 (or
    lo - 1) those in (lo/den, inf) (or (-inf, lo/den)) become those of b in
    (0, inf)."""
    n = len(a) - 1
    b = taylor_shift([c * den ** (n - k) for k, c in enumerate(a)], lo)
    w = hi - lo
    return [c * w ** k for k, c in enumerate(b)]


def sign_at(a: list[int], num: int, den: int) -> int:
    """The sign of a at num/den, for den > 0."""
    acc, den_power = a[-1], 1
    for c in reversed(a[:-1]):  # den**n times the value, by Horner
        den_power *= den
        acc = acc * num + c * den_power
    return (acc > 0) - (acc < 0)


def exact_div(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b, for a primitive b that divides a (it is then an
    integer polynomial, by Gauss's lemma)."""
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, bj in enumerate(b):
            r[i + j] -= q[i] * bj
    return q


def primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True when gcd(a, b) is certainly a constant: modulo a prime dividing
    neither leading coefficient the gcd's degree can only grow, so a
    constant gcd there is a constant gcd over the rationals."""
    p = PRIME
    if a[-1] % p == 0 or b[-1] % p == 0:
        return False
    f, g = [c % p for c in a], [c % p for c in b]
    while len(g) > 1:
        inv = pow(g[-1], -1, p)
        for i in range(len(f) - len(g), -1, -1):
            c = f[i + len(g) - 1] * inv % p
            for j, gj in enumerate(g):
                f[i + j] = (f[i + j] - c * gj) % p
        f, g = g, trimmed(f)
    return len(g) == 1  # a nonzero constant remainder ends the chain


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials, [] if both are zero:
    the primitive remainder sequence, after the modular shortcut."""
    a, b = trimmed(a), trimmed(b)
    if a and b and coprime_mod_p(a, b):
        return [1]
    while b:
        r = list(a)
        while len(r) >= len(b):  # pseudo-remainder of r by b
            lead, shift = r[-1], len(r) - len(b)
            r = [b[-1] * c for c in r]
            for j, bj in enumerate(b):
                r[shift + j] -= lead * bj
            r = trimmed(r)
        a, b = b, primitive(r) if r else []
    return primitive(a) if a else []


def squarefree(a: list[int]) -> list[int]:
    """a with every repeated root reduced to a simple one: a / gcd(a, a')."""
    g = gcd(a, [k * c for k, c in enumerate(a)][1:])
    return a if len(g) == 1 else exact_div(a, g)


def isolate(b: list[int]) -> list[tuple[int, int, int]]:
    """The roots of a square-free b in (0, 1), in increasing order.

    Vincent-Collins-Akritas bisection: a subinterval whose image on
    (0, inf) has no sign variation holds no root, one with a single
    variation holds exactly one.  Each root comes as (c, k, sign): the open
    interval (c/2**k, (c+1)/2**k) holds it, and sign (1 or -1) is that of b
    just right of c/2**k.  sign is 0 for a root exactly at c/2**k.
    """
    out = []
    stack = [(b, 0, 0)]
    while stack:
        b, c, k = stack.pop()
        if b is None:  # a root at a midpoint, between its two halves
            out.append((c, k, 0))
            continue
        t = min((x & -x).bit_length() for x in b if x) - 1  # common factor 2**t
        b = [x >> t for x in b] if t else b
        v = variations(taylor_shift(b[::-1], 1))  # (1+y)**n b(1/(1+y))
        if v == 1:  # b's lowest nonzero coefficient: its sign just right of 0
            out.append((c, k, 1 if next(x for x in b if x) > 0 else -1))
        elif v > 1:
            n = len(b) - 1
            left = [x << (n - i) for i, x in enumerate(b)]  # 2**n b(x/2)
            right = taylor_shift(left, 1)  # 2**n b((x+1)/2)
            if right[0] == 0:
                stack += [(right[1:], 2 * c + 1, k + 1), (None, 2 * c + 1, k + 1)]
            else:
                stack.append((right, 2 * c + 1, k + 1))
            stack.append((left, 2 * c, k + 1))
    return out


def has_imaginary_root(d: list[int]) -> bool:
    """Whether sum_k d_k z**k has a root i*s with real s != 0.

    With y = s**2, P(i s) = R(y) + i s J(y), where R and J take the even and
    the odd coefficients with alternating signs.  Both parts vanish at some
    s != 0 exactly when gcd(R, J) has a root y in (0, inf).  A zero
    polynomial counts as having none.
    """
    re = [c if j % 2 == 0 else -c for j, c in enumerate(d[0::2])]
    im = [c if j % 2 == 0 else -c for j, c in enumerate(d[1::2])]
    g = gcd(re, im)
    g = g[next((k for k, c in enumerate(g) if c), len(g)):]  # y = 0 is s = 0
    if len(g) < 2 or variations(g) == 0:
        return False
    g = squarefree(g)
    # every positive root is below 2**e (Cauchy: 1 + max|g_k / g_n|)
    e = max(abs(c) for c in g).bit_length() - abs(g[-1]).bit_length() + 2
    return bool(isolate([c << (e * k) for k, c in enumerate(g)]))
