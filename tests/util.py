"""Shared test fixtures: the worked-example digraph, random generators, the
per-entry oracle of the walk operators and that of real-part signs and
floating images."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from digraphwalk.cyclotomic import Angle, CycScalar, cyclotomic_polynomial, make_root
from digraphwalk.digraph import Digraph, arc_space, parse_arc_list

# the four-vertex example: one digon {0,1}, arcs 2->1, 1->3, 3->2
FIG_ARCS = "n=4; 0->1; 1->0; 2->1; 1->3; 3->2"


def fig_digraph() -> Digraph:
    return parse_arc_list(FIG_ARCS)


def random_digraph(rng: random.Random, n: int, density: float = 0.5) -> Digraph:
    arcs = set()
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                arcs.add((i, j))
    return Digraph(n, frozenset(arcs))


def random_connected_digraph(rng: random.Random, n: int, density: float = 0.5) -> Digraph:
    from digraphwalk.digraph import weakly_connected

    while True:
        g = random_digraph(rng, n, density)
        if g.arcs and weakly_connected(g):
            return g


# -- the per-entry oracle ------------------------------------------------------------
#
# Walk operators from their definitions, entry by entry, and their algebra as
# loops over CycScalar entries: independent of the coordinate stacks and of
# _exact_matmul, which OpMatrix and the sign kernel share.


@dataclass(frozen=True)
class Dense:
    """Rows of CycScalars with optional inverse-square-root annotations d:
    the matrix diag(1/sqrt(d_row)) rows diag(1/sqrt(d_col))."""

    rows: tuple
    row_sqrt: tuple | None = None
    col_sqrt: tuple | None = None


def dense(m) -> Dense:
    return Dense(m.data, m.row_sqrt, m.col_sqrt)


@lru_cache(maxsize=None)
def _rational(x, m=2) -> CycScalar:
    return CycScalar.rational(x, m)


def _degrees(g: Digraph) -> list[int]:
    deg = [0] * g.n
    for u, v in {(min(a), max(a)) for a in g.arcs}:
        deg[u] += 1
        deg[v] += 1
    return deg


def _arcs(g: Digraph) -> list[tuple[int, int]]:
    return list(arc_space(g).arcs)


def _phase(g: Digraph, arc, eta: Angle) -> CycScalar:
    u, v = arc
    if (u, v) in g.arcs and (v, u) in g.arcs:
        return _rational(1, eta.order)
    root = make_root(eta)
    return root if (u, v) in g.arcs else root.conj()


def oracle_K(g: Digraph) -> Dense:
    deg = _degrees(g)
    verts = [v for v in range(g.n) if deg[v]]
    rows = tuple(tuple(_rational(int(b == v)) for _, b in _arcs(g)) for v in verts)
    return Dense(rows, row_sqrt=tuple(deg[v] for v in verts))


def oracle_C(g: Digraph) -> Dense:
    deg, arcs = _degrees(g), _arcs(g)
    return Dense(tuple(tuple(_rational(Fraction(2 * (a[1] == b[1]), deg[a[1]]) - (a == b))
                             for b in arcs) for a in arcs))


def oracle_S_theta(g: Digraph, eta: Angle) -> Dense:
    arcs = _arcs(g)
    zero = _rational(0, eta.order)
    return Dense(tuple(tuple(_phase(g, b, eta) if a == b[::-1] else zero for b in arcs)
                       for a in arcs))


def oracle_D_theta(g: Digraph, eta: Angle) -> Dense:
    arcs = _arcs(g)
    zero = _rational(0, eta.order)
    return Dense(tuple(tuple(_phase(g, b, eta) if a == b else zero for b in arcs)
                       for a in arcs))


def oracle_H_eta(g: Digraph, eta: Angle, positive_degree_only: bool = False) -> Dense:
    deg = _degrees(g)
    verts = [v for v in range(g.n) if deg[v] or not positive_degree_only]
    zero = _rational(0, eta.order)
    rows = tuple(tuple(_phase(g, (x, y), eta) if (x, y) in g.arcs or (y, x) in g.arcs else zero
                       for y in verts) for x in verts)
    d = tuple(deg[v] for v in verts) if positive_degree_only else None
    return Dense(rows, d, d)


def oracle_matmul(a: Dense, b: Dense) -> Dense:
    """The product entry by entry; a meeting of annotations d on the inner
    index is the factor 1/d there."""
    if (a.col_sqrt is None) != (b.row_sqrt is None) or a.col_sqrt != b.row_sqrt:
        raise ValueError("annotations do not meet in pairs")
    scale = [Fraction(1, d) for d in a.col_sqrt] if a.col_sqrt else None
    zero = _rational(0)
    nonzero = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b.rows]
    width = len(b.rows[0]) if b.rows else 0
    out = []
    for arow in a.rows:
        orow = [zero] * width
        for t, x in enumerate(arow):
            if x.is_zero():
                continue
            if scale is not None:
                x = x * scale[t]
            for j, y in nonzero[t]:
                orow[j] = orow[j] + x * y
        out.append(tuple(orow))
    return Dense(tuple(out), a.row_sqrt, b.col_sqrt)


def oracle_adjoint(a: Dense) -> Dense:
    return Dense(tuple(tuple(x.conj() for x in col) for col in zip(*a.rows)),
                 a.col_sqrt, a.row_sqrt)


def oracle_combined(a: Dense, b: Dense, sign: int) -> Dense:
    assert (a.row_sqrt, a.col_sqrt) == (b.row_sqrt, b.col_sqrt)
    return Dense(tuple(tuple(x + y if sign > 0 else x - y for x, y in zip(r, s))
                       for r, s in zip(a.rows, b.rows)), a.row_sqrt, a.col_sqrt)


def oracle_scaled(a: Dense, c) -> Dense:
    return Dense(tuple(tuple(x * c for x in row) for row in a.rows), a.row_sqrt, a.col_sqrt)


def oracle_power(a: Dense, k: int) -> Dense:
    """a^k, k >= 1, as k - 1 products."""
    out = a
    for _ in range(k - 1):
        out = oracle_matmul(out, a)
    return out


def oracle_trace(a: Dense) -> CycScalar:
    total = _rational(0)
    for i, row in enumerate(a.rows):
        total = total + (row[i] * Fraction(1, a.row_sqrt[i]) if a.row_sqrt else row[i])
    return total


def oracle_is_identity(a: Dense) -> bool:
    if a.row_sqrt != a.col_sqrt:
        return False
    return all(x == ((a.row_sqrt[i] if a.row_sqrt else 1) if i == j else 0)
               for i, row in enumerate(a.rows) for j, x in enumerate(row))


def oracle_equal(a: Dense, b: Dense) -> bool:
    return (a.row_sqrt, a.col_sqrt) == (b.row_sqrt, b.col_sqrt) and a.rows == b.rows


# -- the per-entry oracle of real-part signs and floating images ---------------------
#
# Independent of real_part_signs and complex_images: exact zeros from CycScalar
# conjugation, rational cosines (m | 12 with phi <= 2) in Fraction arithmetic,
# and elsewhere one mpmath evaluation at a precision that the bit length of
# the coordinates proves sufficient.

_RATIONAL_COS = {1: (1,), 2: (1,), 3: (1, Fraction(-1, 2)), 4: (1, 0), 6: (1, Fraction(1, 2))}
_RATIONAL_SIN = {3: math.sqrt(3) / 2, 4: 1.0, 6: math.sqrt(3) / 2}   # sin(2 pi / m)


def _oracle_prec(x: CycScalar) -> int:
    """Working bits that decide Re(x) and give x to 2^-60 relative error.

    With a = sum |num| < 2^L, the nonzero algebraic integers 2 Re(num) and num
    have norms of modulus >= 1 and phi / 2 - 1 other conjugate pairs of
    modulus <= 2a, so |Re(num)| and |num| exceed 2^-(phi/2 - 1)(L + 1) - 1;
    an evaluation at P bits is within 4 phi a 2^-P of the truth."""
    phi = len(x.num)
    return (phi // 2 + 1) * (sum(map(abs, x.num)).bit_length() + 1) + 64


@lru_cache(maxsize=None)
def _unit_circle_mp(m: int, prec: int) -> tuple:
    with mpmath.workprec(prec):
        angles = [2 * mpmath.pi * k / m for k in range(len(cyclotomic_polynomial(m)) - 1)]
        return tuple(tuple(f(a) for a in angles) for f in (mpmath.cos, mpmath.sin))


def _oracle_parts_mp(x: CycScalar, parts) -> list:
    """Re(x) (part 0) and Im(x) (part 1) as mpmath numbers."""
    prec = -(-_oracle_prec(x) // 64) * 64
    with mpmath.workprec(prec):
        circle = _unit_circle_mp(x.m, prec)
        return [mpmath.fdot(x.num, circle[p]) / x.den for p in parts]


def oracle_real_sign(x: CycScalar) -> int:
    """Exact sign (-1, 0, 1) of Re(x)."""
    if x.m in _RATIONAL_COS:
        re = sum(c * cos for c, cos in zip(x.num, _RATIONAL_COS[x.m]) if c)
        return (re > 0) - (re < 0)
    if (x + x.conj()).is_zero():
        return 0
    return int(mpmath.sign(_oracle_parts_mp(x, (0,))[0]))


def oracle_complex(x: CycScalar) -> complex:
    """x as a complex float, with exact zero parts."""
    if x.m in _RATIONAL_COS:
        re = sum(c * cos for c, cos in zip(x.num, _RATIONAL_COS[x.m]))
        im = float(Fraction(x.num[-1], x.den)) * _RATIONAL_SIN[x.m] if len(x.num) > 1 else 0.0
        return complex(float(Fraction(re) / x.den), im)
    re, im = map(float, _oracle_parts_mp(x, (0, 1)))
    return complex(0.0 if (x + x.conj()).is_zero() else re, 0.0 if x.imag_is_zero() else im)
