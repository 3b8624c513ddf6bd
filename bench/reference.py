"""Reference values and computations made apart from the package under test.

Nothing here imports digraphwalk.  The paper's table cells are transcribed
from the paper; counts come from Burnside's lemma; operators are rebuilt
from their definitions with numpy floats, or exactly with Python integers
and fractions where a float could not decide a sign.

Conventions follow the paper.  An arc a = (o, t) has inverse a^-1 = (t, o);
the arc space is every arc of the underlying graph G^+-.  The arc weight
w(a) is 0 on a digon arc, +1 on a one-way arc of the digraph and -1 on the
inverse of one.  Then
  C = 2 K*K - I,  C[a, b] = 2 [t(a) = t(b)] / deg t(a) - [a = b],
  S_theta[a, b] = e^{i eta w(b)} [a = b^-1],  U_theta = S_theta C,
  D_theta = diag(e^{i eta w(a)}),
  H_eta[x, y] = 1 on a digon, e^{i eta} on a one-way arc x->y,
                e^{-i eta} on a one-way arc y->x, 0 otherwise.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

# The paper's cospectrality tables, orders 2..5.  Each cell is (number of
# digraphs, distinct characteristic polynomials, largest cospectral class,
# digraphs determined by their spectrum, classes holding no graph, classes
# holding only graphs, classes holding both).
PAPER_CELLS: dict[str, dict[int, tuple[int, ...]]] = {
    "A": {2: (3, 2, 2, 1, 0, 1, 1), 3: (16, 7, 6, 5, 3, 2, 2),
          4: (218, 46, 42, 23, 35, 5, 6), 5: (9608, 718, 592, 166, 685, 15, 18)},
    "H_pi3": {2: (3, 2, 2, 1, 0, 1, 1), 3: (16, 7, 6, 3, 3, 1, 3),
              4: (218, 41, 18, 9, 30, 1, 10), 5: (9608, 765, 84, 82, 732, 1, 32)},
    "H": {2: (3, 2, 2, 1, 0, 1, 1), 3: (16, 6, 6, 2, 2, 1, 3),
          4: (218, 27, 21, 3, 16, 1, 10), 5: (9608, 275, 158, 5, 242, 1, 32)},
    "H_2pi3": {2: (3, 2, 2, 1, 0, 1, 1), 3: (16, 5, 6, 1, 1, 1, 3),
               4: (218, 20, 27, 1, 9, 1, 10), 5: (9608, 150, 243, 1, 117, 1, 32)},
    "U2_pi2": {2: (3, 2, 1, 2, 1, 1, 0), 3: (16, 6, 6, 4, 3, 3, 0),
               4: (218, 34, 53, 13, 25, 9, 0), 5: (9608, 371, 700, 50, 339, 32, 0)},
    "U2_gt_pi2": {2: (3, 2, 1, 2, 1, 1, 0), 3: (16, 6, 6, 4, 3, 3, 0),
                  4: (218, 45, 22, 13, 36, 9, 0), 5: (9608, 601, 204, 47, 569, 27, 5)},
}


# -- Burnside counts ------------------------------------------------------------


def _pair_orbits(perm, pairs) -> list[bool]:
    """For each orbit of a vertex permutation on unordered pairs, whether its
    first return maps the pair onto itself with the ends exchanged."""
    seen = set()
    out = []
    for a, b in pairs:
        if (a, b) in seen:
            continue
        x, y = a, b
        while True:
            x, y = perm[x], perm[y]
            seen.add((min(x, y), max(x, y)))
            if {x, y} == {a, b}:
                out.append(x == b)
                break
    return out


def digraph_count(n: int) -> int:
    """Digraphs (mixed graphs) on n vertices up to isomorphism.

    Each vertex pair is empty, an arc either way, or a digon; a pair orbit
    that returns reversed fixes only the two symmetric states."""
    pairs = list(combinations(range(n), 2))
    total = 0
    for perm in permutations(range(n)):
        fixed = 1
        for rev in _pair_orbits(perm, pairs):
            fixed *= 2 if rev else 4
        total += fixed
    return total // math.factorial(n)


def automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    eset = {frozenset(e) for e in edges}
    return [p for p in permutations(range(n))
            if all(frozenset((p[u], p[v])) in eset for u, v in edges)]


def orientation_count(n: int, edges) -> int:
    """Digraphs with the given underlying graph, up to isomorphism.

    Each edge is a digon or a one-way arc either way; an edge orbit that
    returns reversed fixes only the digon state."""
    auts = automorphisms(n, edges)
    edges = [tuple(sorted(e)) for e in edges]
    total = 0
    for perm in auts:
        fixed = 1
        for rev in _pair_orbits(perm, edges):
            fixed *= 1 if rev else 3
        total += fixed
    return total // len(auts)


def _complete(n):
    return list(combinations(range(n), 2))


# The k-regular simple graphs with k >= 3 and n <= 6, one per isomorphism class.
REGULAR_BASES: dict[tuple[int, int], list[list[tuple[int, int]]]] = {
    (4, 3): [_complete(4)],
    (5, 4): [_complete(5)],
    (6, 3): [[(a, b) for a in range(3) for b in range(3, 6)],                # K_{3,3}
             [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
              (0, 3), (1, 4), (2, 5)]],                                       # prism
    (6, 4): [[e for e in _complete(6) if e not in ((0, 1), (2, 3), (4, 5))]],  # octahedron
    (6, 5): [_complete(6)],
}


def regular_digraph_count(n: int, k: int) -> int:
    return sum(orientation_count(n, edges) for edges in REGULAR_BASES[(n, k)])


# -- arc-space helpers --------------------------------------------------------------


def arc_weights(arcs: frozenset, labels) -> np.ndarray:
    return np.array([((u, v) in arcs) - ((v, u) in arcs) for u, v in labels], dtype=float)


def underlying_edge_count(arcs: frozenset) -> int:
    return len({(min(u, v), max(u, v)) for u, v in arcs})


def digon_count(arcs: frozenset) -> int:
    return sum(1 for u, v in arcs if u < v and (v, u) in arcs)


def _arc_structure(labels):
    index = {a: i for i, a in enumerate(labels)}
    deg: dict[int, int] = defaultdict(int)
    for u, _ in labels:
        deg[u] += 1
    o = np.array([u for u, _ in labels])
    t = np.array([v for _, v in labels])
    inv = np.array([index[(v, u)] for u, v in labels])
    d = np.array([deg[v] for v in t])
    return o, t, inv, d


# -- float operators from the definitions ---------------------------------------------


def float_U(arcs: frozenset, labels, eta: float) -> np.ndarray:
    o, t, inv, d = _arc_structure(labels)
    n = len(labels)
    coin = 2.0 * (t[:, None] == t[None, :]) / d[:, None] - np.eye(n)
    shift = np.zeros((n, n), dtype=complex)
    shift[inv, np.arange(n)] = np.exp(1j * eta * arc_weights(arcs, labels))
    return shift @ coin


def float_D(arcs: frozenset, labels, eta: float) -> np.ndarray:
    return np.diag(np.exp(1j * eta * arc_weights(arcs, labels)))


def float_H(n: int, arcs: frozenset, eta: float) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    for x, y in arcs:
        if (y, x) in arcs:
            h[x, y] = 1.0
        else:
            h[x, y] = np.exp(1j * eta)
            h[y, x] = np.exp(-1j * eta)
    return h


def field_value(m: int, num, den: int) -> complex:
    """sum_k num[k] zeta_m^k / den, for an element of Q(zeta_m) in power basis."""
    return sum(int(c) * complex(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
               for k, c in enumerate(num) if c) / den


def multiset_match(got, want, tol: float) -> bool:
    """Greedy nearest matching of two complex multisets within tol."""
    want = list(want)
    if len(got) != len(want):
        return False
    free = np.ones(len(want), dtype=bool)
    arr = np.array(want, dtype=complex)
    for z in got:
        dist = np.where(free, np.abs(arr - z), np.inf)
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        free[j] = False
    return True


def charpoly_matches_eigvalsh(coeffs_ascending, h: np.ndarray, rel: float = 1e-9) -> bool:
    """Compare a monic charpoly with the one rebuilt from eigvalsh(h).

    Each coefficient is an elementary symmetric function of the eigenvalues;
    its float error scales with the same function of their absolute values."""
    lam = np.linalg.eigvalsh(h)
    want = np.poly(lam)[::-1]
    scale = np.poly(-np.abs(lam))[::-1]
    got = np.array(coeffs_ascending, dtype=complex)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= rel * (1.0 + scale)))


# -- the square-support formula, exactly ------------------------------------------


def grover_square_signs(labels, k: int) -> np.ndarray:
    """Signs of U(G^+-)^2 for a k-regular digraph: (kU)[a, b] =
    2 [o(a) = t(b)] - k [b = a^-1] is an integer matrix with the same signs."""
    o, t, inv, _ = _arc_structure(labels)
    n = len(labels)
    ku = 2 * (o[:, None] == t[None, :]).astype(np.int64)
    ku[np.arange(n), inv] -= k
    return np.sign(ku @ ku)


def digon_locator(arcs: frozenset, labels) -> np.ndarray:
    """R[a, b] = 1 iff o(a) and t(b) are joined by a digon."""
    o, t, _, _ = _arc_structure(labels)
    dig = np.zeros((max(max(o), max(t)) + 1,) * 2, dtype=np.int64)
    for u, v in arcs:
        if (v, u) in arcs:
            dig[u, v] = 1
    return dig[o[:, None], t[None, :]]


def regime(p: int, q: int) -> int:
    """1 below pi/2, 2 at pi/2, 3 above."""
    return 1 if 2 * p < q else (2 if 2 * p == q else 3)


def square_support_formula(arcs: frozenset, labels, k: int, p: int, q: int, sign: int) -> np.ndarray:
    """The paper's three-regime formula for the sign-support of D_theta U_theta^2."""
    u2 = grover_square_signs(labels, k)
    same = (u2 == sign).astype(np.int64)
    if regime(p, q) == 1:
        return same
    r = digon_locator(arcs, labels)
    if regime(p, q) == 2:
        return same * r
    return same * r + (u2 == -sign).astype(np.int64) * (1 - r)


# -- the star forest --------------------------------------------------------------------

FOREST_DEGREES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def star_forest_arcs() -> tuple[int, frozenset]:
    """Disjoint stars, all edges digons, centre degrees the primes 2..47."""
    arcs = set()
    v = 0
    for d in FOREST_DEGREES:
        centre = v
        for leaf in range(centre + 1, centre + 1 + d):
            arcs.add((centre, leaf))
            arcs.add((leaf, centre))
        v = centre + 1 + d
    return v, frozenset(arcs)


def exact_square_positive_support(arcs: frozenset, labels) -> list[set[int]]:
    """Column sets of the positive support of U^2 for an all-digon digraph,
    where D_theta = I at every angle.  Exact fractions, by sparse rows:
    U[a, b] is nonzero only when t(b) = o(a)."""
    if any((v, u) not in arcs for u, v in arcs):
        raise ValueError("exact reference covers all-digon digraphs only")
    index = {a: i for i, a in enumerate(labels)}
    deg: dict[int, int] = defaultdict(int)
    into: dict[int, list[int]] = defaultdict(list)
    for i, (u, v) in enumerate(labels):
        deg[u] += 1
        into[v].append(i)
    rows = []
    for u, v in labels:
        row = {b: Fraction(2, deg[u]) for b in into[u]}
        back = index[(v, u)]
        row[back] = row.get(back, 0) - 1
        rows.append({b: x for b, x in row.items() if x})
    out = []
    for row in rows:
        acc: dict[int, Fraction] = defaultdict(Fraction)
        for b, x in row.items():
            for c, y in rows[b].items():
                acc[c] += x * y
        out.append({c for c, val in acc.items() if val > 0})
    return out
