"""Positive/negative supports of transfer-matrix powers and the structural
identities that govern the squared walk.

The support of the n-th power reads off the exact sign of the real part of
each entry of D_theta * U_theta^n, always from integer matrices whose
products are exact.  The square at an angle whose cosine is rational (every
tabulated angle) is one product, folded as below.  Every other power and
angle takes the full products of ``_product_signs``: integer coefficient
stacks over Z[zeta_m], whose signs ``real_part_signs`` certifies (an exact
zero test, a float64 value under a rigorous error bound, and fixed-point
sums at doubling precision for whatever the bound leaves open).

Why the integer route is exact at any size: U[a, b] is nonzero only when
t(b) = o(a), so an entry (U^2)[a, c] has at most one middle arc,
b = (t(c), o(a)).  Each entry is therefore a single product, and its
positive factors (the coin's 1/deg, the magnitude of U[a, b]) can be
dropped without changing its sign: the products use sign(S Chat) on the
left, and the real part of the middle phase is folded into one integer
weight per arc, den * cos theta(b).  ``cyclotomic._exact_matmul`` runs
such a product in float64 BLAS when inner dimension * max|left| *
max|right| < 2**53: then every partial sum is an integer below 2**53,
exactly representable whatever the summation order.  Beyond that bound it
multiplies Python ints.

The middle-arc lemma: the three-regime square-support formula holds for
every digraph.  Since theta(a^-1) = -theta(a), D_theta S_theta = S, so
D_theta U_theta = S C = U_0, the real Grover walk of G^+-, and
D_theta U_theta^2 = U_0 D_theta^-1 U_0.  By the argument above, entry
[a, c] has at most one middle arc b, and then equals
U_0[a, b] U_0[b, c] e^{-i theta(b)}, whose real part is
(U_0^2)[a, c] cos theta(b): cos theta(b) = 1 on a digon arc and cos eta
on any other.  Below pi/2 every factor is positive, so (U_theta^2)^+- =
(U_0^2)^+-; at pi/2 only middle digon arcs survive, (U_0^2)^+- o R; above
pi/2 the others flip sign, (U_0^2)^+- o R + (U_0^2)^-+ o (J - R), with R
the digon locator (R[a, c] = 1 iff (t(c), o(a)) is a digon arc).  Where no
middle arc exists both sides are 0.  Nothing here uses regularity: k-regular
with k >= 3 is only the paper's hypothesis, which ``SquareSupportReport``
still reports as "proved regime" against "empirical probe".
``square_support_formula`` is the formula: ``tables`` keys (U^2)^+ with it,
and ``verify_square_support_formula`` compares it with the signs of the
products above, never with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .cyclotomic import (
    Angle,
    _conj_map,
    _exact_matmul,
    coordinate_map,
    exact_ints,
    make_root,
    rational_real_coeffs,
    real_part_signs,
    zeta_power_map,
)
from .digraph import ArcSpace, Digraph, PreconditionError, arc_space, digons, is_graph, is_regular
from .operators import (
    IndexSpace,
    OpMatrix,
    arc_space_index,
    build_S,
    degree_scaled,
)


def _sign_value(sign) -> int:
    if sign in (1, -1):
        return sign
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+', '-', 1 or -1, got {sign!r}")


@dataclass(frozen=True)
class SupportMatrix:
    """0/1 matrix on the arc space, with provenance of the extraction."""

    space: IndexSpace
    data: tuple[tuple[int, ...], ...]
    sign: int
    power: int | None = None
    eta: Angle | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def trace(self) -> int:
        return sum(self.data[i][i] for i in range(self.dim))

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def grid_text(self) -> str:
        header = " ".join(f"{u}>{v}" for u, v in self.space.labels)
        lines = [f"# arcs: {header}"]
        lines.extend(" ".join(str(x) for x in row) for row in self.data)
        return "\n".join(lines)


def support(m: OpMatrix, sign, real_part: bool = False) -> SupportMatrix:
    """0/1 support of a matrix with provably real entries.

    Pass real_part=True to opt into real-part semantics for complex input."""
    want = _sign_value(sign)
    # den and the square-root annotations are positive: the signs are those
    # of the coordinate stack
    phi = len(m.coords)
    if not real_part and coordinate_map(np.eye(phi, dtype=np.int64) - _conj_map(m.m),
                                        m.coords.reshape(phi, -1)).any():
        raise PreconditionError("matrix has non-real entries; pass real_part=True for "
                                "real-part semantics")
    data = tuple(map(tuple, (real_part_signs(m.m, m.coords) == want).view(np.int8).tolist()))
    return SupportMatrix(m.row_space, data, want)


# -- fast exact sign pipeline -------------------------------------------------


@lru_cache(maxsize=16)
def _real_weights(eta: Angle) -> np.ndarray | None:
    """den * Re e^{i w eta} for the theta-weights w = -1, 0, 1 (at index
    w + 1), as integers with one positive den; None when cos eta is
    irrational."""
    re_coeffs = rational_real_coeffs(eta.order)
    if re_coeffs is None:
        return None
    root = make_root(eta)
    cos = sum(c * x for c, x in zip(re_coeffs, root.num)) / Fraction(root.den)
    den = cos.denominator
    weights = np.array([cos.numerator, den, cos.numerator], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def _square_fold(space: ArcSpace, weights: np.ndarray) -> np.ndarray:
    """Signs of Re(D_theta U_theta^2) as one product, when cos eta is rational."""
    s_chat = space.s_chat
    # sign(s_chat) stands in for the positively scaled U: see the module
    # docstring.  Re e^{-i theta(b)} on the middle arc b is den * cos theta(b),
    # and cos is even.
    middle = weights[np.asarray(space.theta_weight) + 1]
    prod = _exact_matmul(np.sign(s_chat).astype(np.int8), middle[:, None] * s_chat)
    return np.sign(prod).astype(np.int64, copy=False)


def _product_signs(space: ArcSpace, eta: Angle, n: int) -> np.ndarray:
    """Signs of Re(D_theta U_theta^n), n >= 2, from full products over Z[zeta_m].

    D_theta U_theta^n = U_0 (D_theta^-1 U_0)^(n-1) with U_0 = diag(1/deg o)
    s_chat (module docstring).  The outer row scale is positive and dropped;
    the inner one is scaled by L = lcm(deg), so that W = diag(L/deg o) s_chat
    is an integer matrix, and the signs are those of s_chat (D_theta^-1 W)^(n-1).
    The running product is a (phi(m), N, N) integer coordinate stack: each
    step multiplies column b by zeta_m^(-p theta_weight(b)), one coordinate
    map per weight, then makes the phi integer products with W in one
    ``_exact_matmul``."""
    m, dim = eta.order, len(space)
    s_chat = space.s_chat
    w = degree_scaled(s_chat, space.deg[space.o])[0]
    shift = (-eta.p * np.asarray(space.theta_weight)) % m
    cols = [(np.flatnonzero(shift == s), zeta_power_map(m, s)) for s in set(shift.tolist())]
    growth = max(int(np.abs(mat).sum(axis=1).max()) for _, mat in cols)
    phi = zeta_power_map(m, 0).shape[0]
    stack = np.zeros((phi, dim, dim), dtype=np.int64)
    stack[0] = s_chat
    for _ in range(n - 1):
        stack = exact_ints(stack, growth)
        rotated = np.empty_like(stack)
        for idx, mat in cols:
            rotated[:, :, idx] = np.tensordot(mat.astype(stack.dtype), stack[:, :, idx], axes=1)
        stack = _exact_matmul(rotated.reshape(phi * dim, dim), w).reshape(phi, dim, dim)
    return real_part_signs(m, stack)


def _shared_signs(fn):
    """fn with a bounded cache per argument tuple, like ``arc_space``.  Every
    caller shares a result, so its array is made read-only.  The cached
    function is returned as a plain function, which bench/tracing.py wraps."""
    @lru_cache(maxsize=16)
    def cached(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.flags.writeable = False
        return out

    @wraps(fn)
    def shared(*args, **kwargs):
        return cached(*args, **kwargs)

    shared.cache_clear = cached.cache_clear
    return shared


@_shared_signs
def sign_data_power(g: Digraph, eta: Angle, n: int) -> np.ndarray:
    """Exact sign matrix of Re(D_theta U_theta^n) via integer arithmetic, for
    every angle and every n >= 1; read-only, cached per (g, eta, n).

    n = 1 is sign(s_chat) at any angle; n = 2 with cos eta rational is one
    product by the middle-arc lemma; everything else is ``_product_signs``."""
    if n < 1:
        raise PreconditionError("power must be >= 1")
    space = arc_space(g)
    if n == 1:
        # D_theta U_theta = U(G^+-) = diag(1/deg o) * (S Chat): real, any angle
        return np.sign(space.s_chat).astype(np.int64)
    weights = _real_weights(eta) if n == 2 else None
    if weights is not None:
        return _square_fold(space, weights)
    return _product_signs(space, eta, n)


@_shared_signs
def grover_square_signs(g: Digraph) -> np.ndarray:
    """Exact sign matrix of U(G^+-)^2 entries (integer route); read-only,
    cached per digraph."""
    s_chat = arc_space(g).s_chat
    prod = _exact_matmul(np.sign(s_chat).astype(np.int8), s_chat)
    return np.sign(prod).astype(np.int64, copy=False)


def digon_locator(space: ArcSpace, digon: np.ndarray) -> np.ndarray:
    """R[a, c] = digon[o(a), t(c)] on the arc space: 1 iff (t(c), o(a)) is a
    digon arc, for the symmetric n x n 0/1 matrix of a digon set."""
    return digon[space.o[:, None], space.t[None, :]]


def digon_locator_array(g: Digraph) -> np.ndarray:
    space = arc_space(g)
    mask = np.zeros((g.n, g.n), dtype=np.int64)
    for x, y in digons(g):
        mask[x, y] = mask[y, x] = 1
    return digon_locator(space, mask)


def power_support(g: Digraph, eta: Angle, n: int, sign) -> SupportMatrix:
    """Support of the n-th transfer-matrix power, by the defining sign test."""
    if n < 1:
        raise PreconditionError("power must be >= 1")
    want = _sign_value(sign)
    space = arc_space(g)
    data = tuple(map(tuple, (sign_data_power(g, eta, n) == want).view(np.int8).tolist()))
    return SupportMatrix(arc_space_index(space), data, want, power=n, eta=eta)


# -- structural identities -----------------------------------------------------


def eta_regime(eta: Angle) -> int:
    """1 for eta < pi/2, 2 at pi/2, 3 for eta > pi/2."""
    lhs, rhs = 2 * eta.p, eta.q
    return 1 if lhs < rhs else (2 if lhs == rhs else 3)


@dataclass(frozen=True)
class SquareSupportReport:
    eta: Angle
    regime: int
    k: int | None
    precondition_ok: bool     # k-regular with k >= 3
    empirical: bool
    holds: bool
    violations: tuple[tuple[str, int, int], ...]

    def summary(self) -> str:
        status = "holds" if self.holds else f"FAILS ({len(self.violations)} entries)"
        mode = "proved regime" if self.precondition_ok else "empirical probe"
        return (f"square-support formula at eta={self.eta} "
                f"(regime {self.regime}, {mode}): {status}")


def square_support_formula(u2: np.ndarray, r: np.ndarray, regime: int, sign) -> np.ndarray:
    """(U_theta^2)^sign as a 0/1 (bool) matrix by the middle-arc lemma
    (module docstring), from the signs u2 of U(G^+-)^2, the digon locator r
    and the regime of eta: the support depends only on the underlying graph
    and the digon set."""
    eps = _sign_value(sign)
    same = u2 == eps
    if regime == 1:
        return same
    if regime == 2:
        return same & (r != 0)
    return np.where(r != 0, same, u2 == -eps)


def verify_square_support_formula(g: Digraph, eta: Angle) -> SquareSupportReport:
    """Check the three-regime formula for the squared-walk supports entrywise.

    The signs of D_theta U_theta^2 come from sign_data_power's products,
    never from the formula.  By the middle-arc lemma (module
    docstring) the formula holds for every digraph; inputs outside the
    paper's hypothesis, k-regular with k >= 3, are labeled an empirical
    probe."""
    k = is_regular(g)
    precondition_ok = k is not None and k >= 3
    regime = eta_regime(eta)
    u2 = grover_square_signs(g)
    r = digon_locator_array(g)
    signs = sign_data_power(g, eta, 2)
    violations: list[tuple[str, int, int]] = []
    for eps in (1, -1):
        diff = np.argwhere((signs == eps) != square_support_formula(u2, r, regime, eps))
        tag = "+" if eps == 1 else "-"
        violations.extend((tag, int(i), int(j)) for i, j in diff)
    return SquareSupportReport(eta, regime, k, precondition_ok,
                               empirical=not precondition_ok,
                               holds=not violations,
                               violations=tuple(violations))


def digon_count_via_trace(g: Digraph, eta: Angle) -> int:
    """Half the trace of the positive squared support.

    Equals |E(G^+-)| below the pi/2 regime and the digon count at or above
    it, whenever the digraph is k-regular with k >= 3 (guaranteed regime);
    returned as-is otherwise."""
    tr = power_support(g, eta, 2, "+").trace()
    if tr % 2:
        raise ArithmeticError("odd support trace; inverse-arc pairing broken")
    return tr // 2


@dataclass(frozen=True)
class NegativeSquareReport:
    precondition_ok: bool
    k: int | None
    holds: bool
    violations: tuple[tuple[int, int], ...]

    def summary(self) -> str:
        if not self.precondition_ok:
            return "negative-square identity: precondition rejected (need undirected, k-regular, k >= 3)"
        return "negative-square identity: " + ("holds" if self.holds
                                               else f"FAILS ({len(self.violations)} entries)")


def verify_square_negative_identity(g: Digraph) -> NegativeSquareReport:
    """Check (U^2)^- = S U^+ + U^+ S for an undirected regular graph, k >= 3."""
    k = is_regular(g)
    ok = is_graph(g) and k is not None and k >= 3
    if not ok:
        return NegativeSquareReport(False, k, False, ())
    inv = arc_space(g).inv
    u2 = grover_square_signs(g)
    lhs = (u2 == -1).astype(np.int64)
    u1 = sign_data_power(g, Angle(0, 1), 1)
    uplus = (u1 == 1).astype(np.int64)
    rhs = uplus[inv, :] + uplus[:, inv]
    diff = np.argwhere(lhs != rhs)
    return NegativeSquareReport(True, k, diff.size == 0,
                                tuple((int(i), int(j)) for i, j in diff))


def pair_class(space: ArcSpace, i: int, j: int) -> str | None:
    """Combinatorial arc-pair classification behind the squared-walk signs.

    Returns 'i' (equal), 'ii' (common origin), 'iii' (common terminus),
    'iv' (connected through one middle arc), or None when the two-step
    entry vanishes for position reasons."""
    if i == j:
        return "i"
    oa, ta = space.origin[i], space.terminus[i]
    ob, tb = space.origin[j], space.terminus[j]
    if oa == ob:
        return "ii"
    if ta == tb:
        return "iii"
    if tb != oa and ((tb, oa) in space.index):
        return "iv"
    return None


def grover_positive_support_regular(g: Digraph) -> SupportMatrix:
    """U^+ = k S K* K - S for a k-regular graph (k >= 3), built from that formula."""
    k = is_regular(g)
    if k is None or k < 3:
        raise PreconditionError("formula requires a k-regular digraph with k >= 3")
    space = arc_space(g)
    s = build_S(g)
    # K*K on the arc space is rational: delta(t(a),t(b))/deg t(a)
    sp = arc_space_index(space)
    same_t = space.t[:, None] == space.t[None, :]
    kk = OpMatrix.from_coords(sp, sp, 2, same_t[None].astype(np.int64), den=k)
    formula = (s @ kk).scaled(k) - s
    return support(formula, "+")
