"""Exact construction of every walk-operator matrix defined by a digraph.

An ``OpMatrix`` is one integer coordinate stack over one denominator, as in
``cyclotomic``'s arrays of elements: entry [i, j] is
sum_k coords[k, i, j] zeta_m^k / den, with ``coords`` of shape
(phi(m), rows, cols) in int64 or Python ints and ``den`` a positive
integer.  The stack is kept reduced (den coprime to the coordinates, den = 1
for a zero matrix), so equal matrices over one field have equal stacks.

The boundary matrix and the normalized Hermitian adjacency matrix contain
1/sqrt(degree) factors that live outside the field; those two carry an
inverse-square-root degree annotation ``row_sqrt``/``col_sqrt`` beside
their exact stack.  Where two annotations d meet on the inner index of a
product they fold into the integer column scale L/d, L = lcm(d), with den
multiplied by L, so every product the library forms (the coin, the
transfer matrix, the discriminant) stays inside the field.

A product makes the phi^2 integer products of the coordinate planes in one
``_exact_matmul`` and folds zeta^(i + j) back onto the basis with one
integer coordinate map (``product_map``); operands over different fields
are first lifted to the lcm of their orders.  Every int64 step is proven
from the maxima (``exact_ints``) and runs on Python ints otherwise.  The
builders fill their stacks from the arrays of ``ArcSpace``.  ``data``, the
entries as ``CycScalar`` rows, is made on first read and kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import (
    Angle,
    CycScalar,
    _conj_map,
    _exact_matmul,
    _max_abs,
    complex_images,
    coordinate_map,
    exact_ints,
    lift_map,
    product_map,
    zeta_coords,
    zeta_power_map,
)
from .digraph import ArcSpace, Digraph, NoArcsError, arc_space, digons


@dataclass(frozen=True)
class IndexSpace:
    kind: str            # "vertex" | "arc"
    labels: tuple

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"IndexSpace({self.kind}, dim={self.dim})"


def vertex_space(g: Digraph, positive_degree_only: bool = False) -> IndexSpace:
    if positive_degree_only:
        from .digraph import degrees

        deg = degrees(g)
        labels = tuple(v for v in range(g.n) if deg[v] > 0)
    else:
        labels = tuple(range(g.n))
    return IndexSpace("vertex", labels)


def arc_space_index(space: ArcSpace) -> IndexSpace:
    return IndexSpace("arc", space.arcs)


def _reduced(coords: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """coords and den divided by their common gcd; coords as int64 where
    they fit, read-only."""
    coords = exact_ints(coords, 1)
    if not coords.any():
        den = 1
    elif den != 1:
        g = math.gcd(den, int(np.gcd.reduce(coords, axis=None)))
        if g > 1:
            coords, den = exact_ints(coords // g, 1), den // g
    coords.flags.writeable = False
    return coords, den


class OpMatrix:
    """Dense exact matrix with named row/column index spaces (module docstring).

    ``row_sqrt``/``col_sqrt``, when set, are positive-integer vectors d such
    that the represented matrix is diag(1/sqrt(d)) * core (resp. on the
    right).  Index spaces and annotations must agree in products.  The
    constructor takes rows of ``CycScalar``s; ``from_coords`` takes a stack.
    """

    __slots__ = ("row_space", "col_space", "m", "coords", "den", "row_sqrt", "col_sqrt",
                 "_data")

    def __init__(self, row_space, col_space, data, row_sqrt=None, col_sqrt=None):
        rows = tuple(tuple(row) for row in data)
        if len(rows) != row_space.dim:
            raise ValueError("row count does not match row space")
        if rows and any(len(r) != col_space.dim for r in rows):
            raise ValueError("column count does not match column space")
        m = math.lcm(*{x.m for row in rows for x in row}) if rows and rows[0] else 2
        lifted = [[x.lift(m) for x in row] for row in rows]
        den = math.lcm(1, *{x.den for row in lifted for x in row})
        coords = np.array([[[c * (den // x.den) for c in x.num] for x in row] for row in lifted],
                          dtype=object).reshape(row_space.dim, col_space.dim, len(zeta_coords(m)))
        self._set(row_space, col_space, m, np.moveaxis(coords, -1, 0), den, row_sqrt, col_sqrt)
        self._data = rows

    @classmethod
    def from_coords(cls, row_space, col_space, m: int, coords, den: int = 1,
                    row_sqrt=None, col_sqrt=None) -> "OpMatrix":
        """The matrix sum_k coords[k] zeta_m^k / den of an integer stack
        (phi(m), rows, cols) and a positive den.  It keeps a read-only copy
        of the stack, so the caller's array stays its own."""
        self = object.__new__(cls)
        self._set(row_space, col_space, m, np.array(coords, copy=True), den, row_sqrt, col_sqrt)
        self._data = None
        return self

    def _set(self, row_space, col_space, m, coords, den, row_sqrt, col_sqrt):
        phi = zeta_coords(m).shape[0]
        if coords.shape != (phi, row_space.dim, col_space.dim):
            raise ValueError(f"coordinate stack of shape {coords.shape} does not match "
                             f"({phi}, {row_space.dim}, {col_space.dim})")
        if den < 1:
            raise ValueError("denominator must be positive")
        self.row_space = row_space
        self.col_space = col_space
        self.m = m
        self.coords, self.den = _reduced(coords, int(den))
        self.row_sqrt = tuple(row_sqrt) if row_sqrt is not None else None
        self.col_sqrt = tuple(col_sqrt) if col_sqrt is not None else None

    def _like(self, coords, den, m=None) -> "OpMatrix":
        return OpMatrix.from_coords(self.row_space, self.col_space, m or self.m, coords, den,
                                    self.row_sqrt, self.col_sqrt)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(space: IndexSpace) -> "OpMatrix":
        return OpMatrix.from_coords(space, space, 2, np.eye(space.dim, dtype=np.int64)[None])

    @staticmethod
    def ones(space: IndexSpace) -> "OpMatrix":
        return OpMatrix.from_coords(space, space, 2,
                                    np.ones((1, space.dim, space.dim), dtype=np.int64))

    @staticmethod
    def zeros(row_space: IndexSpace, col_space: IndexSpace) -> "OpMatrix":
        return OpMatrix.from_coords(row_space, col_space, 2,
                                    np.zeros((1, row_space.dim, col_space.dim), dtype=np.int64))

    # -- basic queries -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_space.dim, self.col_space.dim)

    @property
    def data(self) -> tuple[tuple[CycScalar, ...], ...]:
        """The entries as rows of ``CycScalar``s (of the core, when annotated),
        made from the stack on first read."""
        if self._data is None:
            m, den = self.m, self.den
            # equal entries share one CycScalar (most are 0)
            made: dict[tuple, CycScalar] = {}

            def scalar(num):
                num = tuple(num)
                x = made.get(num)
                if x is None:
                    x = made[num] = CycScalar(m, num, den)
                return x

            self._data = tuple(tuple(map(scalar, row))
                               for row in np.moveaxis(self.coords, 0, -1).tolist())
        return self._data

    def entry(self, i: int, j: int) -> CycScalar:
        if self.row_sqrt is not None or self.col_sqrt is not None:
            raise ValueError("entry() on a square-root-annotated matrix is not exact; "
                             "use data/annotations or to_complex_array()")
        return self.data[i][j]

    def is_square(self) -> bool:
        return self.row_space == self.col_space

    def _lifted(self, m: int) -> np.ndarray:
        """The stack over Q(zeta_m), m a multiple of self.m."""
        if m == self.m:
            return self.coords
        phi, rows, cols = self.coords.shape
        mat = lift_map(self.m, m)
        return coordinate_map(mat, self.coords.reshape(phi, -1)).reshape(-1, rows, cols)

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.col_space != other.row_space:
            raise ValueError(f"index-space mismatch: {self.col_space} vs {other.row_space}")
        mid: tuple[int, ...] | None
        if self.col_sqrt is None and other.row_sqrt is None:
            mid = None
        elif self.col_sqrt is not None and other.row_sqrt is not None:
            if self.col_sqrt != other.row_sqrt:
                raise ValueError("square-root annotations do not match in product")
            mid = self.col_sqrt
        else:
            raise ValueError("one-sided square-root annotation in product; "
                             "the result would leave the exact field")
        m = math.lcm(self.m, other.m)
        a, b = self._lifted(m), other._lifted(m)
        den = self.den * other.den
        if mid is not None:
            # diag(1/sqrt(d))^2 on the inner index: b's rows scaled by 1/d
            b, lcm = degree_scaled(b, mid)
            den *= lcm
        phi, rows, inner = a.shape
        cols = b.shape[2]
        # planes[i, j] = a[i] @ b[j], all phi^2 of them from one product
        planes = _exact_matmul(a.reshape(phi * rows, inner),
                               np.moveaxis(b, 0, 1).reshape(inner, phi * cols))
        planes = planes.reshape(phi, rows, phi, cols).swapaxes(1, 2).reshape(phi * phi, -1)
        coords = coordinate_map(product_map(m), planes).reshape(phi, rows, cols)
        return OpMatrix.from_coords(self.row_space, other.col_space, m, coords, den,
                                    row_sqrt=self.row_sqrt, col_sqrt=other.col_sqrt)

    def _require_same_frame(self, other: "OpMatrix"):
        if self.row_space != other.row_space or self.col_space != other.col_space:
            raise ValueError("index-space mismatch")
        if self.row_sqrt != other.row_sqrt or self.col_sqrt != other.col_sqrt:
            raise ValueError("square-root annotation mismatch")

    def _combined(self, other: "OpMatrix", sign: int) -> "OpMatrix":
        self._require_same_frame(other)
        m = math.lcm(self.m, other.m)
        den = math.lcm(self.den, other.den)
        coords = (self._lifted(m).astype(object) * (den // self.den)
                  + sign * other._lifted(m).astype(object) * (den // other.den))
        return self._like(coords, den, m)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return self._combined(other, 1)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return self._combined(other, -1)

    def scaled(self, c) -> "OpMatrix":
        """c times the matrix, c an int, Fraction or CycScalar."""
        c = c if isinstance(c, CycScalar) else CycScalar.rational(c)
        m = math.lcm(self.m, c.m)
        c = c.lift(m)
        mult = sum(x * zeta_power_map(m, k).astype(object) for k, x in enumerate(c.num))
        phi, rows, cols = self.coords.shape
        coords = mult @ self._lifted(m).astype(object).reshape(len(mult), -1)
        return self._like(coords.reshape(-1, rows, cols), self.den * c.den, m)

    def __neg__(self):
        return self.scaled(-1)

    def adjoint(self) -> "OpMatrix":
        coords = np.swapaxes(self.coords, 1, 2)
        if coords.shape[0] > 1:
            coords = coordinate_map(_conj_map(self.m), coords)
        return OpMatrix.from_coords(self.col_space, self.row_space, self.m, coords, self.den,
                                    row_sqrt=self.col_sqrt, col_sqrt=self.row_sqrt)

    @property
    def H(self) -> "OpMatrix":
        return self.adjoint()

    def power(self, k: int) -> "OpMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix powers not supported")
        out = OpMatrix.identity(self.row_space)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def trace(self) -> CycScalar:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        if self.row_sqrt != self.col_sqrt:
            raise ValueError("trace of an asymmetrically annotated matrix")
        similar = self.similar()
        diag = np.diagonal(similar.coords, axis1=1, axis2=2).astype(object)
        return CycScalar(self.m, tuple(int(x) for x in diag.sum(axis=1)), similar.den)

    def similar(self) -> "OpMatrix":
        """The unannotated matrix diag(1/d) core, similar to a matrix
        annotated with d on both sides (itself when unannotated): the same
        trace and characteristic polynomial, inside the field."""
        if self.row_sqrt != self.col_sqrt:
            raise ValueError("similar matrix of an asymmetrically annotated matrix")
        if self.row_sqrt is None:
            return self
        core, lcm = degree_scaled(self.coords, self.row_sqrt)
        return OpMatrix.from_coords(self.row_space, self.col_space, self.m, core,
                                    self.den * lcm)

    # -- predicates ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        if (self.row_space != other.row_space or self.col_space != other.col_space
                or self.row_sqrt != other.row_sqrt or self.col_sqrt != other.col_sqrt
                or self.den != other.den):
            return False
        m = math.lcm(self.m, other.m)
        return bool(np.array_equal(self._lifted(m), other._lifted(m)))

    def is_zero(self) -> bool:
        return not self.coords.any()

    def is_identity(self) -> bool:
        """Exact identity test, annotation-aware.

        With matching row/column annotations d the matrix equals I exactly
        when the core equals diag(d)."""
        if not self.is_square() or self.row_sqrt != self.col_sqrt:
            return False
        n = self.row_space.dim
        want = np.array(self.row_sqrt or (1,) * n, dtype=object) * self.den
        plane = self.coords[0]
        return (not self.coords[1:].any() and np.count_nonzero(plane) == n
                and bool((np.diagonal(plane) == want).all()))

    def is_self_adjoint(self) -> bool:
        return self.is_square() and self == self.adjoint()

    # -- conversion / rendering -----------------------------------------------------

    def to_complex_array(self):
        """Floating image: every entry within relative error 2^-50, as
        ``CycScalar.to_complex`` promises (``complex_images``)."""
        n, m = self.shape
        out = complex_images(self.m, self.coords.reshape(len(self.coords), -1),
                             self.den).reshape(n, m)
        if self.row_sqrt is not None:
            scale = np.array([d ** -0.5 for d in self.row_sqrt])
            out = scale[:, None] * out
        if self.col_sqrt is not None:
            scale = np.array([d ** -0.5 for d in self.col_sqrt])
            out = out * scale[None, :]
        return out

    def render_entry(self, i: int, j: int) -> str:
        x = self.data[i][j]
        if x.is_zero():
            return "0"
        s = x.render()
        factors = []
        if self.row_sqrt is not None and self.row_sqrt[i] != 1:
            factors.append(f"sqrt({self.row_sqrt[i]})")
        if self.col_sqrt is not None and self.col_sqrt[j] != 1:
            factors.append(f"sqrt({self.col_sqrt[j]})")
        if factors:
            if s != "1":
                return f"({s})/({'*'.join(factors)})"
            return f"1/({'*'.join(factors)})" if len(factors) > 1 else f"1/{factors[0]}"
        return s

    def render_text(self, floats: bool = False) -> str:
        rows = []
        if floats:
            arr = self.to_complex_array()
            for i in range(self.shape[0]):
                rows.append("  ".join(f"{arr[i, j]:.6g}" for j in range(self.shape[1])))
        else:
            cells = [[self.render_entry(i, j) for j in range(self.shape[1])]
                     for i in range(self.shape[0])]
            widths = [max(len(cells[i][j]) for i in range(len(cells))) if cells else 0
                      for j in range(self.shape[1])]
            for row in cells:
                rows.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(rows)

    def __repr__(self):
        ann = ""
        if self.row_sqrt is not None or self.col_sqrt is not None:
            ann = ", sqrt-annotated"
        return f"OpMatrix({self.row_space.kind}x{self.col_space.kind} {self.shape}{ann})"


# -- builders -----------------------------------------------------------------
#
# Every builder fills its stack from the arrays of the arc context (or the
# arc set, for H_eta); none forms an OpMatrix product.


def degree_scaled(mat: np.ndarray, deg, growth: int = 1) -> tuple[np.ndarray, int]:
    """(diag(L / deg) mat, L) with L = lcm(deg): the integer matrix over one
    denominator L that equals diag(1 / deg) mat, scaling the axis -2 of mat
    (rows, or the rows of every plane of a stack).  It is int64 when growth
    times its largest entry stays below 2**63 (``exact_ints``), Python ints
    otherwise."""
    deg = np.asarray(deg).tolist()
    lcm = math.lcm(*set(deg))
    scale = np.array([lcm // d for d in deg], dtype=object)
    scale = exact_ints(scale, growth * _max_abs(mat))
    return scale[:, None] * mat, lcm


def _phases(space: ArcSpace, eta: Angle) -> np.ndarray:
    """(phi, arcs) coordinates of e^{i theta(a)} = zeta_m^(p theta_weight(a))."""
    m = eta.order
    return zeta_coords(m)[:, (eta.p * np.asarray(space.theta_weight)) % m]


def _arc_matrix(space: ArcSpace, m: int, coords: np.ndarray, den: int = 1) -> OpMatrix:
    sp = arc_space_index(space)
    return OpMatrix.from_coords(sp, sp, m, coords, den)


def _incidence(g: Digraph, ends: np.ndarray, row_sqrt=None) -> OpMatrix:
    """[v = ends[a]] on positive-degree vertices x arcs."""
    space = arc_space(g)
    vs = vertex_space(g, positive_degree_only=True)
    core = np.array(vs.labels, dtype=np.int64)[:, None] == ends[None, :]
    return OpMatrix.from_coords(vs, arc_space_index(space), 2, core[None].astype(np.int64),
                                row_sqrt=row_sqrt)


def build_K(g: Digraph) -> OpMatrix:
    """Boundary matrix: K[v,a] = delta(v, t(a)) / sqrt(deg v), row-annotated."""
    space = arc_space(g)
    return _incidence(g, space.t, tuple(d for d in space.degree if d))


def build_S(g: Digraph) -> OpMatrix:
    """Plain shift: S[a,b] = delta(a, b^-1)."""
    space = arc_space(g)
    n = len(space)
    coords = np.zeros((1, n, n), dtype=np.int64)
    coords[0, np.arange(n), space.inv] = 1
    return _arc_matrix(space, 2, coords)


def build_S_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Twisted shift: S[a,b] = e^{i*theta(b)} delta(a, b^-1)."""
    space = arc_space(g)
    phases = _phases(space, eta)
    n = len(space)
    coords = np.zeros((len(phases), n, n), dtype=np.int64)
    coords[:, np.arange(n), space.inv] = phases[:, space.inv]
    return _arc_matrix(space, eta.order, coords)


def build_D_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Diagonal of arc phases e^{i*theta(a)}."""
    space = arc_space(g)
    phases = _phases(space, eta)
    n = len(space)
    coords = np.zeros((len(phases), n, n), dtype=np.int64)
    coords[:, np.arange(n), np.arange(n)] = phases
    return _arc_matrix(space, eta.order, coords)


def build_C(g: Digraph) -> OpMatrix:
    """Grover coin C = 2K*K - I = diag(1/deg t) Chat, and Chat = S (S Chat)."""
    space = arc_space(g)
    core, den = degree_scaled(space.s_chat[space.inv], space.deg[space.t])
    return _arc_matrix(space, 2, core[None], den)


def build_U_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Transfer matrix U_theta = S_theta C: row a of S_theta holds
    e^{i theta(a^-1)} in column a^-1, and row a^-1 of C is row a of S C =
    diag(1/deg o) S Chat, so U[a, c] = e^{i theta(a^-1)} s_chat[a, c] / deg o(a)."""
    space = arc_space(g)
    phases = _phases(space, eta)[:, space.inv]
    core, den = degree_scaled(space.s_chat, space.deg[space.o],
                              int(np.abs(phases).max()))
    return _arc_matrix(space, eta.order, phases[:, :, None] * core[None], den)


def build_U_grover(g: Digraph) -> OpMatrix:
    """Grover transfer matrix of the underlying graph: U = S C."""
    return build_U_theta(g, Angle(0, 1))


def _hermitian_coords(g: Digraph, eta: Angle) -> np.ndarray:
    """(phi, n, n) coordinates of H_eta: the codes adj + 2 adj^T (no arc,
    one-way forward, one-way backward, digon) index (0, e^{i eta},
    e^{-i eta}, 1)."""
    m = eta.order
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    if g.arcs:
        adj[tuple(np.array(sorted(g.arcs)).T)] = 1
    z = zeta_coords(m)
    table = np.stack([np.zeros(len(z), dtype=np.int64), z[:, eta.p % m], z[:, -eta.p % m],
                      z[:, 0]], axis=1)
    return table[:, adj + 2 * adj.T]


def build_H_eta(g: Digraph, eta: Angle) -> OpMatrix:
    """eta-Hermitian adjacency matrix on the full vertex set."""
    vs = vertex_space(g)
    return OpMatrix.from_coords(vs, vs, eta.order, _hermitian_coords(g, eta))


def build_H_tilde(g: Digraph, eta: Angle) -> OpMatrix:
    """Normalized eta-Hermitian adjacency matrix, degree-annotated factored form.

    Rows/columns are the positive-degree vertices; the core is the plain
    eta-Hermitian matrix restricted to them."""
    space = arc_space(g)
    vs = vertex_space(g, positive_degree_only=True)
    keep = np.array(vs.labels, dtype=np.int64)
    coords = _hermitian_coords(g, eta)[:, keep[:, None], keep[None, :]]
    d = tuple(space.degree[v] for v in vs.labels)
    return OpMatrix.from_coords(vs, vs, eta.order, coords, row_sqrt=d, col_sqrt=d)


def build_F(g: Digraph) -> tuple[OpMatrix, OpMatrix]:
    """Terminus and origin incidence matrices (F_t, F_o)."""
    space = arc_space(g)
    return _incidence(g, space.t), _incidence(g, space.o)


def build_R(g: Digraph) -> OpMatrix:
    """Digon locator: R[a,b] = 1 iff the pair (t(b), o(a)) is a digon arc."""
    space = arc_space(g)
    digon = np.zeros((g.n, g.n), dtype=np.int64)
    for x, y in digons(g):
        digon[x, y] = digon[y, x] = 1
    return _arc_matrix(space, 2, digon[space.o[:, None], space.t[None, :]][None])
