"""Exact construction of every walk-operator matrix defined by a digraph.

All stored entries are exact cyclotomic-rational scalars.  The boundary
matrix and the normalized Hermitian adjacency matrix contain 1/sqrt(degree)
factors that live outside the field; those two are kept in factored form,
an exact core with an inverse-square-root degree annotation on the rows
and/or columns.  Products where two annotations meet fold into exact
rational diagonal factors, so every product the library forms (the coin,
the transfer matrix, the discriminant) stays inside the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import Angle, CycScalar, complex_images, make_root
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


class OpMatrix:
    """Dense exact matrix with named row/column index spaces.

    ``row_sqrt``/``col_sqrt``, when set, are positive-integer vectors d such
    that the represented matrix is diag(1/sqrt(d)) * data (resp. on the
    right).  Index spaces and annotations must agree in products.
    """

    __slots__ = ("row_space", "col_space", "data", "row_sqrt", "col_sqrt")

    def __init__(self, row_space, col_space, data, row_sqrt=None, col_sqrt=None):
        self.row_space = row_space
        self.col_space = col_space
        self.data = tuple(tuple(row) for row in data)
        if len(self.data) != row_space.dim:
            raise ValueError("row count does not match row space")
        if self.data and any(len(r) != col_space.dim for r in self.data):
            raise ValueError("column count does not match column space")
        self.row_sqrt = tuple(row_sqrt) if row_sqrt is not None else None
        self.col_sqrt = tuple(col_sqrt) if col_sqrt is not None else None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(space: IndexSpace) -> "OpMatrix":
        one, zero = CycScalar.rational(1), CycScalar.rational(0)
        n = space.dim
        return OpMatrix(space, space,
                        [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def ones(space: IndexSpace) -> "OpMatrix":
        one = CycScalar.rational(1)
        n = space.dim
        return OpMatrix(space, space, [[one] * n for _ in range(n)])

    @staticmethod
    def zeros(row_space: IndexSpace, col_space: IndexSpace) -> "OpMatrix":
        zero = CycScalar.rational(0)
        return OpMatrix(row_space, col_space,
                        [[zero] * col_space.dim for _ in range(row_space.dim)])

    # -- basic queries -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_space.dim, self.col_space.dim)

    def entry(self, i: int, j: int) -> CycScalar:
        if self.row_sqrt is not None or self.col_sqrt is not None:
            raise ValueError("entry() on a square-root-annotated matrix is not exact; "
                             "use data/annotations or to_complex_array()")
        return self.data[i][j]

    def is_square(self) -> bool:
        return self.row_space == self.col_space

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
        n, k, m = self.row_space.dim, self.col_space.dim, other.col_space.dim
        a, b = self.data, other.data
        scale = None if mid is None else [Fraction(1, d) for d in mid]
        zero = CycScalar.rational(0)
        out = []
        for i in range(n):
            arow = a[i]
            orow = [zero] * m
            for t in range(k):
                x = arow[t]
                if x.is_zero():
                    continue
                if scale is not None:
                    x = x * scale[t]
                brow = b[t]
                for j in range(m):
                    y = brow[j]
                    if not y.is_zero():
                        orow[j] = orow[j] + x * y
            out.append(orow)
        return OpMatrix(self.row_space, other.col_space, out,
                        row_sqrt=self.row_sqrt, col_sqrt=other.col_sqrt)

    def _require_same_frame(self, other: "OpMatrix"):
        if self.row_space != other.row_space or self.col_space != other.col_space:
            raise ValueError("index-space mismatch")
        if self.row_sqrt != other.row_sqrt or self.col_sqrt != other.col_sqrt:
            raise ValueError("square-root annotation mismatch")

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        self._require_same_frame(other)
        return OpMatrix(self.row_space, self.col_space,
                        [[x + y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)],
                        row_sqrt=self.row_sqrt, col_sqrt=self.col_sqrt)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        self._require_same_frame(other)
        return OpMatrix(self.row_space, self.col_space,
                        [[x - y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)],
                        row_sqrt=self.row_sqrt, col_sqrt=self.col_sqrt)

    def scaled(self, c) -> "OpMatrix":
        return OpMatrix(self.row_space, self.col_space,
                        [[x * c for x in row] for row in self.data],
                        row_sqrt=self.row_sqrt, col_sqrt=self.col_sqrt)

    def __neg__(self):
        return self.scaled(-1)

    def adjoint(self) -> "OpMatrix":
        n, m = self.shape
        data = [[self.data[i][j].conj() for i in range(n)] for j in range(m)]
        return OpMatrix(self.col_space, self.row_space, data,
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
        total = CycScalar.rational(0)
        for i in range(self.row_space.dim):
            x = self.data[i][i]
            if self.row_sqrt is not None:
                x = x * Fraction(1, self.row_sqrt[i])
            total = total + x
        return total

    # -- predicates ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return (self.row_space == other.row_space and self.col_space == other.col_space
                and self.row_sqrt == other.row_sqrt and self.col_sqrt == other.col_sqrt
                and self.data == other.data)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def is_identity(self) -> bool:
        """Exact identity test, annotation-aware.

        With matching row/column annotations d the matrix equals I exactly
        when the core equals diag(d)."""
        if not self.is_square():
            return False
        if self.row_sqrt != self.col_sqrt:
            return False
        n = self.row_space.dim
        for i in range(n):
            for j in range(n):
                x = self.data[i][j]
                if i == j:
                    want = 1 if self.row_sqrt is None else self.row_sqrt[i]
                    if x != want:
                        return False
                elif not x.is_zero():
                    return False
        return True

    def is_self_adjoint(self) -> bool:
        return self.is_square() and self == self.adjoint()

    # -- conversion / rendering -----------------------------------------------------

    def to_complex_array(self):
        """Floating image: every entry within relative error 2^-50, as
        ``CycScalar.to_complex`` promises (``complex_images``)."""
        n, m = self.shape
        out = complex_images([x for row in self.data for x in row]).reshape(n, m)
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


def build_K(g: Digraph) -> OpMatrix:
    """Boundary matrix: K[v,a] = delta(v, t(a)) / sqrt(deg v), row-annotated."""
    space = arc_space(g)
    vs = vertex_space(g, positive_degree_only=True)
    one, zero = CycScalar.rational(1), CycScalar.rational(0)
    rows = []
    for v in vs.labels:
        rows.append([one if space.terminus[j] == v else zero for j in range(len(space))])
    return OpMatrix(vs, arc_space_index(space), rows,
                    row_sqrt=tuple(space.degree[v] for v in vs.labels))


def build_S(g: Digraph) -> OpMatrix:
    """Plain shift: S[a,b] = delta(a, b^-1)."""
    space = arc_space(g)
    one, zero = CycScalar.rational(1), CycScalar.rational(0)
    inv = space.inv.tolist()
    sp = arc_space_index(space)
    return OpMatrix(sp, sp, [[one if b == i else zero for b in inv] for i in range(len(inv))])


def build_S_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Twisted shift: S[a,b] = e^{i*theta(b)} delta(a, b^-1)."""
    space = arc_space(g)
    m = eta.order
    zero = CycScalar.rational(0, m)
    root = make_root(eta)
    phases = {0: CycScalar.rational(1, m), 1: root, -1: root.conj()}
    n = len(space)
    sp = arc_space_index(space)
    rows = []
    for i in range(n):
        row = [zero] * n
        j = space.inv[i]
        row[j] = phases[space.theta_weight[j]]
        rows.append(row)
    return OpMatrix(sp, sp, rows)


def build_D_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Diagonal of arc phases e^{i*theta(a)}."""
    space = arc_space(g)
    m = eta.order
    zero = CycScalar.rational(0, m)
    root = make_root(eta)
    phases = {0: CycScalar.rational(1, m), 1: root, -1: root.conj()}
    n = len(space)
    sp = arc_space_index(space)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = phases[space.theta_weight[i]]
        rows.append(row)
    return OpMatrix(sp, sp, rows)


def build_C(g: Digraph) -> OpMatrix:
    """Grover coin C = 2K*K - I, assembled directly in the exact field."""
    space = arc_space(g)
    n = len(space)
    sp = arc_space_index(space)
    zero = CycScalar.rational(0)
    rows = []
    for i in range(n):
        ti = space.terminus[i]
        d = space.degree[ti]
        row = []
        for j in range(n):
            if space.terminus[j] == ti:
                row.append(CycScalar.rational(Fraction(2, d) - (1 if i == j else 0)))
            else:
                row.append(zero)
        rows.append(row)
    return OpMatrix(sp, sp, rows)


def build_U_theta(g: Digraph, eta: Angle) -> OpMatrix:
    """Transfer matrix U_theta = S_theta C."""
    return build_S_theta(g, eta) @ build_C(g)


def build_U_grover(g: Digraph) -> OpMatrix:
    """Grover transfer matrix of the underlying graph: U = S C."""
    return build_S(g) @ build_C(g)


def build_H_eta(g: Digraph, eta: Angle) -> OpMatrix:
    """eta-Hermitian adjacency matrix on the full vertex set."""
    m = eta.order
    zero, one = CycScalar.rational(0, m), CycScalar.rational(1, m)
    root = make_root(eta)
    rows = []
    for x in range(g.n):
        row = []
        for y in range(g.n):
            fwd, bwd = (x, y) in g.arcs, (y, x) in g.arcs
            if fwd and bwd:
                row.append(one)
            elif fwd:
                row.append(root)
            elif bwd:
                row.append(root.conj())
            else:
                row.append(zero)
        rows.append(row)
    vs = vertex_space(g)
    return OpMatrix(vs, vs, rows)


def build_H_tilde(g: Digraph, eta: Angle) -> OpMatrix:
    """Normalized eta-Hermitian adjacency matrix, degree-annotated factored form.

    Rows/columns are the positive-degree vertices; the core is the plain
    eta-Hermitian matrix restricted to them."""
    space = arc_space(g)
    vs = vertex_space(g, positive_degree_only=True)
    full = build_H_eta(g, eta)
    rows = [[full.data[x][y] for y in vs.labels] for x in vs.labels]
    d = tuple(space.degree[v] for v in vs.labels)
    return OpMatrix(vs, vs, rows, row_sqrt=d, col_sqrt=d)


def build_F(g: Digraph) -> tuple[OpMatrix, OpMatrix]:
    """Terminus and origin incidence matrices (F_t, F_o)."""
    space = arc_space(g)
    vs = vertex_space(g, positive_degree_only=True)
    one, zero = CycScalar.rational(1), CycScalar.rational(0)
    sp = arc_space_index(space)
    ft = [[one if space.terminus[j] == v else zero for j in range(len(space))]
          for v in vs.labels]
    fo = [[one if space.origin[j] == v else zero for j in range(len(space))]
          for v in vs.labels]
    return OpMatrix(vs, sp, ft), OpMatrix(vs, sp, fo)


def build_R(g: Digraph) -> OpMatrix:
    """Digon locator: R[a,b] = 1 iff the pair (t(b), o(a)) is a digon arc."""
    space = arc_space(g)
    dig = digons(g)
    one, zero = CycScalar.rational(1), CycScalar.rational(0)
    n = len(space)
    sp = arc_space_index(space)
    rows = []
    for i in range(n):
        oi = space.origin[i]
        row = []
        for j in range(n):
            tb = space.terminus[j]
            pair = (min(tb, oi), max(tb, oi))
            row.append(one if tb != oi and pair in dig else zero)
        rows.append(row)
    return OpMatrix(sp, sp, rows)
