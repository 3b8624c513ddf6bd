"""Cospectral classing of enumerated digraphs and the published count tables.

Digraphs of one order are grouped by exact characteristic polynomial of a
chosen matrix functor: the 0/1 adjacency matrix, the eta-Hermitian
adjacency matrix, or the positive support of the squared transfer matrix
(the arcless digraph is excluded for the latter, which needs an arc space).
By the middle-arc lemma that support depends only on the underlying graph
and the digon set, so it is keyed once per (underlying graph, digon set)
class, at any rational angle, and its key counts for every orientation of
the class.
Class counts are split by whether class members are graphs (every arc in a
digon) or proper digraphs.  One pipeline serves every order: each base
(underlying graph) is one partition, its orientations are keyed (on worker
processes if asked), and the partitions are merged.  One order-6 column
(1 540 944 digraphs) takes 8 to 10 s (H_eta) or 13 to 16 s (A, U2plus) on
one core.
"""

from __future__ import annotations

import json
import multiprocessing as mp
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import Angle
from .digraph import Digraph, PreconditionError, arc_space, underlying, underlying_edges
from .enumeration import (
    DIGRAPH_CLASS_COUNTS,
    digon_set_digits,
    enumerate_undirected_graphs,
    orientation_stack,
)
from .operators import build_H_eta
from .spectra import charpoly_batch, charpoly_exact, cospectral_key, hermitian_charpoly_batch
from .supports import digon_locator, eta_regime, grover_square_signs, square_support_formula

FUNCTORS = ("A", "H", "Heta", "U2plus")


def _int_key(coeffs) -> bytes:
    return ";".join(str(v) for v in coeffs).encode()


def _digraph(adj: np.ndarray) -> Digraph:
    u, v = np.nonzero(adj)
    return Digraph(len(adj), frozenset(zip(u.tolist(), v.tolist())))


def _lemma_keys(base: Digraph, digons: np.ndarray, eta: Angle) -> list[bytes]:
    """Keys of (U_theta^2)^+ for the digraphs with underlying graph ``base``
    and the digon sets of a (B, n, n) stack of symmetric 0/1 matrices.

    By the middle-arc lemma (``supports``) each support comes from the
    Grover square signs of the base and the locator of the digon set; all
    have dimension 2m, so one charpoly_batch call keys them all."""
    space = arc_space(base)
    u2 = grover_square_signs(base)
    regime = eta_regime(eta)
    supports = np.stack([square_support_formula(u2, digon_locator(space, d), regime, "+")
                         for d in digons])
    return [_int_key(c) for c in charpoly_batch(supports)]


def _checked_functor(functor: str, eta: Angle | None) -> tuple[str, Angle | None]:
    """The functor and angle to key by: H is H_eta at pi/2."""
    if functor == "H":
        return "Heta", Angle(1, 2)
    if functor not in FUNCTORS:
        raise PreconditionError(f"unsupported functor {functor!r}; pick one of {FUNCTORS}")
    if functor != "A" and eta is None:
        raise PreconditionError(f"{functor} classing needs an angle")
    return functor, eta


def _classing_keys(adj: np.ndarray, functor: str, eta: Angle | None) -> list[bytes]:
    """Canonical charpoly keys of functor(g), A or H_eta, for a (B, n, n)
    stack of 0/1 adjacency matrices.  Every integer and quadratic-field
    charpoly comes from one kernel call: charpoly_batch for A,
    hermitian_charpoly_batch for H_eta at angles of order 2, 4 and 6.  At
    other angles each H_eta takes charpoly_exact's modular route."""
    if functor == "A":
        return [_int_key(c) for c in charpoly_batch(adj)]
    if eta.order in (2, 4, 6):
        return [_int_key(c) for c in hermitian_charpoly_batch(adj, eta)]
    return [cospectral_key(charpoly_exact(build_H_eta(_digraph(a), eta))) for a in adj]


def classing_key(g: Digraph, functor: str, eta: Angle | None) -> bytes | None:
    """Canonical charpoly key of functor(g); None when g is excluded."""
    functor, eta = _checked_functor(functor, eta)
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.arcs:
        adj[u, v] = 1
    if functor != "U2plus":
        return _classing_keys(adj[None], functor, eta)[0]
    if not g.arcs:
        return None
    return _lemma_keys(underlying(g), (adj & adj.T)[None], eta)[0]


@dataclass(frozen=True)
class CospectralTable:
    order: int
    functor: str
    eta: Angle | None
    n_digraphs: int        # all isomorphism classes of the order
    n_excluded: int        # dropped before classing (the arcless digraph)
    n_distinct: int
    max_class: int
    n_determined: int
    classes_no_graph: int
    classes_only_graphs: int
    classes_mixed: int

    def row_values(self) -> tuple[int, ...]:
        return (self.n_digraphs, self.n_distinct, self.max_class, self.n_determined,
                self.classes_no_graph, self.classes_only_graphs, self.classes_mixed)

    def validate(self):
        parts = self.classes_no_graph + self.classes_only_graphs + self.classes_mixed
        if parts != self.n_distinct:
            raise ArithmeticError("class composition does not sum to distinct count")

    def label(self) -> str:
        if self.functor == "A":
            return "A"
        if self.functor in ("H", "Heta"):
            return f"H[{self.eta}]" if self.functor == "Heta" else "H"
        return f"U2+[{self.eta}]"


ROW_LABELS = (
    "Number of digraphs",
    "Number of distinct characteristic polynomials",
    "Maximum size of a cospectral class",
    "Number of digraphs determined by spectrum",
    "Classes containing: a) no graphs",
    "b) only graphs",
    "c) at least one graph and a digraph",
)


def _table_from_classes(order, functor, eta, n_total, n_excluded, classes) -> CospectralTable:
    sizes = [c[0] for c in classes.values()]
    a = b = c = 0
    for total, graphs in classes.values():
        if graphs == 0:
            a += 1
        elif graphs == total:
            b += 1
        else:
            c += 1
    table = CospectralTable(
        order=order, functor=functor, eta=eta,
        n_digraphs=n_total, n_excluded=n_excluded,
        n_distinct=len(classes),
        max_class=max(sizes) if sizes else 0,
        n_determined=sum(1 for s in sizes if s == 1),
        classes_no_graph=a, classes_only_graphs=b, classes_mixed=c)
    table.validate()
    if sum(sizes) != n_total - n_excluded:
        raise ArithmeticError("class sizes do not sum to the classed digraph count")
    return table


# digraphs whose matrices are built and keyed together
_KEY_BLOCK = 1 << 11


@lru_cache(maxsize=None)
def _bases(order: int) -> tuple[Digraph, ...]:
    """The underlying graphs of one order, the partitions of classify."""
    return tuple(enumerate_undirected_graphs(order))


def _key_partition(task):
    """(digraphs, excluded, {key: [class size, graphs in class]}) for the
    orientations of one base; task = (order, functor, eta, index of the base
    in _bases(order)), the functor as _checked_functor returns it.  A and
    H_eta key every orientation; U2plus keys each digon-set class once and
    counts its key for all of its orientations."""
    order, functor, eta, index = task
    base = _bases(order)[index]
    classes: dict = {}
    if functor == "U2plus":
        if not base.arcs:
            return 1, 1, classes          # the arcless digraph is excluded
        digits = list(digon_set_digits(base))
        u, v = np.array(underlying_edges(base)).T
        digons = np.zeros((len(digits), order, order), dtype=np.int64)
        digons[:, u, v] = digons[:, v, u] = [is_digon for is_digon, _ in digits]
        for key, (is_digon, bits) in zip(_lemma_keys(base, digons, eta), digits):
            slot = classes.setdefault(key, [0, 0])
            slot[0] += bits.shape[1]
            slot[1] += bool(is_digon.all())   # D = E: the one orientation is the graph
        return sum(count for count, _ in classes.values()), 0, classes
    stack = orientation_stack(base)
    for first in range(0, len(stack), _KEY_BLOCK):
        adj = stack[first:first + _KEY_BLOCK]
        graphs = (adj == np.swapaxes(adj, 1, 2)).all(axis=(1, 2)).tolist()
        for key, graph in zip(_classing_keys(adj, functor, eta), graphs):
            slot = classes.setdefault(key, [0, 0])
            slot[0] += 1
            slot[1] += graph
    return len(stack), 0, classes


def _fold(results):
    """Sum keyed results into one (digraphs, excluded, classes) record."""
    classes: dict = {}
    n_total = n_excluded = 0
    for pt, pe, part in results:
        n_total += pt
        n_excluded += pe
        for key, (count, graphs) in part.items():
            slot = classes.setdefault(key, [0, 0])
            slot[0] += count
            slot[1] += graphs
    return n_total, n_excluded, classes


def classify(order: int, functor: str, eta: Angle | None = None,
             jobs: int = 1) -> CospectralTable:
    """Group all digraphs of one order by exact charpoly of the functor.

    Each base (underlying graph) of the order is one partition, its
    orientations keyed once: in this process when ``jobs`` is 1, on ``jobs``
    worker processes otherwise; the result does not depend on jobs.  One
    order-6 column takes 8 to 10 s (H_eta) or 13 to 16 s (A, U2plus) with
    one job and about half that with two."""
    if order not in DIGRAPH_CLASS_COUNTS:
        raise PreconditionError(f"classing supports orders 2..6, got {order}")
    tasks = [(order, *_checked_functor(functor, eta), index)
             for index in range(len(_bases(order)))]
    if jobs > 1:
        # the platform's default start method: "spawn" would re-import the
        # caller's __main__ in every worker, which fails (and respawns
        # without end) for scripts read from stdin
        pool = mp.Pool(min(jobs, len(tasks)))
        keyed = pool.imap(_key_partition, tasks)
    else:
        pool = nullcontext()
        keyed = map(_key_partition, tasks)
    with pool:
        return _table_from_classes(order, functor, eta, *_fold(keyed))


# -- standard table set -------------------------------------------------------

STANDARD_TABLES: dict[str, tuple[str, Angle | None]] = {
    "A": ("A", None),
    "H_pi3": ("Heta", Angle(1, 3)),
    "H": ("H", Angle(1, 2)),
    "H_2pi3": ("Heta", Angle(2, 3)),
    "U2_pi2": ("U2plus", Angle(1, 2)),
    "U2_gt_pi2": ("U2plus", Angle(2, 3)),
}

# published cell values (digraphs, distinct, max class, determined, a, b, c)
PUBLISHED_CELLS: dict[str, dict[int, tuple[int, ...]]] = {
    "A": {
        2: (3, 2, 2, 1, 0, 1, 1),
        3: (16, 7, 6, 5, 3, 2, 2),
        4: (218, 46, 42, 23, 35, 5, 6),
        5: (9608, 718, 592, 166, 685, 15, 18),
        6: (1540944, 35237, 15842, 2314, 35086, 69, 82),
    },
    "H_pi3": {
        2: (3, 2, 2, 1, 0, 1, 1),
        3: (16, 7, 6, 3, 3, 1, 3),
        4: (218, 41, 18, 9, 30, 1, 10),
        5: (9608, 765, 84, 82, 732, 1, 32),
        6: (1540944, 81175, 888, 1559, 81024, 1, 150),
    },
    "H": {
        2: (3, 2, 2, 1, 0, 1, 1),
        3: (16, 6, 6, 2, 2, 1, 3),
        4: (218, 27, 21, 3, 16, 1, 10),
        5: (9608, 275, 158, 5, 242, 1, 32),
        6: (1540944, 10920, 1338, 16, 10769, 1, 150),
    },
    "H_2pi3": {
        2: (3, 2, 2, 1, 0, 1, 1),
        3: (16, 5, 6, 1, 1, 1, 3),
        4: (218, 20, 27, 1, 9, 1, 10),
        5: (9608, 150, 243, 1, 117, 1, 32),
        6: (1540944, 3698, 2430, 1, 3547, 1, 150),
    },
    "U2_pi2": {
        2: (3, 2, 1, 2, 1, 1, 0),
        3: (16, 6, 6, 4, 3, 3, 0),
        4: (218, 34, 53, 13, 25, 9, 0),
        5: (9608, 371, 700, 50, 339, 32, 0),
        6: (1540944, 11748, 37013, 284, 11598, 150, 0),
    },
    "U2_gt_pi2": {
        2: (3, 2, 1, 2, 1, 1, 0),
        3: (16, 6, 6, 4, 3, 3, 0),
        4: (218, 45, 22, 13, 36, 9, 0),
        5: (9608, 601, 204, 47, 569, 27, 5),
        6: (1540944, 20306, 5120, 280, 20156, 135, 15),
    },
}


def verify_against_published(table_id: str, table: CospectralTable) -> list[str]:
    """Mismatch descriptions against the published cells (empty = match)."""
    expected = PUBLISHED_CELLS.get(table_id, {}).get(table.order)
    if expected is None:
        return [f"no published values for {table_id} order {table.order}"]
    got = table.row_values()
    out = []
    for label, e, g in zip(ROW_LABELS, expected, got):
        if e != g:
            out.append(f"{table_id} order {table.order}: {label}: expected {e}, got {g}")
    return out


# -- rendering ----------------------------------------------------------------


def emit_table(tables, fmt: str = "markdown") -> str:
    """Render one table or a same-functor collection, orders as columns."""
    if isinstance(tables, CospectralTable):
        tables = [tables]
    tables = sorted(tables, key=lambda t: t.order)
    orders = [t.order for t in tables]
    header = [t.label() for t in tables]
    title = header[0] if header else ""
    rows = [list(r) for r in zip(*(t.row_values() for t in tables))] if tables else []
    if fmt == "json":
        return json.dumps({
            "functor": title,
            "orders": orders,
            "rows": {label: vals for label, vals in zip(ROW_LABELS, rows)},
        }, indent=2)
    if fmt == "csv":
        lines = ["," + ",".join(f"order {o}" for o in orders)]
        for label, vals in zip(ROW_LABELS, rows):
            lines.append(f"\"{label}\"," + ",".join(str(v) for v in vals))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [f"| {title} | " + " | ".join(f"order {o}" for o in orders) + " |",
                 "|" + "---|" * (len(orders) + 1)]
        for label, vals in zip(ROW_LABELS, rows):
            lines.append(f"| {label} | " + " | ".join(str(v) for v in vals) + " |")
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"unknown format {fmt!r}; pick csv, json or markdown")
