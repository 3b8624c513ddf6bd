"""Cospectral classing of enumerated digraphs and the published count tables.

Digraphs of one order are grouped by exact characteristic polynomial of a
chosen matrix functor: the 0/1 adjacency matrix, the eta-Hermitian
adjacency matrix, or the positive support of the squared transfer matrix
(the arcless digraph is excluded for the latter, which needs an arc space).
Class counts are split by whether class members are graphs (every arc in a
digon) or proper digraphs.  One pipeline serves every order: the code space
is cut into partitions, each is keyed (on worker processes if asked) and
optionally checkpointed to disk, and the partitions are merged; the
checkpoints make the order-6 run resumable.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .cyclotomic import Angle
from .digraph import Digraph, PreconditionError, is_graph
from .enumeration import code_value_to_digraph, enumerate_digraph_codes
from .operators import build_H_eta
from .spectra import charpoly_exact, charpoly_int, cospectral_key
from .supports import sign_data_power, power_support

FUNCTORS = ("A", "H", "Heta", "U2plus")

# quadratic-ring reduction zeta^2 = s + t*zeta for the tabulated angles
_QUAD_RULE = {4: (-1, 0), 6: (-1, 1)}


def _charpoly_pairs(rows, s: int, t: int) -> list[int]:
    """Berkowitz over Z[zeta] with zeta^2 = s + t*zeta; entries are int pairs.

    The input must be Hermitian so that the coefficients are plain integers;
    a nonzero zeta-component in any coefficient is an arithmetic error."""
    n = len(rows)

    def pmul(x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + s * bd, a * d + b * c + t * bd)

    def pdot(xs, ys):
        a0 = b0 = 0
        for (a, b), (c, d) in zip(xs, ys):
            bd = b * d
            a0 += a * c + s * bd
            b0 += a * d + b * c + t * bd
        return (a0, b0)

    if n == 0:
        return [1]
    one, zero = (1, 0), (0, 0)
    coeffs = [one, (-rows[0][0][0], -rows[0][0][1])]
    for k in range(1, n):
        d = rows[k][k]
        r = rows[k][:k]
        c = [rows[j][k] for j in range(k)]
        sub = [row[:k] for row in rows[:k]]
        sm = []
        v = c
        for j in range(k):
            sm.append(pdot(r, v))
            if j < k - 1:
                v = [pdot(row, v) for row in sub]
        t_col = [one, (-d[0], -d[1])] + [(-x[0], -x[1]) for x in sm]
        new = []
        for i in range(k + 2):
            acc = zero
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                p = pmul(t_col[i - j], coeffs[j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            new.append(acc)
        coeffs = new
    out = []
    for a, b in coeffs:
        if b:
            raise ArithmeticError("Hermitian charpoly produced a non-real coefficient")
        out.append(a)
    return out


def _hermitian_pair_rows(g: Digraph, eta: Angle):
    """H_eta entries as integer pairs over {1, zeta_m}, for m in {2, 4, 6}."""
    m = eta.order
    from .cyclotomic import make_root

    root = make_root(eta)
    fwd = tuple(root.num) if m != 2 else (root.num[0], 0)
    bwd = tuple(root.conj().num) if m != 2 else (root.conj().num[0], 0)
    rows = []
    for x in range(g.n):
        row = []
        for y in range(g.n):
            f, b = (x, y) in g.arcs, (y, x) in g.arcs
            if f and b:
                row.append((1, 0))
            elif f:
                row.append(fwd)
            elif b:
                row.append(bwd)
            else:
                row.append((0, 0))
        rows.append(row)
    return rows


def _int_key(coeffs) -> bytes:
    return ";".join(str(v) for v in coeffs).encode()


def classing_key(g: Digraph, functor: str, eta: Angle | None) -> bytes | None:
    """Canonical charpoly key of functor(g); None when g is excluded."""
    if functor == "A":
        rows = [[1 if (i, j) in g.arcs else 0 for j in range(g.n)] for i in range(g.n)]
        return _int_key(charpoly_int(rows))
    if functor == "H":
        eta = Angle(1, 2)
        functor = "Heta"
    if functor == "Heta":
        if eta is None:
            raise PreconditionError("Heta classing needs an angle")
        m = eta.order
        if m == 2:
            sign = 1 if eta.p == 0 else -1
            rows = [[(1 if (y, x) in g.arcs else sign) if (x, y) in g.arcs
                     else (sign if (y, x) in g.arcs else 0)
                     for y in range(g.n)] for x in range(g.n)]
            return _int_key(charpoly_int(rows))
        if m in _QUAD_RULE:
            s, t = _QUAD_RULE[m]
            return _int_key(_charpoly_pairs(_hermitian_pair_rows(g, eta), s, t))
        return cospectral_key(charpoly_exact(build_H_eta(g, eta)))
    if functor == "U2plus":
        if eta is None:
            raise PreconditionError("U2plus classing needs an angle")
        if not g.arcs:
            return None  # the arcless digraph is excluded
        signs = sign_data_power(g, eta, 2)
        if signs is None:
            sup = power_support(g, eta, 2, "+")
            rows = sup.rows()
        else:
            rows = (signs == 1).astype(np.int64).tolist()
        return _int_key(charpoly_int(rows))
    raise PreconditionError(f"unsupported functor {functor!r}; pick one of {FUNCTORS}")


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


def _key_partition(task):
    """(digraphs, excluded, {key: [class size, graphs in class]}) for the
    canonical codes in [lo, hi); task = (order, functor, eta, lo, hi)."""
    order, functor, eta, lo, hi = task
    classes: dict = {}
    n_total = n_excluded = 0
    for block in enumerate_digraph_codes(order, chunk=hi - lo, start=lo, stop=hi):
        for value in block.tolist():
            g = code_value_to_digraph(order, value)
            n_total += 1
            key = classing_key(g, functor, eta)
            if key is None:
                n_excluded += 1
                continue
            slot = classes.setdefault(key, [0, 0])
            slot[0] += 1
            slot[1] += is_graph(g)
    return n_total, n_excluded, classes


def _keyed_partitions(todo: dict, jobs: int, ckdir: Path | None):
    """Key each partition of ``todo`` (index -> _key_partition task) once, on
    a pool of ``jobs`` workers when there is more than one, and write it to
    the checkpoint directory if there is one."""
    if jobs > 1 and len(todo) > 1:
        # the platform's default start method: "spawn" would re-import the
        # caller's __main__ in every worker, which fails (and respawns
        # without end) for scripts read from stdin
        pool = mp.Pool(min(jobs, len(todo)))
        keyed = pool.imap(_key_partition, todo.values())
    else:
        pool = nullcontext()
        keyed = map(_key_partition, todo.values())
    with pool:
        for part, result in zip(todo, keyed):
            if ckdir is not None:
                _write_partition(ckdir, part, result)
            yield result


def _merge(order, functor, eta, partitions) -> CospectralTable:
    classes: dict = {}
    n_total = n_excluded = 0
    for pt, pe, part in partitions:
        n_total += pt
        n_excluded += pe
        for key, (count, graphs) in part.items():
            slot = classes.setdefault(key, [0, 0])
            slot[0] += count
            slot[1] += graphs
    return _table_from_classes(order, functor, eta, n_total, n_excluded, classes)


def classify(order: int, functor: str, eta: Angle | None = None, chunk: int = 1 << 22,
             jobs: int = 1, checkpoint: str | Path | None = None) -> CospectralTable:
    """Group all digraphs of one order by exact charpoly of the functor.

    The code space is cut into ``chunk``-value partitions, each keyed once:
    in this process when ``jobs`` is 1, on ``jobs`` worker processes
    otherwise.  With a ``checkpoint`` directory every keyed partition is
    written there and partitions already there are read back instead, so an
    interrupted run resumes where it stopped.  The result depends on none of
    chunk, jobs and the resume point."""
    space = 4 ** (order * (order - 1) // 2)
    todo = {part: (order, functor, eta, lo, min(lo + chunk, space))
            for part, lo in enumerate(range(0, space, chunk))}
    ckdir = None if checkpoint is None else Path(checkpoint)
    stored: list[int] = []
    if ckdir is not None:
        _open_checkpoint(ckdir, order, functor, eta, chunk, len(todo))
        stored = [part for part in todo if _partition_path(ckdir, part).exists()]
        for part in stored:
            del todo[part]
    partitions = chain((_read_partition(ckdir, part) for part in stored),
                       _keyed_partitions(todo, jobs, ckdir))
    return _merge(order, functor, eta, partitions)


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


def published_cells(table_id: str, order: int) -> tuple[int, ...]:
    return PUBLISHED_CELLS[table_id][order]


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


# -- checkpoint files -------------------------------------------------------------

# Version of the classing_key encoding; raise it whenever a key for the same
# digraph changes, so that partitions written under the old keys are refused.
KEY_FORMAT = 1


def _open_checkpoint(ckdir: Path, order, functor, eta, chunk, n_parts):
    """Create the directory, or refuse it when its meta.json records another run."""
    ckdir.mkdir(parents=True, exist_ok=True)
    meta_path = ckdir / "meta.json"
    meta = {
        "order": order, "functor": functor,
        "eta": str(eta) if eta else None,
        "chunk": chunk, "partitions": n_parts,
        "key_format": KEY_FORMAT,
    }
    if meta_path.exists():
        try:
            old = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"checkpoint {meta_path} is unreadable: {exc}") from exc
        if old != meta:
            raise PreconditionError(f"checkpoint directory {ckdir} holds a different run: {old}")
    else:
        meta_path.write_text(json.dumps(meta))


def _partition_path(ckdir: Path, part: int) -> Path:
    return ckdir / f"part-{part:06d}.bin"


def _write_partition(ckdir: Path, part: int, result):
    n_total, n_excluded, classes = result
    path = _partition_path(ckdir, part)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(struct.pack(">QQ", n_total, n_excluded))
        for key, (count, graphs) in sorted(classes.items()):
            fh.write(struct.pack(">I", len(key)))
            fh.write(key)
            fh.write(struct.pack(">QQ", count, graphs))
    tmp.rename(path)


def _read_partition(ckdir: Path, part: int):
    path = _partition_path(ckdir, part)
    classes = {}
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise PreconditionError(f"checkpoint partition {part} ({path}): truncated header")
        n_total, n_excluded = struct.unpack(">QQ", head)
        while True:
            lenblob = fh.read(4)
            if not lenblob:
                break
            klen = struct.unpack(">I", lenblob)[0] if len(lenblob) == 4 else -1
            blob = fh.read(max(klen, 0))
            tail = fh.read(16)
            if len(blob) != klen or len(tail) != 16:
                raise PreconditionError(f"checkpoint partition {part} ({path}): truncated record")
            count, graphs = struct.unpack(">QQ", tail)
            classes[blob] = [count, graphs]
    return n_total, n_excluded, classes
