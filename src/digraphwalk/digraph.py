"""Digraphs, their symmetric arc spaces, and derived combinatorial structure.

A digraph is a vertex count plus a set of loop-free ordered arcs; both (x,y)
and (y,x) may be present (a digon).  Everything downstream (walk operators,
supports, enumeration) is a pure function of this value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np


class PreconditionError(ValueError):
    """An operation's stated precondition was violated."""


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def of(n: int, arcs) -> "Digraph":
        return Digraph(n, frozenset(tuple(a) for a in arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


# -- derived structure ------------------------------------------------------


def underlying(g: Digraph) -> Digraph:
    """The symmetrization G^+-: every arc together with its inverse."""
    sym = set(g.arcs)
    sym.update((v, u) for u, v in g.arcs)
    return Digraph(g.n, frozenset(sym))


def transpose(g: Digraph) -> Digraph:
    return Digraph(g.n, frozenset((v, u) for u, v in g.arcs))


def digons(g: Digraph) -> set[tuple[int, int]]:
    """Unordered pairs {x,y} with both arcs present, as (min,max) tuples."""
    return {(min(u, v), max(u, v)) for u, v in g.arcs if (v, u) in g.arcs}


def underlying_edges(g: Digraph) -> list[tuple[int, int]]:
    """Sorted (min,max) edge list of G^+-."""
    return sorted({(min(u, v), max(u, v)) for u, v in g.arcs})


def degrees(g: Digraph) -> tuple[int, ...]:
    """Underlying-graph degree of every vertex."""
    deg = [0] * g.n
    for u, v in underlying_edges(g):
        deg[u] += 1
        deg[v] += 1
    return tuple(deg)


def is_graph(g: Digraph) -> bool:
    """True when every arc lies in a digon (an undirected graph in disguise)."""
    return all((v, u) in g.arcs for u, v in g.arcs)


def weakly_connected(g: Digraph) -> bool:
    if g.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == g.n


def is_regular(g: Digraph) -> int | None:
    """Common underlying degree k if G is k-regular, else None."""
    deg = degrees(g)
    if not deg:
        return None
    return deg[0] if all(d == deg[0] for d in deg) else None


def bipartite_underlying(g: Digraph) -> bool:
    color = [-1] * g.n
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in underlying_edges(g):
        adj[u].append(v)
        adj[v].append(u)
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = color[x] ^ 1
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


# -- families and deformations ---------------------------------------------


def make_Y(a: int, n: int) -> Digraph:
    """Two digon-complete blocks of sizes a and n-a, all one-way arcs from
    the first block to the second.  a in {0, n} gives the complete digraph."""
    if not 0 <= a <= n:
        raise PreconditionError(f"block size a={a} outside 0..{n}")
    arcs = set()
    for x in range(a):
        for y in range(a):
            if x != y:
                arcs.add((x, y))
    for x in range(a, n):
        for y in range(a, n):
            if x != y:
                arcs.add((x, y))
    for x in range(a):
        for y in range(a, n):
            arcs.add((x, y))
    return Digraph(n, frozenset(arcs))


def complete_digraph(n: int) -> Digraph:
    return make_Y(0, n)


def empty_digraph(n: int) -> Digraph:
    return Digraph(n, frozenset())


def digon_cut_switch(g: Digraph, s) -> Digraph:
    """Replace each digon crossing S (x outside, y inside) by the arc (x,y).

    The cut delta(S) must contain only digon arcs; a one-way crossing arc is a
    precondition violation.  The result has the same eta-Hermitian spectrum.
    """
    s = set(s)
    for u, v in g.arcs:
        if (u in s) != (v in s):
            if (v, u) not in g.arcs:
                raise PreconditionError(
                    f"cut contains the one-way arc ({u},{v}); only digons may cross"
                )
    arcs = set()
    for u, v in g.arcs:
        if (u in s) != (v in s):
            if u not in s:  # keep (outside -> inside) only
                arcs.add((u, v))
        else:
            arcs.add((u, v))
    return Digraph(g.n, frozenset(arcs))


# -- the arc context ----------------------------------------------------------


class NoArcsError(PreconditionError):
    """Arc-indexed operators cannot be built from an arcless digraph."""


class ArcSpace:
    """The arc context of a digraph: a deterministic index of A(G^+-) with
    every per-arc label the walk operators read.  Edges are sorted by
    (min,max), each listed as (min,max) then (max,min), so inverse arcs sit
    at paired even/odd slots.  Build it through ``arc_space(g)``.

    One context serves every caller, so nothing in it can be written: the
    tuples, the ``index`` mapping and the read-only int64 arrays terminus
    ``t``, origin ``o``, inverse ``inv``, vertex degree ``deg`` and
    ``s_chat`` = S Chat, where Chat = 2 [t(a) = t(b)] - diag(deg t(a)) is
    the Grover coin scaled by the degree of its row's terminus."""

    __slots__ = ("digraph", "arcs", "index", "origin", "terminus", "degree",
                 "theta_weight", "t", "o", "inv", "deg", "s_chat")

    def __init__(self, g: Digraph):
        arcs = [arc for u, v in underlying_edges(g) for arc in ((u, v), (v, u))]
        self.digraph = g
        self.arcs = tuple(arcs)
        self.index = MappingProxyType({a: i for i, a in enumerate(arcs)})
        self.origin = tuple(u for u, _ in arcs)
        self.terminus = tuple(v for _, v in arcs)
        self.degree = degrees(g)
        # +1 on one-way arcs of A(G), -1 on their inverses, 0 on digon arcs
        self.theta_weight = tuple((0 if (v, u) in g.arcs else 1) if (u, v) in g.arcs else -1
                                  for u, v in arcs)
        self.t = np.array(self.terminus, dtype=np.int64)
        self.o = np.array(self.origin, dtype=np.int64)
        self.inv = np.arange(len(arcs), dtype=np.int64) ^ 1
        self.deg = np.array(self.degree, dtype=np.int64)
        t = self.t
        chat = 2 * (t[:, None] == t[None, :]).astype(np.int64) - np.diag(self.deg[t])
        self.s_chat = chat[self.inv, :]
        for arr in (self.t, self.o, self.inv, self.deg, self.s_chat):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.arcs)


@lru_cache(maxsize=16)
def arc_space(g: Digraph) -> ArcSpace:
    """The arc context of g, built once per digraph: every builder and sign
    kernel reads it.  The cache keeps only the last few, because a context
    on m edges holds a (2m)^2 int64 matrix."""
    if not g.arcs:
        raise NoArcsError("digraph has no arcs; arc-indexed operators are undefined")
    return ArcSpace(g)


# -- text and compact-code formats ------------------------------------------


def parse_arc_list(text: str) -> Digraph:
    """Parse 'n=4; 0->1; 1->0; 2->1' (whitespace-insensitive; u<->v digon sugar)."""
    items = [part.strip() for part in text.replace("\n", ";").split(";")]
    items = [p for p in items if p]
    if not items or not items[0].replace(" ", "").startswith("n="):
        raise ValueError("arc list must start with 'n=<count>'")
    head = items[0].replace(" ", "")
    try:
        n = int(head[2:])
    except ValueError:
        raise ValueError(f"bad vertex count in {items[0]!r}") from None
    arcs: set[tuple[int, int]] = set()
    for pos, item in enumerate(items[1:], start=2):
        compact = item.replace(" ", "")
        if "<->" in compact:
            left, right = compact.split("<->", 1)
            both = True
        elif "->" in compact:
            left, right = compact.split("->", 1)
            both = False
        else:
            raise ValueError(f"item {pos}: expected 'u->v' or 'u<->v', got {item!r}")
        try:
            u, v = int(left), int(right)
        except ValueError:
            raise ValueError(f"item {pos}: bad vertex in {item!r}") from None
        if u == v:
            raise ValueError(f"item {pos}: self-loop {u}->{v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"item {pos}: vertex out of range in {item!r}")
        arcs.add((u, v))
        if both:
            arcs.add((v, u))
    return Digraph(n, frozenset(arcs))


def arc_list_text(g: Digraph) -> str:
    parts = [f"n={g.n}"]
    done = set()
    for u, v in sorted(g.arcs):
        if (u, v) in done:
            continue
        if (v, u) in g.arcs:
            parts.append(f"{u}<->{v}")
            done.add((v, u))
        else:
            parts.append(f"{u}->{v}")
        done.add((u, v))
    return "; ".join(parts)


def pair_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangular pair order (0,1), (0,2), ..., (n-2,n-1)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def compact_code(g: Digraph) -> str:
    """Base-4 digit string over the pair order: 0 none, 1 (i,j), 2 (j,i), 3 digon."""
    out = []
    for i, j in pair_order(g.n):
        d = int((i, j) in g.arcs) + 2 * int((j, i) in g.arcs)
        out.append(str(d))
    return "".join(out)


def order_from_code_length(length: int) -> int:
    n = int((1 + (1 + 8 * length) ** 0.5) / 2 + 0.5)
    if n * (n - 1) // 2 != length:
        raise ValueError(f"{length} is not a triangular number of pairs")
    return n


def from_compact_code(code: str, n: int | None = None) -> Digraph:
    if n is None:
        n = order_from_code_length(len(code))
    elif len(code) != n * (n - 1) // 2:
        raise ValueError(f"code length {len(code)} does not match n={n}")
    arcs = set()
    for (i, j), ch in zip(pair_order(n), code):
        if ch not in "0123":
            raise ValueError(f"bad code digit {ch!r}")
        d = int(ch)
        if d & 1:
            arcs.add((i, j))
        if d & 2:
            arcs.add((j, i))
    return Digraph(n, frozenset(arcs))
