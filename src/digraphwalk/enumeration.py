"""Isomorph-free generation of small digraphs.

Every generator here runs one vectorized engine, ``orbit_minimal_values``:
a group acts on fixed-length bit strings by a position shuffle plus, on
flipped positions, a bit flip, and a string is kept iff its value is the
minimum over its orbit, so exactly one representative per orbit survives
(isomorph-free generation by canonical orbit representatives, McKay 1998,
J. Algorithms 26).  Candidates are compared with one group element at a
time, dropped at the first smaller image, and compacted, so later elements
see only the survivors.  Two uses:

- undirected graphs (the bases): edge masks over the vertex pairs under
  S_n, flip-free;
- the orientations of one base G, in two levels.  A digraph with
  underlying graph G is a digon set D within the edge set E plus a
  direction on every other edge, and its isomorphism class is its orbit
  under Aut(G).  The first pass keeps the digon masks D minimal under
  Aut(G) (flip-free).  Two digraphs of one class have digon sets in one
  Aut(G)-orbit, hence the same minimal D, and every automorphism carrying
  one to the other fixes D: the classes with digon set D are the orbits of
  the stabilizer Aut(G)_D on the direction bits of E minus D.  For each
  minimal D, its stabilizer is read off the automorphisms' edge actions in
  one comparison, and a second pass keeps the direction strings minimal
  under it, an element that reverses an edge flipping its bit.

Every digraph has exactly one underlying graph, so the digraphs of order n
are the orientations of the bases of order n (Harary & Palmer, Graphical
Enumeration, 1973).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .digraph import Digraph, PreconditionError, is_graph, pair_order

DIGRAPH_CLASS_COUNTS = {2: 3, 3: 16, 4: 218, 5: 9608, 6: 1540944}

# candidates per filter block; digon-mask ranges reach 2^28 at n = 8
_FILTER_BLOCK = 1 << 22


def edge_permutation_action(edges: list[tuple[int, int]], perm) -> tuple[np.ndarray, np.ndarray] | None:
    """Position shuffle and flip mask realizing a vertex relabeling on the
    bit strings over a fixed (sorted, i < j) edge list.

    ``perm[v]`` is the new label of vertex v; the bit at target edge (i,j)
    is read from source edge (perm^-1 i, perm^-1 j), flipped when that edge
    comes out reversed.  Returns None when the permutation does not
    stabilize the edge set."""
    idx = {e: k for k, e in enumerate(edges)}
    inv = [0] * len(perm)
    for v, w in enumerate(perm):
        inv[w] = v
    src = np.empty(len(edges), dtype=np.int64)
    swap = np.zeros(len(edges), dtype=bool)
    for k, (i, j) in enumerate(edges):
        a, b = inv[i], inv[j]
        key = (a, b) if a < b else (b, a)
        if key not in idx:
            return None
        src[k] = idx[key]
        swap[k] = a > b
    return src, swap


def _decode_bits(values: np.ndarray, positions: int) -> np.ndarray:
    """(positions, N) bits of the values, most significant first."""
    out = np.empty((positions, values.size), dtype=np.uint8)
    for k in range(positions):
        out[k] = (values >> (positions - 1 - k)) & 1
    return out


def orbit_minimal_values(positions: int, actions, candidates=None):
    """Yield arrays of the candidate values that equal the minimum of their orbit.

    A value is a string of ``positions`` bits, most significant first.
    ``actions`` are the non-identity (src, swap) position actions of the
    group: bit k of the image is bit src[k] of the value, flipped where
    swap[k].  The candidates are the array ``candidates`` if given, else
    every value below 2**positions, _FILTER_BLOCK at a time.  A candidate
    dies at the first action with a smaller image, and the survivors are
    compacted, so each action scans only those left."""
    acts = [(src.tolist(), swap.tolist()) for src, swap in actions]
    if candidates is None:
        stop = 1 << positions
        blocks = (np.arange(lo, min(lo + _FILTER_BLOCK, stop), dtype=np.int64)
                  for lo in range(0, stop, _FILTER_BLOCK))
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
        blocks = (candidates[lo:lo + _FILTER_BLOCK]
                  for lo in range(0, candidates.size, _FILTER_BLOCK))
    for vals in blocks:
        digits = _decode_bits(vals, positions)
        for src, swap in acts:
            if vals.size == 0:
                break
            # Horner over the bit rows; values have at most 28 bits (edge
            # masks at n = 8), so int64 is exact
            image = np.zeros(vals.size, dtype=np.int64)
            for s, flip in zip(src, swap):
                image <<= 1
                image |= digits[s] ^ 1 if flip else digits[s]
            keep = image >= vals
            if not keep.all():
                vals = vals[keep]
                digits = digits[:, keep]
        yield vals


# compact-code digit of the pair (i, j) read as the pair (j, i)
_REVERSED_DIGIT = (0, 2, 1, 3)


def canonical_code(g: Digraph) -> str:
    """Lexicographically minimal compact code over all vertex relabelings.

    Exhaustive search with digit-wise early abort against the best code so
    far; intended for n <= 10."""
    from .digraph import compact_code

    n = g.n
    if n > 10:
        raise PreconditionError("canonical codes supported up to 10 vertices")
    pairs = pair_order(n)
    if not pairs:
        return ""
    digits = [int(c) for c in compact_code(g)]
    idx = {pr: k for k, pr in enumerate(pairs)}

    def relabeled_digit(inv, i, j):
        a, b = inv[i], inv[j]
        if a < b:
            return digits[idx[(a, b)]]
        return _REVERSED_DIGIT[digits[idx[(b, a)]]]

    best: list[int] | None = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for v, w in enumerate(perm):
            inv[w] = v
        if best is None:
            best = [relabeled_digit(inv, i, j) for i, j in pairs]
            continue
        cand: list[int] = []
        worse = False
        for k, (i, j) in enumerate(pairs):
            d = relabeled_digit(inv, i, j)
            if d > best[k]:
                worse = True
                break
            cand.append(d)
            if d < best[k]:
                cand.extend(relabeled_digit(inv, i2, j2) for i2, j2 in pairs[k + 1:])
                break
        if not worse and cand < best:
            best = cand
    return "".join(map(str, best))


# -- bases and their orientations ----------------------------------------------


def automorphisms(edges: list[tuple[int, int]], n: int):
    """All vertex permutations stabilizing an undirected edge set."""
    eset = set(edges)
    out = []
    for perm in permutations(range(n)):
        ok = True
        for u, v in edges:
            a, b = perm[u], perm[v]
            if (min(a, b), max(a, b)) not in eset:
                ok = False
                break
        if ok:
            out.append(perm)
    return out


@lru_cache(maxsize=None)
def _pair_actions(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The flip-free actions of the non-identity vertex relabelings on edge
    masks over the pair order, built once per n."""
    pairs = pair_order(n)
    identity = tuple(range(n))
    no_flip = np.zeros(len(pairs), dtype=bool)
    return tuple((edge_permutation_action(pairs, p)[0], no_flip)
                 for p in permutations(identity) if p != identity)


def _regular_masks(n: int, degree: int) -> np.ndarray:
    """Ascending edge masks over the pair order with every degree equal."""
    pairs = pair_order(n)
    incident = [[k for k, pr in enumerate(pairs) if v in pr] for v in range(n)]
    chunk = 1 << 20
    out = []
    for lo in range(0, 1 << len(pairs), chunk):
        vals = np.arange(lo, min(lo + chunk, 1 << len(pairs)), dtype=np.int64)
        bits = _decode_bits(vals, len(pairs))
        ok = np.ones(vals.size, dtype=bool)
        for ks in incident:
            ok &= bits[ks].sum(axis=0) == degree
        out.append(vals[ok])
    return np.concatenate(out)


def enumerate_undirected_graphs(n: int, degree: int | None = None) -> list[Digraph]:
    """Undirected graphs (all-digon digraphs) on n vertices up to isomorphism,
    optionally restricted to a fixed common degree.

    The edge masks over the pair order that are minimal under S_n, one per
    class; with ``degree`` only the masks of that degree are candidates,
    which is exact because relabeling keeps the degrees."""
    if n > 8:
        raise PreconditionError("undirected enumeration supported up to 8 vertices")
    if degree is None and n > 6:
        raise PreconditionError("unrestricted undirected enumeration capped at 6 vertices")
    if degree is not None and n * degree % 2:
        return []
    pairs = pair_order(n)
    candidates = None if degree is None else _regular_masks(n, degree)
    return [Digraph(n, frozenset(arc for (i, j), bit in zip(pairs, bits) if bit
                                 for arc in ((i, j), (j, i))))
            for block in orbit_minimal_values(len(pairs), _pair_actions(n), candidates)
            for bits in _decode_bits(block, len(pairs)).T.tolist()]


def _distinct_actions(srcs: np.ndarray, swaps: np.ndarray):
    """The distinct non-identity rows of an (actions, positions) source and
    swap array, in first-seen order, as (src, swap) pairs."""
    if srcs.shape[1] == 0:
        return []
    moves = ~(srcs == np.arange(srcs.shape[1])).all(axis=1) | swaps.any(axis=1)
    distinct = {}
    for src, swap in zip(srcs[moves], swaps[moves]):
        distinct.setdefault(src.tobytes() + swap.tobytes(), (src, swap))
    return list(distinct.values())


def _base_edges(underlying: Digraph) -> list[tuple[int, int]]:
    if not is_graph(underlying):
        raise PreconditionError("orientation base must be an undirected (all-digon) digraph")
    return sorted({(min(u, v), max(u, v)) for u, v in underlying.arcs})


def digon_set_digits(underlying: Digraph):
    """The raw digits of the orientations of the (all-digon) graph G: for
    one digon set D per Aut(G)-orbit, yields the (edges,) bool digon mask of
    D over the sorted (i, j), i < j, edges of G and the (one-way edges, B)
    direction bits of its B isomorphism classes (module docstring: digon
    masks minimal under Aut(G), then direction strings minimal under the
    stabilizer of D).  Bit 1 points an edge from its larger vertex."""
    n = underlying.n
    edges = _base_edges(underlying)
    m = len(edges)
    acts = [edge_permutation_action(edges, perm) for perm in automorphisms(edges, n)]
    srcs = np.array([src for src, _ in acts], dtype=np.int64)
    swaps = np.array([swap for _, swap in acts], dtype=bool)
    for block in orbit_minimal_values(m, _distinct_actions(srcs, np.zeros_like(swaps))):
        for is_digon in _decode_bits(block, m).T.astype(bool):
            stab = (is_digon[srcs] == is_digon).all(axis=1)
            one_way = np.flatnonzero(~is_digon)
            slot = np.zeros(m, dtype=np.int64)
            slot[one_way] = np.arange(one_way.size)
            directions = np.concatenate(list(orbit_minimal_values(
                one_way.size,
                _distinct_actions(slot[srcs[stab][:, one_way]], swaps[stab][:, one_way]))))
            yield is_digon, _decode_bits(directions, one_way.size)


def digon_set_orientations(underlying: Digraph):
    """The digraphs with the given (all-digon) underlying graph G, one per
    isomorphism class, grouped by digon set: yields (digons, digraphs) for
    one digon set D per Aut(G)-orbit, D as sorted (i, j) edges with i < j,
    and the classes with that digon set."""
    n = underlying.n
    edges = _base_edges(underlying)
    for is_digon, bits in digon_set_digits(underlying):
        digon_edges = tuple(e for e, d in zip(edges, is_digon) if d)
        digon_arcs = [arc for i, j in digon_edges for arc in ((i, j), (j, i))]
        free = [e for e, d in zip(edges, is_digon) if not d]
        yield digon_edges, [
            Digraph(n, frozenset(digon_arcs + [(j, i) if back else (i, j)
                                               for (i, j), back in zip(free, row)]))
            for row in bits.T.tolist()]


def orientation_stack(underlying: Digraph) -> np.ndarray:
    """(B, n, n) 0/1 adjacency matrices (uint8) of the digraphs of
    orientations_up_to_iso(underlying), row for row, built from the same
    digits without a Digraph per class."""
    n = underlying.n
    edges = _base_edges(underlying)
    tails = [i for i, _ in edges]
    heads = [j for _, j in edges]
    stacks = []
    for is_digon, bits in digon_set_digits(underlying):
        back = np.zeros((len(edges), bits.shape[1]), dtype=bool)
        back[~is_digon] = bits
        digon = is_digon[:, None]
        adj = np.zeros((bits.shape[1], n, n), dtype=np.uint8)
        adj[:, tails, heads] = (digon | ~back).T
        adj[:, heads, tails] = (digon | back).T
        stacks.append(adj)
    return np.concatenate(stacks)


def orientations_up_to_iso(underlying: Digraph):
    """All digraphs with the given (all-digon) underlying graph, one per
    isomorphism class: every edge becomes a digon, a forward or a backward
    arc.  See digon_set_orientations for the two-level scheme."""
    for _, digraphs in digon_set_orientations(underlying):
        yield from digraphs


def enumerate_digraphs(n: int):
    """One representative per isomorphism class of the digraphs of order n:
    the orientations of each base (underlying graph) in turn.

    Orders 2..5 take under a second; order 6 (1 540 944 digraphs) about
    18 s on one core, most of it building one Digraph per class; classing
    skips that through orientation_stack and digon_set_digits."""
    if n not in DIGRAPH_CLASS_COUNTS:
        raise PreconditionError(f"enumeration supports orders 2..6, got {n}")
    for base in enumerate_undirected_graphs(n):
        yield from orientations_up_to_iso(base)


def enumerate_regular_digraphs(n: int, k: int):
    """k-regular digraphs on n vertices up to isomorphism (underlying degree k)."""
    if n * k % 2:
        return
    for base in enumerate_undirected_graphs(n, degree=k):
        yield from orientations_up_to_iso(base)
