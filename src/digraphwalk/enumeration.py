"""Isomorph-free generation of small digraphs.

Every generator here runs one vectorized engine, ``orbit_minimal_values``:
a group acts on fixed-length base-2 or base-4 digit strings by a position
shuffle plus, on flipped positions, a digit swap, and a string is kept iff
its value is the minimum over its orbit, so exactly one representative per
orbit survives (isomorph-free generation by canonical orbit
representatives, McKay 1998, J. Algorithms 26).  Candidates are compared
with one group element at a time, dropped at the first smaller image, and
compacted, so later elements see only the survivors.  Three uses:

- digraphs of order n: base-4 codes over the vertex pairs (none, (i,j),
  (j,i), digon) under S_n, the swap exchanging (i,j) and (j,i);
- undirected graphs (the bases): base-2 edge masks under S_n, swap-free;
- the orientations of one base G, in two levels.  A digraph with
  underlying graph G is a digon set D within the edge set E plus a
  direction on every other edge, and its isomorphism class is its orbit
  under Aut(G).  The first pass keeps the digon masks D minimal under
  Aut(G) (swap-free).  Two digraphs of one class have digon sets in one
  Aut(G)-orbit, hence the same minimal D, and every automorphism carrying
  one to the other fixes D: the classes with digon set D are the orbits of
  the stabilizer Aut(G)_D on the direction bits of E minus D.  For each
  minimal D, its stabilizer is read off the automorphisms' edge actions in
  one comparison, and a second base-2 pass keeps the direction strings
  minimal under it, an element that reverses an edge flipping its bit.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .digraph import Digraph, PreconditionError, from_compact_code, is_graph, pair_order

DIGRAPH_CLASS_COUNTS = {2: 3, 3: 16, 4: 218, 5: 9608, 6: 1540944}

# digit swaps under a relabeling that reverses a pair: base 4 exchanges
# (i,j) <-> (j,i) and keeps none and digon; base 2 reverses a one-way edge
_SWAP = {4: np.array([0, 2, 1, 3], dtype=np.uint8), 2: np.array([1, 0], dtype=np.uint8)}


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pr: k for k, pr in enumerate(pair_order(n))}


def pair_permutation_action(n: int, perm) -> tuple[np.ndarray, np.ndarray]:
    """Position shuffle and swap mask realizing a vertex relabeling on codes.

    ``perm[v]`` is the new label of vertex v; the digit of the relabeled
    code at target pair (i,j) is read from source pair (perm^-1 i,
    perm^-1 j), orientation-swapped when that pair comes out reversed."""
    inv = [0] * n
    for v, w in enumerate(perm):
        inv[w] = v
    idx = _pair_index(n)
    src = np.empty(len(idx), dtype=np.int64)
    swap = np.zeros(len(idx), dtype=bool)
    for k, (i, j) in enumerate(pair_order(n)):
        a, b = inv[i], inv[j]
        if a < b:
            src[k] = idx[(a, b)]
        else:
            src[k] = idx[(b, a)]
            swap[k] = True
    return src, swap


def edge_permutation_action(edges: list[tuple[int, int]], perm) -> tuple[np.ndarray, np.ndarray] | None:
    """Like pair_permutation_action but over a fixed (sorted) edge list.

    Returns None when the permutation does not stabilize the edge set."""
    idx = {e: k for k, e in enumerate(edges)}
    inv = [0] * (max(max(e) for e in edges) + 1)
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


def _decode_digits(values: np.ndarray, positions: int, width: int) -> np.ndarray:
    """(positions, N) digits of ``width`` bits each, most significant first."""
    out = np.empty((positions, values.size), dtype=np.uint8)
    for k in range(positions):
        out[k] = (values >> (width * (positions - 1 - k))) & ((1 << width) - 1)
    return out


def orbit_minimal_values(positions: int, base: int, actions, candidates=None,
                         chunk: int = 1 << 22, start: int = 0, stop: int | None = None,
                         step: int = 1):
    """Yield arrays of the candidate values that equal the minimum of their orbit.

    A value is ``positions`` digits in ``base`` 2 or 4, most significant
    first.  ``actions`` are the non-identity (src, swap) position actions of
    the group: digit k of the image is digit src[k] of the value, passed
    through the base's digit swap where swap[k].  The candidates are the
    array ``candidates`` if given, else start, start + step, ... below stop
    (default base**positions), ``chunk`` at a time.  A candidate dies at the
    first action with a smaller image, and the survivors are compacted, so
    each action scans only those left."""
    width = base.bit_length() - 1
    lut = _SWAP[base]
    acts = [(src.tolist(), swap.tolist()) for src, swap in actions]
    if candidates is None:
        stop = base ** positions if stop is None else stop
        blocks = (np.arange(lo, min(lo + chunk * step, stop), step, dtype=np.int64)
                  for lo in range(start, stop, chunk * step))
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
        blocks = (candidates[lo:lo + chunk] for lo in range(0, candidates.size, chunk))
    for vals in blocks:
        digits = _decode_digits(vals, positions, width)
        for src, swap in acts:
            if vals.size == 0:
                break
            # Horner over the digit rows; values have at most 30 bits (order-6
            # codes), so int64 is exact
            image = np.zeros(vals.size, dtype=np.int64)
            for s, flip in zip(src, swap):
                image <<= width
                image |= lut[digits[s]] if flip else digits[s]
            keep = image >= vals
            if not keep.all():
                vals = vals[keep]
                digits = digits[:, keep]
        yield vals


def _digraph_actions(n: int):
    return [pair_permutation_action(n, p)
            for p in permutations(range(n)) if p != tuple(range(n))]


def enumerate_digraph_codes(n: int, chunk: int = 1 << 22,
                            start: int = 0, stop: int | None = None, step: int = 1):
    """Stream canonical code values for all digraphs of order n, ascending;
    start, stop and step select the candidate values as in range()."""
    if not 2 <= n <= 6:
        raise PreconditionError(f"enumeration supports orders 2..6, got {n}")
    positions = n * (n - 1) // 2
    yield from orbit_minimal_values(positions, 4, _digraph_actions(n), chunk=chunk,
                                    start=start, stop=stop, step=step)


def code_value_to_digraph(n: int, value: int) -> Digraph:
    positions = n * (n - 1) // 2
    digits = []
    rest = int(value)
    for _ in range(positions):
        digits.append(rest & 3)
        rest >>= 2
    digits.reverse()
    return from_compact_code("".join(map(str, digits)), n)


def enumerate_digraphs(n: int, chunk: int = 1 << 22):
    """One representative per isomorphism class, in canonical code order.

    Orders 2..5 finish in seconds; order 6 walks a 2^30 assignment space
    and is the long-running path."""
    for block in enumerate_digraph_codes(n, chunk=chunk):
        for value in block.tolist():
            yield code_value_to_digraph(n, value)


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
    idx = _pair_index(n)

    def relabeled_digit(inv, i, j):
        a, b = inv[i], inv[j]
        if a < b:
            return digits[idx[(a, b)]]
        return int(_SWAP[4][digits[idx[(b, a)]]])

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


# -- restricted generators for the regular sweeps -----------------------------


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


def _regular_masks(n: int, degree: int) -> np.ndarray:
    """Ascending edge masks over the pair order with every degree equal."""
    pairs = pair_order(n)
    incident = [[k for k, pr in enumerate(pairs) if v in pr] for v in range(n)]
    chunk = 1 << 20
    out = []
    for lo in range(0, 1 << len(pairs), chunk):
        vals = np.arange(lo, min(lo + chunk, 1 << len(pairs)), dtype=np.int64)
        bits = _decode_digits(vals, len(pairs), 1)
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
    actions = [(src, np.zeros_like(swap)) for src, swap in _digraph_actions(n)]
    candidates = None if degree is None else _regular_masks(n, degree)
    return [Digraph(n, frozenset(arc for (i, j), bit in zip(pairs, bits) if bit
                                 for arc in ((i, j), (j, i))))
            for block in orbit_minimal_values(len(pairs), 2, actions, candidates)
            for bits in _decode_digits(block, len(pairs), 1).T.tolist()]


def _distinct_actions(srcs: np.ndarray, swaps: np.ndarray):
    """The distinct non-identity rows of an (actions, positions) source and
    swap array, in first-seen order, as (src, swap) pairs."""
    if srcs.shape[1] == 0:
        return []
    rows = np.concatenate([srcs, swaps], axis=1)
    _, first = np.unique(rows, axis=0, return_index=True)
    identity = np.arange(srcs.shape[1])
    return [(srcs[i], swaps[i]) for i in sorted(first.tolist())
            if not ((srcs[i] == identity).all() and not swaps[i].any())]


def digon_set_orientations(underlying: Digraph):
    """The digraphs with the given (all-digon) underlying graph G, one per
    isomorphism class, grouped by digon set: yields (digons, digraphs) for
    one digon set D per Aut(G)-orbit, D as sorted (i, j) edges with i < j,
    and the classes with that digon set (module docstring: digon masks
    minimal under Aut(G), then direction strings minimal under the
    stabilizer of D; bit 1 points an edge from its larger vertex)."""
    if not is_graph(underlying):
        raise PreconditionError("orientation base must be an undirected (all-digon) digraph")
    n = underlying.n
    edges = sorted({(min(u, v), max(u, v)) for u, v in underlying.arcs})
    m = len(edges)
    if not m:
        yield (), [underlying]
        return
    acts = [edge_permutation_action(edges, perm) for perm in automorphisms(edges, n)]
    srcs = np.array([src for src, _ in acts], dtype=np.int64).reshape(-1, m)
    swaps = np.array([swap for _, swap in acts], dtype=bool).reshape(-1, m)
    for block in orbit_minimal_values(m, 2, _distinct_actions(srcs, np.zeros_like(swaps))):
        for is_digon in _decode_digits(block, m, 1).T.astype(bool):
            stab = (is_digon[srcs] == is_digon).all(axis=1)
            one_way = np.flatnonzero(~is_digon)
            slot = np.zeros(m, dtype=np.int64)
            slot[one_way] = np.arange(one_way.size)
            directions = np.concatenate(list(orbit_minimal_values(
                one_way.size, 2,
                _distinct_actions(slot[srcs[stab][:, one_way]], swaps[stab][:, one_way]))))
            digon_edges = tuple(e for e, d in zip(edges, is_digon) if d)
            digon_arcs = [arc for i, j in digon_edges for arc in ((i, j), (j, i))]
            free = [edges[k] for k in one_way.tolist()]
            yield digon_edges, [
                Digraph(n, frozenset(digon_arcs + [(j, i) if back else (i, j)
                                                   for (i, j), back in zip(free, bits)]))
                for bits in _decode_digits(directions, len(free), 1).T.tolist()]


def orientations_up_to_iso(underlying: Digraph):
    """All digraphs with the given (all-digon) underlying graph, one per
    isomorphism class: every edge becomes a digon, a forward or a backward
    arc.  See digon_set_orientations for the two-level scheme."""
    for _, digraphs in digon_set_orientations(underlying):
        yield from digraphs


def enumerate_regular_digraphs(n: int, k: int):
    """k-regular digraphs on n vertices up to isomorphism (underlying degree k)."""
    if n * k % 2:
        return
    for base in enumerate_undirected_graphs(n, degree=k):
        yield from orientations_up_to_iso(base)
