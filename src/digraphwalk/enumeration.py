"""Isomorph-free generation of small digraphs.

Digraphs on n vertices are encoded as base-4 digit strings over the ordered
vertex pairs; a digraph is kept iff its code equals the minimum over all
vertex relabelings, so exactly one representative per isomorphism class
survives.  The filter runs vectorized: each permutation acts on code
vectors as a position shuffle plus an orientation swap on flipped pairs,
and candidates are rejected in stages as soon as any image is smaller.

The same engine, over a base-3 alphabet on a fixed edge set, enumerates the
orientation assignments (digon / forward / backward) of one underlying
graph up to its automorphisms; that is how the regular-digraph sweeps are
generated without walking the full assignment space.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .digraph import Digraph, PreconditionError, from_compact_code, is_graph, pair_order

DIGRAPH_CLASS_COUNTS = {2: 3, 3: 16, 4: 218, 5: 9608, 6: 1540944}

_SWAP4 = np.array([0, 2, 1, 3], dtype=np.uint8)   # exchange (i,j) <-> (j,i)
_SWAP3 = np.array([0, 2, 1], dtype=np.uint8)      # digon fixed, orientation flipped


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


def _decode_digits(values: np.ndarray, positions: int, base: int) -> np.ndarray:
    out = np.empty((values.size, positions), dtype=np.uint8)
    if base == 4:
        for k in range(positions):
            out[:, k] = (values >> (2 * (positions - 1 - k))) & 3
    else:
        rest = values.copy()
        for k in range(positions - 1, -1, -1):
            rest, digit = np.divmod(rest, base)
            out[:, k] = digit
    return out


def orbit_minimal_values(total: int, positions: int, base: int, actions,
                         chunk: int = 1 << 22, start: int = 0, stop: int | None = None,
                         step: int = 1):
    """Yield arrays of code values equal to the minimum over their orbit.

    The candidates are start, start + step, ... below stop, ``chunk`` at a
    time.  ``actions`` are the non-identity (src, swap) position actions of
    the group; rejection is staged so most candidates die on an early action."""
    stop = total if stop is None else stop
    swap_lut = _SWAP4 if base == 4 else _SWAP3
    for lo in range(start, stop, chunk * step):
        vals = np.arange(lo, min(lo + chunk * step, stop), step, dtype=np.int64)
        digits = _decode_digits(vals, positions, base)
        alive = np.ones(vals.size, dtype=bool)
        for src, swap in actions:
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            sub = digits[idx][:, src]
            if swap.any():
                cols = np.flatnonzero(swap)
                sub[:, cols] = swap_lut[sub[:, cols]]
            # Horner, one column at a time: images are < 4^15, so int64 is
            # exact, and no int64 copy of the whole digit block is made
            image = sub[:, 0].astype(np.int64)
            for k in range(1, positions):
                image *= base
                image += sub[:, k]
            alive[idx] = image >= vals[idx]
        yield vals[alive]


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
    yield from orbit_minimal_values(4 ** positions, positions, 4,
                                    _digraph_actions(n), chunk=chunk,
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
        return int(_SWAP4[digits[idx[(b, a)]]])

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


def _mask_to_undirected(n: int, pairs, bits) -> Digraph:
    arcs = set()
    for (i, j), b in zip(pairs, bits):
        if b:
            arcs.add((i, j))
            arcs.add((j, i))
    return Digraph(n, frozenset(arcs))


def enumerate_undirected_graphs(n: int, degree: int | None = None) -> list[Digraph]:
    """Undirected graphs (all-digon digraphs) on n vertices up to isomorphism,
    optionally restricted to a fixed common degree.

    The degree-restricted path filters the labeled masks vectorized first;
    the survivors are few, so per-graph canonical dedup is cheap."""
    if n > 8:
        raise PreconditionError("undirected enumeration supported up to 8 vertices")
    pairs = pair_order(n)
    positions = len(pairs)
    if degree is None:
        if n > 6:
            raise PreconditionError("unrestricted undirected enumeration capped at 6 vertices")
        reps: list[Digraph] = []
        seen: set[str] = set()
        for mask in range(2 ** positions):
            bits = [(mask >> (positions - 1 - k)) & 1 for k in range(positions)]
            g = _mask_to_undirected(n, pairs, bits)
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                reps.append(g)
        return reps
    if n * degree % 2:
        return []
    incidence = np.zeros((positions, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        incidence[k, i] = incidence[k, j] = 1
    shifts = np.array([positions - 1 - k for k in range(positions)], dtype=np.int64)
    reps = []
    seen = set()
    chunk = 1 << 20
    for lo in range(0, 2 ** positions, chunk):
        vals = np.arange(lo, min(lo + chunk, 2 ** positions), dtype=np.int64)
        bits = ((vals[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        degs = bits.astype(np.int64) @ incidence
        keep = np.flatnonzero((degs == degree).all(axis=1))
        for row in keep:
            g = _mask_to_undirected(n, pairs, bits[row].tolist())
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                reps.append(g)
    return reps


def orientations_up_to_iso(underlying: Digraph, chunk: int = 1 << 22):
    """All digraphs with the given (all-digon) underlying graph, one per
    isomorphism class: every edge becomes a digon, a forward or a backward arc."""
    if not is_graph(underlying):
        raise PreconditionError("orientation base must be an undirected (all-digon) digraph")
    edges = sorted({(min(u, v), max(u, v)) for u, v in underlying.arcs})
    if not edges:
        yield underlying
        return
    auts = automorphisms(edges, underlying.n)
    actions = []
    for perm in auts:
        if perm == tuple(range(underlying.n)):
            continue
        act = edge_permutation_action(edges, perm)
        if act is not None:
            actions.append(act)
    m = len(edges)
    for block in orbit_minimal_values(3 ** m, m, 3, actions, chunk=chunk):
        for value in block.tolist():
            digits = []
            rest = int(value)
            for _ in range(m):
                rest, d = divmod(rest, 3)
                digits.append(d)
            digits.reverse()
            arcs = set()
            for (i, j), d in zip(edges, digits):
                if d == 0:
                    arcs.add((i, j))
                    arcs.add((j, i))
                elif d == 1:
                    arcs.add((i, j))
                else:
                    arcs.add((j, i))
            yield Digraph(underlying.n, frozenset(arcs))


def enumerate_regular_digraphs(n: int, k: int, chunk: int = 1 << 22):
    """k-regular digraphs on n vertices up to isomorphism (underlying degree k)."""
    if n * k % 2:
        return
    for base in enumerate_undirected_graphs(n, degree=k):
        yield from orientations_up_to_iso(base, chunk=chunk)
