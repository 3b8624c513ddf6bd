import itertools
import random

import numpy as np
import pytest

from digraphwalk.digraph import (
    Digraph,
    PreconditionError,
    compact_code,
    digons,
    from_compact_code,
    is_regular,
    make_Y,
    underlying,
)
from digraphwalk.enumeration import (
    DIGRAPH_CLASS_COUNTS,
    automorphisms,
    canonical_code,
    digon_set_orientations,
    enumerate_digraphs,
    enumerate_regular_digraphs,
    enumerate_undirected_graphs,
    orientation_stack,
    orientations_up_to_iso,
)

from util import random_digraph


def apply_perm(g: Digraph, perm) -> Digraph:
    return Digraph(g.n, frozenset((perm[u], perm[v]) for u, v in g.arcs))


def test_class_counts_small_orders():
    for n in (2, 3, 4):
        assert sum(1 for _ in enumerate_digraphs(n)) == DIGRAPH_CLASS_COUNTS[n]


def test_order_five_count():
    assert sum(1 for _ in enumerate_digraphs(5)) == DIGRAPH_CLASS_COUNTS[5]


def test_order_range_rejected():
    with pytest.raises(PreconditionError):
        list(enumerate_digraphs(7))
    with pytest.raises(PreconditionError):
        list(enumerate_digraphs(1))


def test_enumerated_representatives_are_canonical():
    for n in (2, 3, 4, 5):
        codes = [canonical_code(g) for g in enumerate_digraphs(n)]
        assert len(set(codes)) == len(codes) == DIGRAPH_CLASS_COUNTS[n]


def test_canonical_code_permutation_invariant():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(apply_perm(g, perm))


def test_canonical_code_examples():
    a = Digraph.of(2, [(0, 1)])
    b = Digraph.of(2, [(1, 0)])
    assert canonical_code(a) == canonical_code(b) == "1"
    assert canonical_code(make_Y(2, 3)) != canonical_code(make_Y(1, 3))


def test_automorphism_groups():
    k3_edges = [(0, 1), (0, 2), (1, 2)]
    assert len(automorphisms(k3_edges, 3)) == 6
    path_edges = [(0, 1), (1, 2)]
    assert len(automorphisms(path_edges, 3)) == 2


def test_orientations_of_single_edge():
    base = Digraph.of(2, [(0, 1), (1, 0)])
    reps = list(orientations_up_to_iso(base))
    assert len(reps) == 2  # digon, and one arc up to swapping endpoints


def test_orientations_of_triangle():
    base = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    reps = list(orientations_up_to_iso(base))
    # brute-force oracle: all 3^3 orientation assignments up to S_3
    seen = set()
    states = [(0, 1), (0, 2), (1, 2)]
    for assign in itertools.product((0, 1, 2), repeat=3):
        arcs = set()
        for (i, j), d in zip(states, assign):
            if d in (0, 1):
                arcs.add((i, j))
            if d in (0, 2):
                arcs.add((j, i))
        seen.add(canonical_code(Digraph.of(3, arcs)))
    assert len(reps) == len(seen)
    assert {canonical_code(g) for g in reps} == seen


def test_regular_digraphs_on_four_match_bruteforce():
    reps = list(enumerate_regular_digraphs(4, 3))
    assert all(is_regular(g) == 3 for g in reps)
    seen = set()
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for assign in itertools.product((0, 1, 2), repeat=6):
        arcs = set()
        for (i, j), d in zip(pairs, assign):
            if d in (0, 1):
                arcs.add((i, j))
            if d in (0, 2):
                arcs.add((j, i))
        seen.add(canonical_code(Digraph.of(4, arcs)))
    assert len(reps) == len(seen) == 42
    assert {canonical_code(g) for g in reps} == seen


def test_no_odd_regular_graphs():
    assert list(enumerate_regular_digraphs(5, 3)) == []


def test_undirected_regular_counts():
    assert len(enumerate_undirected_graphs(6, degree=3)) == 2   # the two cubic graphs
    assert len(enumerate_undirected_graphs(6, degree=5)) == 1   # complete
    assert len(enumerate_undirected_graphs(7, degree=4)) == 2   # complements of C7 and C3+C4
    assert len(enumerate_undirected_graphs(7, degree=6)) == 1
    assert enumerate_undirected_graphs(7, degree=3) == []


def test_undirected_unrestricted_small():
    # 2 graphs on 2 vertices, 4 on 3, 11 on 4, 34 on 5, 156 on 6
    assert len(enumerate_undirected_graphs(2)) == 2
    assert len(enumerate_undirected_graphs(3)) == 4
    assert len(enumerate_undirected_graphs(4)) == 11
    assert len(enumerate_undirected_graphs(5)) == 34
    assert len(enumerate_undirected_graphs(6)) == 156


def test_codes_round_trip_through_digraphs():
    for n in (2, 3):
        for g in enumerate_digraphs(n):
            assert from_compact_code(compact_code(g), n) == g


def _edges(base: Digraph):
    return sorted({(min(u, v), max(u, v)) for u, v in base.arcs})


def burnside_orientation_count(base: Digraph) -> int:
    """Orientation classes of a base by Burnside's lemma: the mean over its
    automorphisms of the product over edge cycles of 3, or of 1 when the
    cycle brings its edge back reversed (only the digon is then fixed)."""
    edges = _edges(base)
    eset = set(edges)
    total = group = 0
    for p in itertools.permutations(range(base.n)):
        if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} != eset:
            continue
        group += 1
        fixed, seen = 1, set()
        for e in edges:
            if e in seen:
                continue
            u, v = e
            while True:
                seen.add((min(u, v), max(u, v)))
                u, v = p[u], p[v]
                if (min(u, v), max(u, v)) == e:
                    break
            fixed *= 3 if (u, v) == e else 1
        total += fixed
    assert total % group == 0
    return total // group


def _bases():
    for n in (2, 3, 4, 5):
        yield from enumerate_undirected_graphs(n)
    for k in range(6):
        yield from enumerate_undirected_graphs(6, degree=k)


def test_orientation_counts_match_burnside():
    for base in _bases():
        count = sum(1 for _ in orientations_up_to_iso(base))
        assert count == burnside_orientation_count(base), _edges(base)


def test_orientations_of_bases_with_isolated_top_vertices():
    for base in (Digraph.of(3, [(0, 1), (1, 0)]), Digraph.of(4, [(0, 1), (1, 0)]),
                 Digraph.of(5, [(0, 1), (1, 0), (1, 2), (2, 1)]), Digraph(4, frozenset())):
        assert sum(1 for _ in orientations_up_to_iso(base)) == burnside_orientation_count(base)


def test_adjacency_stack_rows_equal_the_orientation_digraphs():
    for base in _bases():
        stack = orientation_stack(base)
        digraphs = list(orientations_up_to_iso(base))
        assert stack.shape == (len(digraphs), base.n, base.n)
        for adj, g in zip(stack, digraphs):
            assert {tuple(a) for a in np.argwhere(adj).tolist()} == set(g.arcs)


def test_orientations_over_all_bases_give_every_digraph():
    for n in (2, 3, 4, 5):
        total = sum(sum(1 for _ in orientations_up_to_iso(base))
                    for base in enumerate_undirected_graphs(n))
        assert total == DIGRAPH_CLASS_COUNTS[n]


def test_orientation_codes_match_bruteforce_up_to_order_four():
    for n in (2, 3, 4):
        for base in enumerate_undirected_graphs(n):
            edges = _edges(base)
            seen = set()
            for assign in itertools.product((0, 1, 2), repeat=len(edges)):
                arcs = set()
                for (i, j), d in zip(edges, assign):
                    if d in (0, 1):
                        arcs.add((i, j))
                    if d in (0, 2):
                        arcs.add((j, i))
                seen.add(canonical_code(Digraph.of(n, arcs)))
            codes = [canonical_code(g) for g in orientations_up_to_iso(base)]
            assert len(codes) == len(set(codes)) and set(codes) == seen, edges


def test_digon_set_representatives_carry_their_digon_set():
    for base in _bases():
        sets = []
        for digon_edges, gs in digon_set_orientations(base):
            sets.append(digon_edges)
            assert gs
            for g in gs:
                assert underlying(g) == base
                assert digons(g) == set(digon_edges)
        assert len(sets) == len(set(sets))
