import itertools
import random

import pytest

from digraphwalk.digraph import Digraph, PreconditionError, compact_code, from_compact_code, is_regular, make_Y
from digraphwalk.enumeration import (
    DIGRAPH_CLASS_COUNTS,
    automorphisms,
    canonical_code,
    enumerate_digraph_codes,
    enumerate_digraphs,
    enumerate_regular_digraphs,
    enumerate_undirected_graphs,
    orientations_up_to_iso,
)

from util import random_digraph


def apply_perm(g: Digraph, perm) -> Digraph:
    return Digraph(g.n, frozenset((perm[u], perm[v]) for u, v in g.arcs))


def test_class_counts_small_orders():
    for n in (2, 3, 4):
        assert sum(b.size for b in enumerate_digraph_codes(n)) == DIGRAPH_CLASS_COUNTS[n]


def test_order_five_count():
    assert sum(b.size for b in enumerate_digraph_codes(5)) == DIGRAPH_CLASS_COUNTS[5]


def test_order_range_rejected():
    with pytest.raises(PreconditionError):
        list(enumerate_digraph_codes(7))
    with pytest.raises(PreconditionError):
        list(enumerate_digraph_codes(1))


def test_enumerated_representatives_are_canonical():
    for n in (2, 3):
        for g in enumerate_digraphs(n):
            assert compact_code(g) == canonical_code(g)


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


def test_enumeration_chunking_is_stable():
    full = [b.tolist() for b in enumerate_digraph_codes(4, chunk=1 << 22)]
    small = [b.tolist() for b in enumerate_digraph_codes(4, chunk=97)]
    assert sorted(sum(full, [])) == sorted(sum(small, []))


def test_enumeration_strided_candidates_partition_the_codes():
    full = sum((b.tolist() for b in enumerate_digraph_codes(4)), [])
    strided = [sum((b.tolist() for b in enumerate_digraph_codes(4, chunk=50, start=i, step=3)), [])
               for i in range(3)]
    for i, codes in enumerate(strided):
        assert codes == sorted(codes) and all(v % 3 == i for v in codes)
    assert sorted(sum(strided, [])) == full


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
    # 2 graphs on 2 vertices, 4 on 3 vertices, 11 on 4 vertices
    assert len(enumerate_undirected_graphs(2)) == 2
    assert len(enumerate_undirected_graphs(3)) == 4
    assert len(enumerate_undirected_graphs(4)) == 11


def test_codes_round_trip_through_digraphs():
    for n in (2, 3):
        for g in enumerate_digraphs(n):
            assert from_compact_code(compact_code(g), n) == g
