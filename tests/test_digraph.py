import random

import numpy as np
import pytest

from digraphwalk.digraph import (
    ArcSpace,
    Digraph,
    NoArcsError,
    PreconditionError,
    arc_list_text,
    arc_space,
    compact_code,
    complete_digraph,
    degrees,
    digon_cut_switch,
    digons,
    from_compact_code,
    is_graph,
    is_regular,
    bipartite_underlying,
    make_Y,
    parse_arc_list,
    transpose,
    underlying,
    weakly_connected,
)
from digraphwalk.enumeration import canonical_code

from util import FIG_ARCS, fig_digraph, random_digraph


def test_digraph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Digraph.of(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph.of(2, [(0, 2)])


def test_underlying():
    assert underlying(Digraph.of(2, [(0, 1)])) == Digraph.of(2, [(0, 1), (1, 0)])
    digon = Digraph.of(2, [(0, 1), (1, 0)])
    assert underlying(digon) == digon
    assert len(underlying(fig_digraph()).arcs) == 8


def test_digons():
    assert digons(fig_digraph()) == {(0, 1)}
    assert len(digons(complete_digraph(5))) == 10
    assert len(digons(make_Y(2, 3))) == 1


def test_transpose():
    digon = Digraph.of(2, [(0, 1), (1, 0)])
    assert transpose(digon) == digon
    assert transpose(Digraph.of(2, [(0, 1)])) == Digraph.of(2, [(1, 0)])
    assert transpose(transpose(fig_digraph())) == fig_digraph()
    # transpose of the split family is the reversed split family, up to relabeling
    assert canonical_code(transpose(make_Y(2, 5))) == canonical_code(make_Y(3, 5))
    rng = random.Random(3)
    for _ in range(20):
        g = random_digraph(rng, 5)
        assert underlying(transpose(g)) == underlying(g)


def test_predicates():
    g = fig_digraph()
    assert weakly_connected(g)
    assert is_regular(g) is None
    assert degrees(g) == (1, 3, 2, 2)
    assert is_regular(complete_digraph(4)) == 3
    two_digons = Digraph.of(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not weakly_connected(two_digons)
    assert bipartite_underlying(two_digons)
    assert not bipartite_underlying(complete_digraph(3))


def test_make_Y():
    assert make_Y(0, 3) == complete_digraph(3)
    assert make_Y(3, 3) == complete_digraph(3)
    assert make_Y(2, 3) == Digraph.of(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    assert make_Y(1, 2) == Digraph.of(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        make_Y(4, 3)
    for a, n in [(2, 5), (3, 7), (0, 4)]:
        expected = a * (a - 1) + (n - a) * (n - a - 1) + a * (n - a)
        assert len(make_Y(a, n).arcs) == expected


def test_digon_cut_switch():
    assert digon_cut_switch(complete_digraph(3), {2}) == make_Y(2, 3)
    g = fig_digraph()
    assert digon_cut_switch(g, set()) == g
    for n in (4, 5):
        for a in range(n):
            assert digon_cut_switch(complete_digraph(n), set(range(a, n))) == make_Y(a, n)
    with pytest.raises(PreconditionError) as err:
        digon_cut_switch(fig_digraph(), {3})  # one-way arcs (1,3),(3,2) cross
    assert "(" in str(err.value)  # names the offending arc


def test_eta_function_antisymmetry():
    rng = random.Random(11)
    for _ in range(20):
        g = random_digraph(rng, 5)
        if not g.arcs:
            continue
        space = arc_space(g)
        weight = space.theta_weight
        for i in range(len(space)):
            assert weight[i] + weight[space.inv[i]] == 0
            u, v = space.arcs[i]
            in_digon = (u, v) in g.arcs and (v, u) in g.arcs
            assert (weight[i] == 0) == in_digon
        # reversing every arc negates the labeling arcwise
        tspace = arc_space(transpose(g))
        assert tspace.arcs == space.arcs
        for i in range(len(space)):
            assert tspace.theta_weight[i] == -space.theta_weight[i]


def test_arc_space_pairing():
    g = fig_digraph()
    space = arc_space(g)
    assert space.arcs == ((0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
    for i, (u, v) in enumerate(space.arcs):
        assert space.arcs[space.inv[i]] == (v, u)
        assert space.origin[i] == u and space.terminus[i] == v


def test_arc_space_is_one_cached_read_only_context():
    g = fig_digraph()
    space = arc_space(g)
    assert isinstance(space, ArcSpace)
    assert arc_space(Digraph.of(4, sorted(g.arcs))) is space  # equal digraphs share it
    assert space.t.tolist() == list(space.terminus)
    assert space.o.tolist() == list(space.origin)
    assert space.inv.tolist() == [i ^ 1 for i in range(len(space))]
    assert space.deg.tolist() == list(degrees(g))
    # S Chat from its definition: 2 [o(a) = t(b)] - deg o(a) [b = a^-1]
    want = [[2 * (space.origin[a] == space.terminus[b])
             - (space.degree[space.origin[a]] if b == a ^ 1 else 0)
             for b in range(len(space))] for a in range(len(space))]
    assert space.s_chat.tolist() == want
    for arr in (space.t, space.o, space.inv, space.deg, space.s_chat):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[...] = 0
    with pytest.raises(TypeError):
        space.index[(0, 1)] = 1
    with pytest.raises(NoArcsError):
        arc_space(Digraph.of(3, []))


def test_arc_list_parsing():
    g = parse_arc_list(FIG_ARCS)
    assert g.n == 4 and len(g.arcs) == 5
    sugar = parse_arc_list("n=3; 0<->1; 1->2")
    assert sugar == Digraph.of(3, [(0, 1), (1, 0), (1, 2)])
    assert parse_arc_list(arc_list_text(g)) == g
    for bad in ("0->1", "n=2; 0-1", "n=2; 0->0", "n=2; 0->3", "n=x; 0->1"):
        with pytest.raises(ValueError):
            parse_arc_list(bad)


def test_compact_code_round_trip():
    g = fig_digraph()
    code = compact_code(g)
    assert len(code) == 6
    assert from_compact_code(code) == g
    assert from_compact_code(code, 4) == g
    rng = random.Random(23)
    for _ in range(30):
        h = random_digraph(rng, rng.randint(2, 7))
        assert from_compact_code(compact_code(h)) == h
    assert compact_code(Digraph.of(2, [(0, 1)])) == "1"
    assert compact_code(Digraph.of(2, [(1, 0)])) == "2"
    assert compact_code(Digraph.of(2, [(0, 1), (1, 0)])) == "3"
    assert from_compact_code("012") == Digraph.of(3, [(0, 2), (2, 1)])
    with pytest.raises(ValueError):
        from_compact_code("0120")  # 4 pairs is not a triangular count
    with pytest.raises(ValueError):
        from_compact_code("4")


def test_is_graph():
    assert is_graph(complete_digraph(4))
    assert not is_graph(fig_digraph())
    assert is_graph(Digraph.of(3, []))
