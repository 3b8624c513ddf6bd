import json

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle, CycScalar
from digraphwalk.digraph import PreconditionError, complete_digraph, make_Y
from digraphwalk.tables import (
    PUBLISHED_CELLS,
    ROW_LABELS,
    STANDARD_TABLES,
    classify,
    classing_key,
    emit_table,
    verify_against_published,
)

import util


def test_all_tables_match_published_orders_two_three():
    for table_id, (functor, eta) in STANDARD_TABLES.items():
        for order in (2, 3):
            t = classify(order, functor, eta)
            assert verify_against_published(table_id, t) == [], table_id


def test_order_four_hermitian_and_u2():
    t = classify(4, "Heta", Angle(1, 3))
    assert t.row_values() == PUBLISHED_CELLS["H_pi3"][4]
    t = classify(4, "U2plus", Angle(2, 3))
    assert t.row_values() == PUBLISHED_CELLS["U2_gt_pi2"][4]


def test_hermitian_key_routes_agree():
    # the residue-table kernel vs charpoly_exact over cyclotomic scalars at eta = pi/3
    from digraphwalk.operators import build_H_eta
    from digraphwalk.spectra import charpoly_exact

    for g in (complete_digraph(3), make_Y(2, 4)):
        fast = classing_key(g, "Heta", Angle(1, 3))
        exact = charpoly_exact(build_H_eta(g, Angle(1, 3)))
        ints = [c.rational_value() for c in exact.coeffs]
        assert fast == ";".join(str(v) for v in reversed(ints)).encode()


def test_split_family_shares_hermitian_key():
    keys = {classing_key(make_Y(a, 5), "H", None) for a in range(5)}
    assert len(keys) == 1


def test_classing_key_eta_pi_uses_sign_matrix():
    g = make_Y(1, 2)  # single one-way arc
    key = classing_key(g, "Heta", Angle(1, 1))
    # H_pi of one arc is [[0,-1],[-1,0]]: charpoly x^2 - 1
    assert key == b"1;0;-1"


def test_excluded_arcless_digraph():
    from digraphwalk.digraph import empty_digraph

    assert classing_key(empty_digraph(3), "U2plus", Angle(1, 2)) is None
    t = classify(2, "U2plus", Angle(1, 2))
    assert t.n_excluded == 1 and t.n_digraphs == 3


def test_unknown_functor_rejected():
    with pytest.raises(PreconditionError):
        classify(2, "B", None)
    with pytest.raises(PreconditionError):
        classify(7, "A")
    with pytest.raises(PreconditionError):
        classing_key(complete_digraph(2), "Heta", None)


def test_parallel_classing_matches_serial():
    for functor, eta in STANDARD_TABLES.values():
        assert classify(4, functor, eta, jobs=2) == classify(4, functor, eta), (functor, eta)


def test_emit_formats():
    tables = [classify(n, "H", Angle(1, 2)) for n in (2, 3)]
    md = emit_table(tables, "markdown")
    assert md.splitlines()[0] == "| H | order 2 | order 3 |"
    assert "| Number of digraphs | 3 | 16 |" in md
    csv = emit_table(tables, "csv")
    assert csv.splitlines()[0] == ",order 2,order 3"
    assert len(csv.strip().splitlines()) == 1 + len(ROW_LABELS)
    blob = json.loads(emit_table(tables, "json"))
    assert blob["orders"] == [2, 3]
    assert blob["rows"]["Number of digraphs"] == [3, 16]
    single = emit_table(tables[0], "markdown")
    assert "order 2" in single and "order 3" not in single
    with pytest.raises(PreconditionError):
        emit_table(tables, "tsv")


def test_emit_empty_is_header_only():
    assert emit_table([], "csv").strip() == ","
    md = emit_table([], "markdown")
    assert md.splitlines()[0].startswith("|")


# -- kernel keys against the exact Python routes -------------------------------------


def _reference_key(g, functor, eta):
    """Key of functor(g) from berkowitz_charpoly over Python ints, or over
    cyclotomic scalars for the Hermitian matrices at angles of order 4 and
    above (from the per-entry oracle beyond the quadratic fields)."""
    from digraphwalk.operators import build_H_eta
    from digraphwalk.spectra import CharPoly, berkowitz_charpoly, cospectral_key
    from digraphwalk.supports import power_support

    n = g.n
    if functor == "A":
        rows = [[int((i, j) in g.arcs) for j in range(n)] for i in range(n)]
    elif functor == "U2plus":
        if not g.arcs:
            return None
        rows = power_support(g, eta, 2, "+").rows()
    elif eta.order == 2:
        sign = 1 if eta.p == 0 else -1
        rows = [[(1 if (y, x) in g.arcs else sign) if (x, y) in g.arcs
                 else (sign if (y, x) in g.arcs else 0) for y in range(n)] for x in range(n)]
    elif eta.order not in (4, 6):
        one, zero = CycScalar.rational(1, eta.order), CycScalar.rational(0, eta.order)
        coeffs = berkowitz_charpoly([list(r) for r in util.oracle_H_eta(g, eta).rows], one, zero)
        return cospectral_key(CharPoly(tuple(reversed(coeffs)), "cyclotomic-real", True))
    else:
        one, zero = CycScalar.rational(1, eta.order), CycScalar.rational(0, eta.order)
        coeffs = berkowitz_charpoly([list(r) for r in build_H_eta(g, eta).data], one, zero)
        return ";".join(str(c.rational_value()) for c in coeffs).encode()
    return ";".join(str(c) for c in berkowitz_charpoly(rows, 1, 0)).encode()


def test_kernel_keys_equal_python_reference_orders_two_to_four():
    from digraphwalk.enumeration import (
        enumerate_undirected_graphs,
        orientation_stack,
        orientations_up_to_iso,
    )
    from digraphwalk.tables import _classing_keys

    cases = [(functor if functor != "H" else "Heta", eta)
             for functor, eta in STANDARD_TABLES.values()]
    cases += [("Heta", Angle(0, 1)), ("Heta", Angle(1, 1))]
    # generic angles: _classing_keys keys them through charpoly_exact
    cases += [("Heta", Angle(2, 5)), ("Heta", Angle(3, 7))]
    # regimes 1 and 3 at an irrational cosine: the reference takes the exact OpMatrix power
    cases += [("U2plus", Angle(2, 5)), ("U2plus", Angle(3, 5))]
    for order in (2, 3, 4):
        for base in enumerate_undirected_graphs(order):
            stack = orientation_stack(base)
            graphs = list(orientations_up_to_iso(base))
            for functor, eta in cases:
                want = [_reference_key(g, functor, eta) for g in graphs]
                if functor == "U2plus":
                    # the stack route keys digon-set classes (next test); this is every digraph
                    assert [classing_key(g, functor, eta) for g in graphs] == want, (
                        order, eta, base)
                    continue
                assert _classing_keys(stack, functor, eta) == want, (order, functor, eta, base)
                assert [classing_key(g, functor, eta) for g in graphs[::7]] == want[::7]


def test_u2_lemma_keys_equal_per_digraph_sign_route_orders_two_to_five():
    # the keys from (underlying graph, digon set) against the per-digraph
    # route they replaced: the defining signs of D_theta U_theta^2 on each
    # digraph of orientation_stack (sign_data_power's products: one folded
    # product at a rational cosine, the full coefficient-stack products at an
    # irrational one), charpolyed in one batch
    # per base; one angle in each of the three regimes
    from digraphwalk.digraph import Digraph, is_graph
    from digraphwalk.enumeration import orientation_stack
    from digraphwalk.spectra import charpoly_batch
    from digraphwalk.supports import sign_data_power
    from digraphwalk.tables import _bases, _key_partition

    runs = [(eta, order) for eta in (Angle(1, 2), Angle(2, 3)) for order in (2, 3, 4, 5)]
    runs += [(eta, order) for eta in (Angle(1, 3), Angle(3, 5)) for order in (2, 3, 4)]
    for eta, order in runs:
        for base, underlying in enumerate(_bases(order)):
            stack = orientation_stack(underlying)
            graphs = []
            for adj in stack:
                u, v = np.nonzero(adj)
                graphs.append(Digraph(order, frozenset(zip(u.tolist(), v.tolist()))))
            keyed = [g for g in graphs if g.arcs]
            want: dict = {}
            if keyed:
                supports = np.stack([sign_data_power(g, eta, 2) == 1 for g in keyed])
                for g, coeffs in zip(keyed, charpoly_batch(supports)):
                    slot = want.setdefault(";".join(str(c) for c in coeffs).encode(), [0, 0])
                    slot[0] += 1
                    slot[1] += is_graph(g)
            got = _key_partition((order, "U2plus", eta, base))
            assert got == (len(stack), len(graphs) - len(keyed), want), (order, eta, base)


def test_u2_tables_depend_only_on_the_regime_orders_two_to_five():
    from digraphwalk.tables import _bases

    # one table serves every angle in (pi/2, pi): the published 2pi/3 column
    for eta in (Angle(3, 5), Angle(5, 6)):
        for order in (2, 3, 4, 5):
            t = classify(order, "U2plus", eta)
            assert t.row_values() == PUBLISHED_CELLS["U2_gt_pi2"][order], (eta, order)
    # below pi/2 the support ignores the digon set: every digraph is
    # U^2-cospectral with its underlying graph, so each class holds a graph
    # and the classes are the bases grouped by key
    for eta in (Angle(1, 3), Angle(2, 5)):
        for order in (2, 3, 4, 5):
            t = classify(order, "U2plus", eta)
            keys = {classing_key(base, "U2plus", eta) for base in _bases(order) if base.arcs}
            assert t.classes_no_graph == 0 and t.n_distinct == len(keys), (eta, order)
        assert t.n_distinct == 32


def test_u2_keys_of_larger_digraphs_equal_power_support():
    # the single-digraph lemma route past the orders of the tables
    import random

    from digraphwalk.spectra import charpoly_int
    from digraphwalk.supports import power_support
    from util import random_digraph

    rng = random.Random(97)
    graphs = [random_digraph(rng, n, 0.3) for n in (7, 10) for _ in range(3)]
    for eta in (Angle(1, 2), Angle(2, 3)):
        for g in graphs:
            want = charpoly_int(power_support(g, eta, 2, "+").rows())
            assert classing_key(g, "U2plus", eta) == ";".join(str(c) for c in want).encode()


# -- parallel split --------------------------------------------------------------------------


def test_jobs_send_one_distinct_task_per_base(monkeypatch):
    import digraphwalk.tables as tables

    serial = classify(4, "A")
    assert classify(4, "A", jobs=2) == serial
    seen = []

    class RecordingPool:
        def __init__(self, workers):
            self.workers = workers

        def imap(self, fn, tasks):
            seen.extend(tasks)
            return map(fn, tasks)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(tables.mp, "Pool", RecordingPool)
    assert classify(4, "A", jobs=2) == serial
    assert sorted(task[3] for task in seen) == list(range(11))   # the bases of order 4


