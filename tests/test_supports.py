import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle
from digraphwalk.digraph import ArcSpace, Digraph, arc_space, PreconditionError, complete_digraph, make_Y, transpose, underlying_edges, digons
from digraphwalk.operators import (
    OpMatrix,
    build_D_theta,
    build_S,
    build_U_grover,
    build_U_theta,
    build_R,
)
from digraphwalk.enumeration import DIGRAPH_CLASS_COUNTS, enumerate_digraphs
from digraphwalk.spectra import charpoly_int
from digraphwalk.supports import (
    digon_count_via_trace,
    eta_regime,
    grover_positive_support_regular,
    grover_square_signs,
    pair_class,
    power_support,
    sign_data_power,
    support,
    verify_square_negative_identity,
    verify_square_support_formula,
)

from util import fig_digraph, random_digraph

TABLED_ANGLES = (Angle(1, 3), Angle(1, 2), Angle(2, 3))


def test_support_of_identity():
    from digraphwalk.operators import arc_space_index

    g = complete_digraph(3)
    sp = arc_space_index(arc_space(g))
    eye = OpMatrix.identity(sp)
    sup = support(eye, "+")
    assert sup.data == tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
    assert support(eye, "-").trace() == 0


def test_support_requires_real_entries():
    from digraphwalk.operators import build_S_theta

    st = build_S_theta(fig_digraph(), Angle(1, 2))
    with pytest.raises(PreconditionError):
        support(st, "+")
    support(st, "+", real_part=True)  # opt-in works


def test_grover_positive_support_formula_k4():
    g = complete_digraph(4)
    u = build_U_grover(g)
    direct = support(u, "+")
    formula = grover_positive_support_regular(g)
    assert direct.data == formula.data
    # negative support of a regular walk is the plain shift
    s = build_S(g)
    minus = support(u, "-")
    assert minus.data == tuple(tuple(1 if s.data[i][j] == 1 else 0 for j in range(12))
                               for i in range(12))


def test_first_power_support_equals_grover_support():
    rng = random.Random(55)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(2, 5))
        if not g.arcs:
            continue
        u = build_U_grover(g)
        for eta in TABLED_ANGLES:
            for sign in ("+", "-"):
                assert power_support(g, eta, 1, sign).data == support(u, sign).data


def test_digon_free_square_support_vanishes_at_half_pi():
    tournament = Digraph.of(3, [(0, 1), (1, 2), (2, 0)])
    sup = power_support(tournament, Angle(1, 2), 2, "+")
    assert all(all(x == 0 for x in row) for row in sup.data)
    assert build_R(tournament).is_zero()


def test_example_digraph_square_trace():
    # irregular graph: the digon's two-step return amplitude is
    # (2/1 - 1)(2/3 - 1) = -1/3, so the digon arcs land in the negative
    # support and the positive trace reads 0 rather than 2d
    assert power_support(fig_digraph(), Angle(1, 2), 2, "+").trace() == 0
    assert power_support(fig_digraph(), Angle(1, 2), 2, "-").trace() == 2
    assert digon_count_via_trace(fig_digraph(), Angle(1, 2)) == 0


def test_generic_scalar_path_agrees_with_integer_path():
    # pi/4 has an order-8 field: power_support runs the elementwise route
    g = complete_digraph(4)
    eta8 = Angle(1, 4)
    sup = power_support(g, eta8, 2, "+")
    # below pi/2 the square support equals the underlying Grover one
    grover = power_support(g, Angle(0, 1), 2, "+")
    assert sup.data == grover.data
    # and the integer fast path agrees with the exact scalar path where both run
    for eta in TABLED_ANGLES:
        fast = power_support(g, eta, 2, "+").data
        u = build_U_theta(g, eta)
        mat = build_D_theta(g, eta) @ u @ u
        slow = tuple(tuple(1 if x.real_part_sign() == 1 else 0 for x in row)
                     for row in mat.data)
        assert fast == slow


def test_third_power_supports_disjoint():
    rng = random.Random(4)
    for _ in range(6):
        g = random_digraph(rng, 4)
        if not g.arcs:
            continue
        for eta in (Angle(1, 2), Angle(2, 3)):
            plus = np.array(power_support(g, eta, 3, "+").rows())
            minus = np.array(power_support(g, eta, 3, "-").rows())
            assert not (plus * minus).any()


def test_square_support_formula_regimes_on_k4():
    g = complete_digraph(4)
    for eta, regime in ((Angle(1, 3), 1), (Angle(1, 2), 2), (Angle(2, 3), 3), (Angle(1, 1), 3)):
        rep = verify_square_support_formula(g, eta)
        assert rep.regime == regime
        assert rep.precondition_ok and rep.holds
    rep = verify_square_support_formula(make_Y(2, 4), Angle(2, 3))
    assert rep.precondition_ok and rep.holds


def test_square_support_formula_empirical_probe():
    g = fig_digraph()  # not regular
    rep = verify_square_support_formula(g, Angle(2, 3))
    assert not rep.precondition_ok and rep.empirical
    assert rep.holds  # single-middle-arc structure holds with no regularity


def test_trace_counts():
    # guaranteed regime: k-regular with k >= 3
    assert digon_count_via_trace(complete_digraph(4), Angle(1, 4)) == 6
    assert digon_count_via_trace(complete_digraph(5), Angle(1, 1)) == 10
    assert digon_count_via_trace(make_Y(2, 4), Angle(2, 3)) == 2
    assert digon_count_via_trace(make_Y(2, 6), Angle(2, 3)) == len(digons(make_Y(2, 6)))
    assert digon_count_via_trace(make_Y(2, 4), Angle(1, 3)) == len(underlying_edges(make_Y(2, 4)))
    # degree-2 underlying graphs sit outside the guarantee: the two-step
    # return amplitude vanishes, so the trace reads 0, not the digon count
    assert digon_count_via_trace(make_Y(2, 3), Angle(2, 3)) == 0


def test_negative_square_identity():
    assert verify_square_negative_identity(complete_digraph(4)).holds
    assert verify_square_negative_identity(complete_digraph(5)).holds
    c3 = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    rep = verify_square_negative_identity(c3)  # 2-regular: rejected
    assert not rep.precondition_ok
    rep = verify_square_negative_identity(make_Y(2, 4))  # regular but not undirected
    assert not rep.precondition_ok


def test_pair_classification_matches_square_signs():
    # undirected regular, k >= 3: sign of (U^2)_ab from the pair class
    for g in (complete_digraph(4), complete_digraph(5)):
        space = arc_space(g)
        u = build_U_grover(g)
        u2 = u @ u
        for a in range(len(space)):
            for b in range(len(space)):
                cls = pair_class(space, a, b)
                sign = u2.data[a][b].real_part_sign()
                if cls in ("i", "iv"):
                    assert sign == 1
                elif cls in ("ii", "iii"):
                    assert sign == -1
                else:
                    assert sign == 0


def test_single_middle_arc_identity_regular():
    # for a regular digraph each squared-walk entry is one rotated product
    from digraphwalk.cyclotomic import make_root, CycScalar

    g = make_Y(2, 4)
    eta = Angle(2, 3)
    space = arc_space(g)
    u = build_U_grover(g)
    u2 = u @ u
    lhs = build_D_theta(g, eta) @ build_U_theta(g, eta) @ build_U_theta(g, eta)
    root = make_root(eta)
    for a in range(len(space)):
        for b in range(len(space)):
            m = (space.terminus[b], space.origin[a])
            base = u2.data[a][b].lift(6)
            if m in space.index:
                w = space.theta_weight[space.index[m]]
                phase = {0: CycScalar.rational(1, 6), 1: root.conj(), -1: root}[w]
                assert lhs.data[a][b] == phase * base
            else:
                assert lhs.data[a][b].is_zero() and base.is_zero()


def test_transpose_invariance_of_square_supports():
    rng = random.Random(123)
    for _ in range(15):
        g = random_digraph(rng, 4)
        if not g.arcs:
            continue
        gt = transpose(g)
        for eta in (Angle(1, 2), Angle(2, 3)):
            for sign in ("+", "-"):
                a = power_support(g, eta, 2, sign)
                b = power_support(gt, eta, 2, sign)
                assert a.data == b.data
                assert charpoly_int(a.rows()) == charpoly_int(b.rows())


def test_square_support_sweep_reports_a_transpose_mismatch(monkeypatch):
    # the sweep must notice when the transpose's support differs from g's
    from dataclasses import replace

    from digraphwalk import verify

    transposes = []

    def recorded_transpose(g):
        transposes.append(transpose(g))
        return transposes[-1]

    monkeypatch.setattr(verify, "transpose", recorded_transpose)

    def flipped_for_transpose(g, eta, n, sign):
        s = power_support(g, eta, n, sign)
        if not any(g is t for t in transposes):
            return s
        rows = s.rows()
        rows[0][0] ^= 1
        return replace(s, data=tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "power_support", flipped_for_transpose)
    failures = verify.check_square_supports(2)
    assert failures and all("transpose changes squared support" in f for f in failures)


def test_eta_regime():
    assert eta_regime(Angle(0, 1)) == 1
    assert eta_regime(Angle(1, 3)) == 1
    assert eta_regime(Angle(1, 2)) == 2
    assert eta_regime(Angle(2, 3)) == 3
    assert eta_regime(Angle(1, 1)) == 3


def test_grid_text_render():
    sup = power_support(fig_digraph(), Angle(1, 2), 2, "+")
    text = sup.grid_text()
    assert text.startswith("# arcs: 0>1 1>0")
    assert len(text.splitlines()) == 9


def test_square_signs_exact_on_star_forest():
    # disjoint stars with centre degrees the primes 2..47; their degree lcm,
    # 6.1e17, overflowed int64 when the sign kernels scaled by it
    arcs, centre = set(), 0
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for leaf in range(centre + 1, centre + 1 + d):
            arcs |= {(centre, leaf), (leaf, centre)}
        centre += 1 + d
    g = Digraph(centre, frozenset(arcs))
    space = arc_space(g)
    # exact Grover U by sparse rows: U[a, b] is nonzero only when t(b) = o(a)
    into = defaultdict(list)
    for b, t in enumerate(space.terminus):
        into[t].append(b)
    rows = []
    for a, o in enumerate(space.origin):
        row = {b: Fraction(2, len(into[o])) for b in into[o]}
        row[space.inv[a]] -= 1
        rows.append(row)
    want = np.zeros((len(space), len(space)), dtype=np.int64)
    for a, row in enumerate(rows):
        acc = defaultdict(Fraction)
        for b, x in row.items():
            for c, y in rows[b].items():
                acc[c] += x * y
        for c, val in acc.items():
            want[a, c] = (val > 0) - (val < 0)
    assert np.array_equal(grover_square_signs(g), want)
    # every arc lies in a digon, so D_theta = I and U_theta = U at any angle
    sup = power_support(g, Angle(1, 2), 2, "+")
    assert np.array_equal(np.array(sup.data), (want == 1).astype(np.int64))


def test_exact_matmul_routes_equal_python_int_product():
    from digraphwalk.supports import _exact_matmul

    rng = np.random.default_rng(4242)
    # (rows, inner, cols, entry bound, route): the float64 route while
    # inner * max|a| * max|b| < 2**53, Python ints beyond it
    for rows, inner, cols, high, route in ((9, 7, 5, 50, np.int64),
                                           (30, 1024, 20, 2 ** 21, np.int64),
                                           (12, 1024, 10, 2 ** 22, object),
                                           (6, 8, 3, 2 ** 40, object)):
        a = rng.integers(-high, high, size=(rows, inner), endpoint=True)
        b = rng.integers(-high, high, size=(inner, cols), endpoint=True)
        a[0, 0] = high   # reach the bound
        want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.tolist())]
                for row in a.tolist()]
        got = _exact_matmul(a, b)
        assert got.dtype == route, (inner, high)
        assert got.tolist() == want, (inner, high)


# -- the middle-arc lemma ----------------------------------------------------
#
# Each entry of D_theta U_theta^2 has at most one middle arc, so the
# three-regime formula holds for every digraph, not only k-regular ones with
# k >= 3.  verify_square_support_formula compares the formula with the
# signs of an independent route: the integer products of sign_data_power at
# the tabulated angles, the exact OpMatrix power elsewhere.


def _assert_lemma(graphs, angles) -> int:
    checked = 0
    for g in graphs:
        if not g.arcs:
            continue
        for eta in angles:
            assert verify_square_support_formula(g, eta).holds, (g, eta)
        checked += 1
    return checked


def test_middle_arc_lemma_every_digraph_of_order_five():
    assert _assert_lemma(enumerate_digraphs(5), TABLED_ANGLES) == DIGRAPH_CLASS_COUNTS[5] - 1


def test_middle_arc_lemma_at_generic_angles_orders_two_to_four():
    generic = (Angle(1, 4), Angle(2, 5), Angle(5, 6))
    g = complete_digraph(3)
    # these angles take the exact scalar route, not the integer one
    assert all(sign_data_power(g, eta, 2) is None for eta in generic)
    for n in (2, 3, 4):
        assert _assert_lemma(enumerate_digraphs(n), generic) == DIGRAPH_CLASS_COUNTS[n] - 1


def test_middle_arc_lemma_on_random_larger_digraphs():
    rng = random.Random(710)
    graphs = [random_digraph(rng, n, density) for n in (7, 8, 9, 10)
              for density in (0.2, 0.35, 0.5) for _ in range(8)]
    assert _assert_lemma(graphs, (Angle(1, 2), Angle(2, 3))) == len(graphs)


def test_one_arc_context_per_digraph(monkeypatch):
    builds = []
    init = ArcSpace.__init__

    def counted(self, g):
        builds.append(g)
        init(self, g)

    arc_space.cache_clear()
    monkeypatch.setattr(ArcSpace, "__init__", counted)
    g = make_Y(2, 5)
    for eta in TABLED_ANGLES:
        verify_square_support_formula(g, eta)
        digon_count_via_trace(g, eta)
    assert builds == [g]
