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

import util
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
    # pi/4 has an order-8 field, whose cosine is irrational: power_support
    # runs the full coefficient-stack products, not the one-product fold
    g = complete_digraph(4)
    eta8 = Angle(1, 4)
    sup = power_support(g, eta8, 2, "+")
    # below pi/2 the square support equals the underlying Grover one
    grover = power_support(g, Angle(0, 1), 2, "+")
    assert sup.data == grover.data
    # and the fold agrees with the per-entry oracle's product at the tabulated angles
    for eta in TABLED_ANGLES:
        fast = power_support(g, eta, 2, "+").data
        u = util.oracle_matmul(util.oracle_S_theta(g, eta), util.oracle_C(g))
        mat = util.oracle_matmul(util.oracle_matmul(util.oracle_D_theta(g, eta), u), u)
        slow = tuple(tuple(1 if util.oracle_real_sign(x) == 1 else 0 for x in row)
                     for row in mat.rows)
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
                sign = util.oracle_real_sign(u2.data[a][b])
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
                # entrywise equality means something only on one arc order
                assert a.space.labels == b.space.labels
                assert a.data == b.data


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
# signs of an independent route: the integer products of sign_data_power,
# one folded product at the tabulated angles and the full coefficient-stack
# products elsewhere, never the formula.


def _recorded(calls: list, name: str, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)
    return wrapper


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


def test_middle_arc_lemma_at_generic_angles_orders_two_to_four(monkeypatch):
    from digraphwalk import supports

    generic = (Angle(1, 4), Angle(2, 5), Angle(5, 6))
    g = complete_digraph(3)
    # these angles take the full coefficient-stack products, not the fold
    routes = []
    for name in ("_square_fold", "_product_signs"):
        monkeypatch.setattr(supports, name, _recorded(routes, name, getattr(supports, name)))
    supports.sign_data_power.cache_clear()
    for eta in generic:
        sign_data_power(g, eta, 2)
    assert routes == ["_product_signs"] * len(generic)
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


def test_one_grover_square_and_one_sign_product_per_angle(monkeypatch):
    # verify + trace at three angles: the Grover square once per digraph and
    # the n = 2 signs once per (digraph, angle), from the caches
    from digraphwalk import supports

    g = make_Y(2, 5)
    s_chat = arc_space(g).s_chat
    rights = []
    matmul = supports._exact_matmul

    def counted(a, b):
        rights.append(b)
        return matmul(a, b)

    supports.grover_square_signs.cache_clear()
    supports.sign_data_power.cache_clear()
    monkeypatch.setattr(supports, "_exact_matmul", counted)
    for eta in TABLED_ANGLES:
        assert verify_square_support_formula(g, eta).holds
        digon_count_via_trace(g, eta)
    grover = [b for b in rights if b is s_chat]
    assert len(grover) == 1 and len(rights) == 1 + len(TABLED_ANGLES)
    assert not grover_square_signs(g).flags.writeable
    assert not sign_data_power(g, Angle(1, 2), 2).flags.writeable


# -- the coefficient-stack products ------------------------------------------------
#
# D_theta U_theta^n from the per-entry oracle of tests/util.py is the oracle:
# D_theta, S_theta and C from their definitions, entry by entry, and each
# power one more per-entry product D_theta U_theta^(n-1) U_theta.  It shares
# nothing with the coordinate stacks or _exact_matmul, which OpMatrix and
# sign_data_power both run through.

STACK_ANGLES = (Angle(0, 1), Angle(1, 3), Angle(1, 2), Angle(2, 3), Angle(1, 1),
                Angle(1, 4), Angle(2, 5), Angle(3, 7), Angle(5, 6))


def _oracle_signs(g, eta, powers):
    cur = util.oracle_D_theta(g, eta)
    u = util.oracle_matmul(util.oracle_S_theta(g, eta), util.oracle_C(g))
    out = {}
    for n in range(1, max(powers) + 1):
        cur = util.oracle_matmul(cur, u)
        if n in powers:
            out[n] = np.array([[util.oracle_real_sign(x) for x in row] for row in cur.rows])
    return out


def test_sign_data_power_equals_opmatrix_power_orders_two_to_four():
    checked = 0
    for order in (2, 3, 4):
        for g in enumerate_digraphs(order):
            if not g.arcs:
                continue
            for eta in STACK_ANGLES:
                for n, want in _oracle_signs(g, eta, (1, 2, 3, 4)).items():
                    assert np.array_equal(sign_data_power(g, eta, n), want), (g, eta, n)
                    checked += 1
    assert checked == (sum(DIGRAPH_CLASS_COUNTS[n] - 1 for n in (2, 3, 4))
                       * len(STACK_ANGLES) * 4)


def test_sign_data_power_equals_opmatrix_power_on_random_larger_digraphs():
    rng = random.Random(8080)
    for order in (7, 8, 9, 10):
        g = random_digraph(rng, order, 0.3)
        for eta in (Angle(2, 5), Angle(3, 7)):
            want = _oracle_signs(g, eta, (3,))[3]
            assert np.array_equal(sign_data_power(g, eta, 3), want), (g, eta)


def _forced_route_cases():
    rng = random.Random(31)
    graphs = [random_digraph(rng, n, 0.5) for n in (3, 4, 5, 6)]
    return [(g, eta, n) for g in graphs if g.arcs
            for eta in (Angle(2, 3), Angle(2, 5), Angle(3, 7)) for n in (2, 3, 4)]


def _fresh_signs(cases):
    from digraphwalk import supports

    supports.sign_data_power.cache_clear()
    return [np.array(sign_data_power(g, eta, n)) for g, eta, n in cases]


def test_python_int_route_equals_int64_route(monkeypatch):
    from digraphwalk import cyclotomic, supports

    cases = _forced_route_cases()
    want = _fresh_signs(cases)
    dtypes = set()
    matmul = supports._exact_matmul

    def recorded(a, b):
        out = matmul(a, b)
        dtypes.add(out.dtype)
        return out

    # with bounds of 1 no step can be proven to fit int64 or float64
    monkeypatch.setattr(cyclotomic, "INT64_BOUND", 1)
    monkeypatch.setattr(cyclotomic, "FLOAT_EXACT", 1)
    monkeypatch.setattr(supports, "_exact_matmul", recorded)
    got = _fresh_signs(cases)
    assert dtypes == {np.dtype(object)}
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    supports.sign_data_power.cache_clear()


def test_exact_fallback_for_every_entry_equals_certified_floats(monkeypatch):
    from digraphwalk import cyclotomic, supports

    cases = [c for c in _forced_route_cases() if c[1].order not in (2, 4, 6)]
    want = _fresh_signs(cases)
    exact = []
    fixed_point_signs = cyclotomic._fixed_point_signs

    def recorded(m, coords):
        exact.append(coords.shape[1])
        return fixed_point_signs(m, coords)

    # an infinite bound certifies no float: every nonzero entry goes to the
    # fixed-point sums
    monkeypatch.setattr(cyclotomic, "FLOAT_ERR", float("inf"))
    monkeypatch.setattr(cyclotomic, "_fixed_point_signs", recorded)
    got = _fresh_signs(cases)
    assert sum(exact) == sum(int(np.count_nonzero(w)) for w in want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    supports.sign_data_power.cache_clear()


def test_entry_with_zero_real_part_and_nonzero_coordinates(monkeypatch):
    # entry [0, 3] of D_theta U_theta^3 here is zeta_8^2 = i
    from digraphwalk import cyclotomic, supports

    g, eta = Digraph.of(3, [(0, 2), (2, 1)]), Angle(1, 4)
    u = util.oracle_matmul(util.oracle_S_theta(g, eta), util.oracle_C(g))
    mat = util.oracle_matmul(util.oracle_D_theta(g, eta), util.oracle_power(u, 3)).rows
    assert not mat[0][3].is_zero() and util.oracle_real_sign(mat[0][3]) == 0
    want = np.array([[util.oracle_real_sign(x) for x in row] for row in mat])
    for err in (cyclotomic.FLOAT_ERR, float("inf")):
        monkeypatch.setattr(cyclotomic, "FLOAT_ERR", err)
        got = _fresh_signs([(g, eta, 3)])[0]
        assert got[0, 3] == 0 and np.array_equal(got, want)
    supports.sign_data_power.cache_clear()


def test_sign_data_power_refuses_powers_below_one():
    with pytest.raises(PreconditionError):
        sign_data_power(complete_digraph(3), Angle(1, 2), 0)
