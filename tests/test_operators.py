import random
from fractions import Fraction

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle, CycScalar, make_root
from digraphwalk import operators, spectra, supports
from digraphwalk.enumeration import DIGRAPH_CLASS_COUNTS, enumerate_digraphs
from digraphwalk.digraph import ArcSpace, Digraph, arc_space, complete_digraph, digons, empty_digraph
from digraphwalk.operators import (
    NoArcsError,
    OpMatrix,
    build_C,
    build_D_theta,
    build_F,
    build_H_eta,
    build_H_tilde,
    build_K,
    build_R,
    build_S,
    build_S_theta,
    build_U_grover,
    build_U_theta,
    vertex_space,
)

import util
from util import fig_digraph, random_digraph

# arc order used in the worked example: the digon pair (1,0),(0,1), then
# (2,1),(1,2), then (1,3),(3,1), then (3,2),(2,3)
EXAMPLE_ORDER = [(1, 0), (0, 1), (2, 1), (1, 2), (1, 3), (3, 1), (3, 2), (2, 3)]


def _perm_to_example(space: ArcSpace) -> list[int]:
    return [space.index[a] for a in EXAMPLE_ORDER]


def test_boundary_matrix_worked_example():
    g = fig_digraph()
    space = arc_space(g)
    k = build_K(g)
    perm = _perm_to_example(space)
    # printed entries: 1/sqrt(deg t(a)) at row t(a); degrees (1,3,2,2)
    assert k.row_sqrt == (1, 3, 2, 2)
    pattern = [[1 if space.terminus[j] == v else 0 for j in perm] for v in range(4)]
    expected = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 1],
    ]
    assert pattern == expected
    core = [[k.data[v][j].rational_value() for j in perm] for v in range(4)]
    assert core == [[Fraction(x) for x in row] for row in expected]


def _reordered(mat: OpMatrix, perm) -> list[list[CycScalar]]:
    return [[mat.data[i][j] for j in perm] for i in perm]


def test_coin_worked_example():
    g = fig_digraph()
    space = arc_space(g)
    c = build_C(g)
    got = _reordered(c, _perm_to_example(space))
    t, h = Fraction(2, 3), Fraction(-1, 3)
    expected = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, h, t, 0, 0, t, 0, 0],
        [0, t, h, 0, 0, t, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, t, t, 0, 0, h, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ]
    for i in range(8):
        for j in range(8):
            assert got[i][j] == CycScalar.rational(expected[i][j])


def test_twisted_shift_worked_example():
    g = fig_digraph()
    space = arc_space(g)
    st = build_S_theta(g, Angle(1, 2))
    got = _reordered(st, _perm_to_example(space))
    i = make_root(Angle(1, 2))
    zero, one = CycScalar.rational(0, 4), CycScalar.rational(1, 4)
    expected = [
        [zero, one, zero, zero, zero, zero, zero, zero],
        [one, zero, zero, zero, zero, zero, zero, zero],
        [zero, zero, zero, -i, zero, zero, zero, zero],
        [zero, zero, i, zero, zero, zero, zero, zero],
        [zero, zero, zero, zero, zero, -i, zero, zero],
        [zero, zero, zero, zero, i, zero, zero, zero],
        [zero, zero, zero, zero, zero, zero, zero, -i],
        [zero, zero, zero, zero, zero, zero, i, zero],
    ]
    assert got == [list(r) for r in expected]


def test_transfer_matrix_worked_example():
    g = fig_digraph()
    space = arc_space(g)
    ut = build_U_theta(g, Angle(1, 2))
    got = _reordered(ut, _perm_to_example(space))
    i = make_root(Angle(1, 2))
    z = CycScalar.rational(0, 4)
    t, h = Fraction(2, 3), Fraction(-1, 3)

    def r(x):
        return CycScalar.rational(x, 4)

    expected = [
        [z, r(h), r(t), z, z, r(t), z, z],
        [r(1), z, z, z, z, z, z, z],
        [z, z, z, z, z, z, -i, z],
        [z, i * t, i * h, z, z, i * t, z, z],
        [z, -(i * t), -(i * t), z, z, i * Fraction(1, 3), z, z],
        [z, z, z, z, z, z, z, i],
        [z, z, z, z, -i, z, z, z],
        [z, z, z, i, z, z, z, z],
    ]
    assert got == [list(row) for row in expected]


def test_operator_identities_on_example():
    g = fig_digraph()
    eta = Angle(1, 2)
    k, c = build_K(g), build_C(g)
    st, ut = build_S_theta(g, eta), build_U_theta(g, eta)
    assert (k @ k.adjoint()).is_identity()
    assert (c @ c).is_identity() and c == c.adjoint()
    assert st == st.adjoint() and (st @ st.adjoint()).is_identity()
    assert (ut @ ut.adjoint()).is_identity()
    assert (k @ st @ k.adjoint()) == build_H_tilde(g, eta)
    assert (build_D_theta(g, eta) @ st) == build_S(g)
    assert (build_D_theta(g, eta) @ ut) == build_U_grover(g)


def test_hermitian_adjacency_entries():
    eta = Angle(1, 3)
    digon = Digraph.of(2, [(0, 1), (1, 0)])
    h = build_H_eta(digon, eta)
    assert h.entry(0, 1) == 1 and h.entry(1, 0) == 1
    arc = Digraph.of(2, [(0, 1)])
    h = build_H_eta(arc, Angle(1, 2))
    i = make_root(Angle(1, 2))
    assert h.entry(0, 1) == i and h.entry(1, 0) == i.conj() and h.entry(0, 0) == 0
    # complete digraph: all-ones off the diagonal, any eta
    h = build_H_eta(complete_digraph(3), eta)
    for x in range(3):
        for y in range(3):
            assert h.entry(x, y) == (0 if x == y else 1)


def test_degree_zero_vertices_dropped_from_boundary():
    g = Digraph.of(3, [(0, 1)])  # vertex 2 isolated
    k = build_K(g)
    assert k.row_space.labels == (0, 1)
    assert (k @ k.adjoint()).is_identity()
    h = build_H_eta(g, Angle(1, 2))
    assert h.shape == (3, 3)
    ht = build_H_tilde(g, Angle(1, 2))
    assert ht.shape == (2, 2)


def test_empty_graph_rejected():
    with pytest.raises(NoArcsError):
        build_K(Digraph.of(3, []))


_HALF_PI = Angle(1, 2)

ARC_INDEXED = {
    "build_K": lambda g: build_K(g),
    "build_S": lambda g: build_S(g),
    "build_S_theta": lambda g: build_S_theta(g, _HALF_PI),
    "build_D_theta": lambda g: build_D_theta(g, _HALF_PI),
    "build_C": lambda g: build_C(g),
    "build_U_theta": lambda g: build_U_theta(g, _HALF_PI),
    "build_U_grover": lambda g: build_U_grover(g),
    "build_H_tilde": lambda g: build_H_tilde(g, _HALF_PI),
    "build_F": lambda g: build_F(g),
    "build_R": lambda g: build_R(g),
    "sign_data_power": lambda g: supports.sign_data_power(g, _HALF_PI, 2),
    "grover_square_signs": lambda g: supports.grover_square_signs(g),
    "digon_locator_array": lambda g: supports.digon_locator_array(g),
    "power_support": lambda g: supports.power_support(g, Angle(1, 4), 2, "+"),
    "verify_square_support_formula":
        lambda g: supports.verify_square_support_formula(g, _HALF_PI),
    "digon_count_via_trace": lambda g: supports.digon_count_via_trace(g, _HALF_PI),
    "spectrum_U_via_mapping": lambda g: spectra.spectrum_U_via_mapping(g, _HALF_PI),
    "spectrum_U_oracle": lambda g: spectra.spectrum_U_oracle(g, _HALF_PI),
    "build_U_theta_float": lambda g: spectra.build_U_theta_float(g, 0.5),
    "build_H_tilde_float": lambda g: spectra.build_H_tilde_float(g, 0.5),
    "spectrum_U_float": lambda g: spectra.spectrum_U_float(g, 0.5),
}


@pytest.mark.parametrize("name", sorted(ARC_INDEXED))
def test_every_arc_indexed_entry_point_raises_no_arcs(name):
    with pytest.raises(NoArcsError, match="no arcs"):
        ARC_INDEXED[name](empty_digraph(3))


def _transpose(m: OpMatrix) -> OpMatrix:
    # real 0/1 incidence matrices: adjoint is the plain transpose
    return m.adjoint()


def _conj_entries(m: OpMatrix) -> OpMatrix:
    return OpMatrix(m.row_space, m.col_space,
                    [[x.conj() for x in row] for row in m.data])


def test_incidence_identities():
    rng = random.Random(17)
    for _ in range(15):
        g = random_digraph(rng, 5)
        if not g.arcs:
            continue
        ft, fo = build_F(g)
        s = build_S(g)
        assert (s @ _transpose(ft)) == _transpose(fo)
        assert (s @ _transpose(fo)) == _transpose(ft)
        prod = _transpose(fo) @ ft
        space = arc_space(g)
        for a in range(len(space)):
            for b in range(len(space)):
                want = 1 if space.terminus[b] == space.origin[a] else 0
                assert prod.data[a][b] == want


def test_digon_locator():
    # digon-free digraph: R = 0
    tournament = Digraph.of(3, [(0, 1), (1, 2), (2, 0)])
    assert build_R(tournament).is_zero()
    g = fig_digraph()
    space = arc_space(g)
    r = build_R(g)
    dig = digons(g)
    for a in range(len(space)):
        for b in range(len(space)):
            x, y = space.terminus[b], space.origin[a]
            want = 1 if x != y and (min(x, y), max(x, y)) in dig else 0
            assert r.data[a][b] == want, (a, b)
    # the complement J - R marks exactly the non-digon middle pairs
    complement = OpMatrix.ones(r.row_space) - r
    assert all((complement.data[i][j] == 1) != (r.data[i][j] == 1)
               for i in range(8) for j in range(8))


def test_regular_transfer_via_incidence():
    # k-regular: U = (2/k) Fo^T Ft - S, and the twisted version unwinds to it
    g = complete_digraph(4)
    eta = Angle(1, 2)
    ft, fo = build_F(g)
    s = build_S(g)
    u = (_transpose(fo) @ ft).scaled(Fraction(2, 3)) - s
    assert u == build_U_grover(g)
    assert (build_D_theta(g, eta) @ build_U_theta(g, eta)) == u


def test_reversal_matches_negated_angle():
    from digraphwalk.digraph import transpose as rev

    rng = random.Random(29)
    for _ in range(10):
        g = random_digraph(rng, 4)
        if not g.arcs:
            continue
        for eta in (Angle(1, 3), Angle(2, 3)):
            # the -eta labeling conjugates every phase, which is exactly the
            # labeling the reversed digraph induces
            neg = _conj_entries(build_S_theta(g, eta))
            assert neg == build_S_theta(rev(g), eta)
            assert build_U_theta(rev(g), eta) == (neg @ build_C(g))


def test_index_space_mismatch_rejected():
    g1, g2 = complete_digraph(3), complete_digraph(4)
    with pytest.raises(ValueError):
        _ = build_S(g1) @ build_C(g2)
    with pytest.raises(ValueError):
        _ = build_K(g1) @ build_H_eta(g1, Angle(1, 2))  # arc cols vs full-vertex rows


def test_annotated_product_rules():
    g = fig_digraph()
    k = build_K(g)
    with pytest.raises(ValueError):
        _ = k @ k  # vertex x arc against vertex x arc
    eye = OpMatrix.identity(vertex_space(g, positive_degree_only=True))
    with pytest.raises(ValueError):
        _ = k.adjoint() @ eye  # sqrt annotation meets an unannotated inner index
    # an outer annotation rides along and the sqrt factors still cancel in pairs
    skk = (build_S(g) @ k.adjoint()) @ k
    assert skk.row_sqrt is None and skk.col_sqrt is None
    ht = build_H_tilde(g, Angle(1, 2))
    assert ht.is_self_adjoint()
    arr = ht.to_complex_array()
    assert np.allclose(arr, arr.conj().T)
    assert abs(arr[0, 1] - 1 / 3 ** 0.5) < 1e-15  # digon over degrees 1,3


def test_matrix_power_and_trace():
    g = complete_digraph(4)
    u = build_U_theta(g, Angle(2, 3))
    assert u.power(0).is_identity()
    assert u.power(3) == u @ u @ u
    c = build_C(g)
    assert c.trace() == CycScalar.rational(-4)  # 12 arcs with diagonal 2/3 - 1


def test_from_coords_keeps_its_own_stack():
    vs = vertex_space(complete_digraph(2))
    coords = np.array([[[1, 2], [3, 4]]], dtype=np.int64)   # int64 and reduced: no copy needed
    m = OpMatrix.from_coords(vs, vs, 2, coords)
    assert coords.flags.writeable and not m.coords.flags.writeable
    coords[0, 0, 0] = 7
    assert m.entry(0, 0) == CycScalar.rational(1)


def _entrywise_image(m: OpMatrix) -> np.ndarray:
    # the per-entry oracle, scaled like to_complex_array
    out = np.array([[util.oracle_complex(x) for x in row] for row in m.data], dtype=complex)
    if m.row_sqrt is not None:
        out = np.array([d ** -0.5 for d in m.row_sqrt])[:, None] * out
    if m.col_sqrt is not None:
        out = out * np.array([d ** -0.5 for d in m.col_sqrt])[None, :]
    return out


def test_complex_array_equals_entrywise_images_at_generic_orders(monkeypatch):
    from digraphwalk import cyclotomic

    rng = random.Random(1414)
    graphs = [fig_digraph()] + [random_digraph(rng, n, 0.4) for n in (5, 6)]
    # orders 8, 10, 12 and 14
    angles = (Angle(1, 4), Angle(2, 5), Angle(5, 6), Angle(3, 7))
    mats = [build(g, eta) for g in graphs if g.arcs for eta in angles
            for build in (build_U_theta, build_H_tilde)]
    want = [_entrywise_image(m) for m in mats]
    bits = set()
    unit_circle = cyclotomic._unit_circle_fixed

    def recorded(m, b):
        bits.add(b)
        return unit_circle(m, b)

    monkeypatch.setattr(cyclotomic, "_unit_circle_fixed", recorded)
    # a margin of 2^400 leaves every sum open at FIXED_BITS and twice that
    for margin in (cyclotomic.IMAGE_MARGIN, 2 ** 400):
        monkeypatch.setattr(cyclotomic, "IMAGE_MARGIN", margin)
        for m, w in zip(mats, want):
            got = m.to_complex_array()
            # both within 2^-50 of the truth, relative to each entry
            assert np.all(np.abs(got - w) <= 2.0 ** -48 * np.abs(w)), m
            assert (np.array_equal(got.real == 0, w.real == 0)
                    and np.array_equal(got.imag == 0, w.imag == 0))
    f = cyclotomic.FIXED_BITS
    assert bits == {f, 2 * f, 4 * f}


# -- the coordinate stacks against the per-entry oracle ------------------------------

ORACLE_ANGLES = (Angle(0, 1), Angle(1, 3), Angle(1, 2), Angle(2, 3), Angle(1, 1),
                 Angle(1, 4), Angle(2, 5), Angle(3, 7))


def _same(got: OpMatrix, want: util.Dense):
    assert (got.row_sqrt, got.col_sqrt) == (want.row_sqrt, want.col_sqrt)
    assert got.data == want.rows


def _check_against_oracle(g, eta):
    """Builders, @ (annotated, mixed-field and plain), adjoint, ==,
    is_identity, trace, +, -, scaled and power of OpMatrix against the
    per-entry oracle on one digraph and angle."""
    k, c, st, dt = build_K(g), build_C(g), build_S_theta(g, eta), build_D_theta(g, eta)
    ok, oc = util.oracle_K(g), util.oracle_C(g)
    ost, odt = util.oracle_S_theta(g, eta), util.oracle_D_theta(g, eta)
    for got, want in ((k, ok), (c, oc), (st, ost), (dt, odt),
                      (build_S(g), util.oracle_S_theta(g, Angle(0, 1))),
                      (build_H_eta(g, eta), util.oracle_H_eta(g, eta)),
                      (build_H_tilde(g, eta), util.oracle_H_eta(g, eta, True))):
        _same(got, want)
    u, ou = build_U_theta(g, eta), util.oracle_matmul(ost, oc)   # mixed fields: S_theta C
    _same(u, ou)
    _same(st @ c, ou)
    ok_adj, ou_adj = util.oracle_adjoint(ok), util.oracle_adjoint(ou)
    _same(k.adjoint(), ok_adj)
    _same(u.adjoint(), ou_adj)
    kk = k @ k.adjoint()                                          # annotated
    _same(kk, util.oracle_matmul(ok, ok_adj))
    ht = k @ st @ k.adjoint()
    oht = util.oracle_matmul(util.oracle_matmul(ok, ost), ok_adj)
    _same(ht, oht)
    _same(k.adjoint() @ k, util.oracle_matmul(ok_adj, ok))        # K*K: 1/d meets inside
    uu = u @ u.adjoint()
    ouu = util.oracle_matmul(ou, ou_adj)
    _same(uu, ouu)
    du, odu = dt @ u, util.oracle_matmul(odt, ou)
    _same(du, odu)
    ou0 = util.oracle_matmul(util.oracle_S_theta(g, Angle(0, 1)), oc)
    for a, b, oa, ob in ((ht, build_H_tilde(g, eta), oht, util.oracle_H_eta(g, eta, True)),
                         (u, u.adjoint(), ou, ou_adj), (du, build_U_grover(g), odu, ou0),
                         (st, st.adjoint(), ost, util.oracle_adjoint(ost))):
        assert (a == b) == util.oracle_equal(oa, ob)
    for a, oa in ((uu, ouu), (kk, util.oracle_matmul(ok, ok_adj)), (u, ou), (c, oc)):
        assert a.is_identity() == util.oracle_is_identity(oa)
    for a, oa in ((u, ou), (c, oc), (ht, oht), (du, odu)):
        assert a.trace() == util.oracle_trace(oa)
    _same(u + dt, util.oracle_combined(ou, odt, 1))
    _same(u - dt, util.oracle_combined(ou, odt, -1))
    _same(ht - build_H_tilde(g, eta), util.oracle_combined(oht, util.oracle_H_eta(g, eta, True), -1))
    root = make_root(eta)
    for s in (Fraction(-2, 3), root + Fraction(1, 2)):
        _same(u.scaled(s), util.oracle_scaled(ou, s))
    _same(u.power(3), util.oracle_power(ou, 3))
    return 1


def test_operations_equal_the_per_entry_oracle_orders_two_to_four():
    checked = 0
    for order in (2, 3, 4):
        for g in enumerate_digraphs(order):
            if g.arcs:
                for eta in ORACLE_ANGLES:
                    checked += _check_against_oracle(g, eta)
    assert checked == sum(DIGRAPH_CLASS_COUNTS[n] - 1 for n in (2, 3, 4)) * len(ORACLE_ANGLES)


def test_python_int_stacks_equal_the_per_entry_oracle(monkeypatch):
    from digraphwalk import cyclotomic

    # with bounds of 1 no step can be proven to fit int64 or float64
    monkeypatch.setattr(cyclotomic, "INT64_BOUND", 1)
    monkeypatch.setattr(cyclotomic, "FLOAT_EXACT", 1)
    matmul = cyclotomic._exact_matmul
    dtypes = set()

    def recorded(a, b):
        out = matmul(a, b)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(operators, "_exact_matmul", recorded)
    rng = random.Random(2718)
    graphs = [fig_digraph()] + [random_digraph(rng, n, 0.5) for n in (3, 4, 5)]
    for g in graphs:
        if g.arcs:
            for eta in (Angle(1, 2), Angle(2, 3), Angle(2, 5), Angle(3, 7)):
                _check_against_oracle(g, eta)
                u = build_U_theta(g, eta)
                assert (u @ u).coords.dtype == object
    assert dtypes == {np.dtype(object)}
