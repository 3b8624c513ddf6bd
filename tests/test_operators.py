import random
from fractions import Fraction

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle, CycScalar, make_root
from digraphwalk import spectra, supports
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


def _entrywise_image(m: OpMatrix) -> np.ndarray:
    # the per-entry route, scaled like to_complex_array
    out = np.array([[x.to_complex() for x in row] for row in m.data], dtype=complex)
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
    scalar_image = CycScalar.to_complex
    fallbacks = []

    def recorded(x):
        fallbacks.append(x)
        return scalar_image(x)

    monkeypatch.setattr(CycScalar, "to_complex", recorded)
    for m, w in zip(mats, want):
        got = m.to_complex_array()
        # both within 2^-50 of the truth, relative to each entry
        assert np.all(np.abs(got - w) <= 2.0 ** -48 * np.abs(w)), m
        assert np.array_equal(got.real == 0, w.real == 0) and np.array_equal(got.imag == 0, w.imag == 0)
    # the certified fixed-point sums served every entry outside the closed forms
    assert all(x.m in (2, 4, 6) for x in fallbacks)
    # and an infinite margin sends every entry to the per-entry route
    monkeypatch.setattr(cyclotomic, "IMAGE_MARGIN", float("inf"))
    assert all(np.array_equal(m.to_complex_array(), w) for m, w in zip(mats, want))
