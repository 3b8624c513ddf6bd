import json
import math
import random

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle, CycScalar
from digraphwalk.digraph import Digraph, PreconditionError, complete_digraph, digon_cut_switch, make_Y
from digraphwalk.enumeration import enumerate_digraphs
from digraphwalk.operators import (
    IndexSpace,
    OpMatrix,
    build_H_eta,
    build_H_tilde,
    build_U_theta,
)
from digraphwalk.spectra import (
    charpoly_exact,
    charpoly_int,
    cospectral_key,
    eig_hermitian,
    eig_unitary_oracle,
    phi_inverse,
    spectra_match,
    spectrum_U_oracle,
    spectrum_U_via_mapping,
)

import util
from util import fig_digraph, random_connected_digraph, random_digraph


def _int_matrix(rows) -> OpMatrix:
    n = len(rows)
    sp = IndexSpace("vertex", tuple(range(n)))
    return OpMatrix(sp, sp, [[CycScalar.rational(x) for x in row] for row in rows])


def test_charpoly_identity():
    p = charpoly_exact(_int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # (x-1)^3 = -1 + 3x - 3x^2 + x^3, constant term first
    assert [c.rational_value() for c in p.coeffs] == [-1, 3, -3, 1]
    assert p.ring == "integer"


def test_charpoly_matches_numpy_on_random_integer_matrices():
    rng = random.Random(99)
    for n in (2, 3, 5, 8):
        for _ in range(5):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            coeffs = charpoly_int(rows)
            theirs = np.poly(np.array(rows, dtype=float))
            assert np.allclose(np.array(coeffs, dtype=float), theirs, atol=1e-6)


def test_charpoly_complete_graph_and_cospectral_mate():
    h_k3 = build_H_eta(complete_digraph(3), Angle(1, 2))
    p = charpoly_exact(h_k3)
    assert [c.rational_value() for c in p.coeffs] == [-2, -3, 0, 1]  # x^3 - 3x - 2
    h_y = build_H_eta(make_Y(2, 3), Angle(1, 2))
    q = charpoly_exact(h_y)
    assert cospectral_key(p) == cospectral_key(q)


def test_charpoly_realness_certificate():
    h = build_H_eta(fig_digraph(), Angle(1, 3))
    p = charpoly_exact(h)
    assert p.real_certified
    assert p.ring in ("integer", "rational")
    json.loads(p.to_json())


def test_charpoly_of_normalized_matrix_uses_similarity():
    g = fig_digraph()
    ht = build_H_tilde(g, Angle(1, 2))
    p = charpoly_exact(ht)
    coeffs = np.array([complex(c.to_complex()) for c in p.coeffs])
    vals = np.linalg.eigvalsh(ht.to_complex_array())
    theirs = np.poly(vals)[::-1]
    assert np.allclose(coeffs, theirs, atol=1e-10)


def test_charpoly_dimension_bound():
    sp = IndexSpace("vertex", tuple(range(65)))
    big = OpMatrix(sp, sp, [[CycScalar.rational(0)] * 65 for _ in range(65)])
    with pytest.raises(PreconditionError):
        charpoly_exact(big)


def test_eig_hermitian_complete_graphs():
    for n in (3, 4, 5):
        ht = build_H_tilde(complete_digraph(n), Angle(1, 3))
        spec = eig_hermitian(ht)
        vals = sorted(spec.as_multiset(), key=lambda z: z.real)
        assert abs(vals[-1].real - 1) < 1e-12
        for v in vals[:-1]:
            assert abs(v.real + 1 / (n - 1)) < 1e-12


def test_eig_hermitian_one_by_one_zero():
    h = build_H_eta(Digraph.of(1, []), Angle(1, 2))
    spec = eig_hermitian(h)
    assert spec.as_multiset() == [0j]


def test_eig_hermitian_range_bound():
    ht = build_H_tilde(fig_digraph(), Angle(1, 2))
    for v in eig_hermitian(ht).as_multiset():
        assert -1 - 1e-9 <= v.real <= 1 + 1e-9


def test_eig_hermitian_rejects_non_self_adjoint():
    m = _int_matrix([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        eig_hermitian(m)


def test_phi_inverse():
    assert phi_inverse(1.0) == (1 + 0j, 1 - 0j)
    up, down = phi_inverse(0.0)
    assert abs(up - 1j) < 1e-15 and abs(down + 1j) < 1e-15
    up, down = phi_inverse(-0.5)
    import cmath

    assert abs(up - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    for mu in (-1.0, -0.3, 0.7):
        z, _ = phi_inverse(mu)
        assert abs((z + 1 / z) / 2 - mu) < 1e-12
    with pytest.raises(PreconditionError):
        phi_inverse(1.1)


def test_mapping_on_split_family_order_three():
    sm = spectrum_U_via_mapping(make_Y(1, 3), Angle(1, 2))
    mult = {}
    for e in sm.entries:
        mult[(round(e.value.real, 6), round(e.value.imag, 6))] = e.mult
    assert mult[(1.0, 0.0)] == 2
    assert mult[(-0.5, round((3 ** 0.5) / 2, 6))] == 2
    assert mult[(-0.5, round(-(3 ** 0.5) / 2, 6))] == 2


def test_mapping_on_undirected_cycle_matches_grover():
    c4 = Digraph.of(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    sm = spectrum_U_via_mapping(c4, Angle(2, 3))
    grover = spectrum_U_via_mapping(c4, Angle(0, 1))
    assert spectra_match(sm, grover, tol=1e-10)
    assert sm.total_multiplicity() == 8


def test_mapping_rejects_disconnected():
    g = Digraph.of(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(PreconditionError, match="component"):
        spectrum_U_via_mapping(g, Angle(1, 2))


def test_mapping_matches_oracle_on_samples():
    rng = random.Random(41)
    for _ in range(12):
        g = random_connected_digraph(rng, rng.randint(2, 5))
        for eta in (Angle(1, 3), Angle(1, 2), Angle(2, 3)):
            assert spectra_match(spectrum_U_via_mapping(g, eta),
                                 spectrum_U_oracle(g, eta), tol=1e-8)


def test_unitary_eigenvalues_on_unit_circle():
    u = build_U_theta(fig_digraph(), Angle(1, 2))
    vals = eig_unitary_oracle(u)
    assert len(vals) == 8
    for v in vals:
        assert abs(abs(v) - 1) < 1e-9


def test_cospectral_key_examples():
    same1 = charpoly_exact(_int_matrix([[1, 0], [0, 1]]))
    same2 = charpoly_exact(_int_matrix([[1, 1], [0, 1]]))
    assert cospectral_key(same1) == cospectral_key(same2)
    h1 = charpoly_exact(build_H_eta(make_Y(1, 4), Angle(1, 2)))
    h2 = charpoly_exact(build_H_eta(complete_digraph(4), Angle(1, 2)))
    assert cospectral_key(h1) == cospectral_key(h2)
    path3 = _int_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    k3 = _int_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert cospectral_key(charpoly_exact(path3)) != cospectral_key(charpoly_exact(k3))


def test_switch_preserves_hermitian_charpoly():
    rng = random.Random(77)
    found = 0
    for _ in range(200):
        g = random_digraph(rng, rng.randint(3, 5), density=0.6)
        if not g.arcs:
            continue
        s = {v for v in range(g.n) if rng.random() < 0.5}
        try:
            h = digon_cut_switch(g, s)
        except PreconditionError:
            continue
        if h == g:
            continue
        found += 1
        for eta in (Angle(1, 3), Angle(2, 3)):
            a = charpoly_exact(build_H_eta(g, eta))
            b = charpoly_exact(build_H_eta(h, eta))
            assert cospectral_key(a) == cospectral_key(b)
    assert found >= 10


def test_charpoly_agrees_with_eig_reconstruction_up_to_dim_12():
    rng = random.Random(2024)
    for n in (4, 8, 12):
        for _ in range(3):
            g = random_connected_digraph(rng, n, density=0.4)
            ht = build_H_tilde(g, Angle(1, 3))
            exact = charpoly_exact(ht)
            coeffs = np.array([complex(c.to_complex()) for c in exact.coeffs])
            vals = [v.real for v in eig_hermitian(ht).as_multiset()]
            theirs = np.poly(np.array(vals))[::-1]
            assert np.allclose(coeffs, theirs, atol=1e-6)


# -- batched modular kernel ------------------------------------------------------


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_kernel_primes_split_the_quadratic_fields():
    from digraphwalk.spectra import CHARPOLY_PRIMES

    assert len(set(CHARPOLY_PRIMES)) == len(CHARPOLY_PRIMES)
    for p in CHARPOLY_PRIMES:
        assert p < 2 ** 28 and p % 12 == 1 and _is_prime(p)


def test_kernel_matches_python_berkowitz_on_random_stacks():
    from digraphwalk.spectra import berkowitz_charpoly, charpoly_batch

    rng = np.random.default_rng(2024)
    dims = list(range(1, 17)) + [20, 24, 31, 40, 48, 57, 64]
    for n in dims:
        count = 3 if n <= 16 else 1
        for stack in (rng.choice([-1, 1], size=(count, n, n)),
                      rng.integers(-5, 6, size=(count, n, n))):
            want = [berkowitz_charpoly(m.tolist(), 1, 0) for m in stack]
            assert charpoly_batch(stack) == want, n


def test_one_matrix_charpoly_equals_kernel_on_both_routes():
    # small one-matrix calls take the Python-int route, larger ones the kernel
    from digraphwalk.spectra import charpoly_batch

    rng = np.random.default_rng(16)
    for n in range(1, 17):
        for m in (rng.choice([-1, 1], size=(n, n)), rng.integers(-5, 6, size=(n, n)),
                  rng.integers(0, 2, size=(n, n)).astype(bool)):
            want = charpoly_batch(m[None])[0]
            for rows in (m, m.tolist()):
                got = charpoly_int(rows)
                assert got == want and all(type(c) is int for c in got), n


def test_kernel_sylvester_hadamard_64():
    # H^2 = 64 I and trace 0, so the charpoly is (x^2 - 64)^32; det = 2^192
    # needs several primes, which only the derived count supplies
    from math import comb

    h = np.array([[1]])
    while len(h) < 64:
        h = np.block([[h, h], [h, -h]])
    want = [0] * 65
    for j in range(33):
        want[2 * j] = comb(32, j) * (-64) ** j
    got = charpoly_int(h.tolist())
    assert got == want and got[-1] == 2 ** 192


def test_kernel_splits_large_stacks(monkeypatch):
    import digraphwalk.spectra as spectra

    stack = np.random.default_rng(5).integers(0, 2, size=(40, 9, 9))
    whole = spectra.charpoly_batch(stack)
    monkeypatch.setattr(spectra, "_KERNEL_ENTRIES", 200)
    assert spectra.charpoly_batch(stack) == whole


def test_kernel_falls_back_beyond_the_prime_list(monkeypatch):
    import digraphwalk.spectra as spectra

    reference = spectra.berkowitz_charpoly
    rng = np.random.default_rng(7)
    stack = rng.integers(-(2 ** 62), 2 ** 62, size=(2, 6, 6))
    assert spectra._prime_count(6, 2 ** 124) is None
    want = [reference([[int(x) for x in row] for row in m], 1, 0) for m in stack.tolist()]
    calls = []
    monkeypatch.setattr(spectra, "berkowitz_charpoly",
                        lambda *a: calls.append(1) or reference(*a))
    assert spectra.charpoly_batch(stack) == want
    assert len(calls) == 2
    # entries beyond int64 take the same route
    big = [[2 ** 70, 1], [3, -(2 ** 65)]]
    assert charpoly_int(big) == reference(big, 1, 0)


def _adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=np.uint8)
    for u, v in g.arcs:
        adj[u, v] = 1
    return adj


def test_hermitian_kernel_matches_cyclotomic_berkowitz(monkeypatch):
    # orders 7, 16 and 24 need 1, 2 and 3 primes at norm^2 = 1; the keys must
    # not depend on how the stack is chunked
    import digraphwalk.spectra as spectra
    from digraphwalk.spectra import berkowitz_charpoly, hermitian_charpoly_batch

    rng = random.Random(24)
    for n, primes, densities in ((7, 1, (0.3, 0.6)), (16, 2, (0.3, 0.6)), (24, 3, (0.5,))):
        assert spectra._prime_count(n, 1) == primes
        graphs = [random_digraph(rng, n, density) for density in densities]
        adj = np.stack([_adjacency(g) for g in graphs])
        for eta in (Angle(1, 3), Angle(1, 2), Angle(2, 3)):
            one, zero = CycScalar.rational(1, eta.order), CycScalar.rational(0, eta.order)
            want = []
            for g in graphs:
                coeffs = berkowitz_charpoly([list(r) for r in build_H_eta(g, eta).data], one, zero)
                want.append([int(c.rational_value()) for c in coeffs])
            assert hermitian_charpoly_batch(adj, eta) == want, (n, eta)
            with monkeypatch.context() as m:
                m.setattr(spectra, "_KERNEL_ENTRIES", 200)
                assert hermitian_charpoly_batch(adj, eta) == want, (n, eta)


def test_hermitian_kernel_falls_back_beyond_the_dimension_bound(monkeypatch):
    import digraphwalk.spectra as spectra

    rng = random.Random(7)
    adj = np.stack([_adjacency(random_digraph(rng, 7)) for _ in range(3)])
    angles = (Angle(0, 1), Angle(1, 3), Angle(1, 2), Angle(2, 3), Angle(1, 1))
    want = [spectra.hermitian_charpoly_batch(adj, eta) for eta in angles]
    monkeypatch.setattr(spectra, "MAX_CHARPOLY_DIM", 6)
    calls = []
    reference = spectra.berkowitz_charpoly
    monkeypatch.setattr(spectra, "berkowitz_charpoly", lambda *a: calls.append(1) or reference(*a))
    assert [spectra.hermitian_charpoly_batch(adj, eta) for eta in angles] == want
    assert len(calls) == 3 * len(angles)


def test_hermitian_table_must_pass_the_conjugate_check():
    from digraphwalk.spectra import _residue_table

    zero, one = CycScalar.rational(0, 4), CycScalar.rational(1, 4)
    i, minus_i = CycScalar.zeta(4, 1), CycScalar.zeta(4, 3)
    assert _residue_table((zero, i, minus_i, one), 1).shape == (1, 4)
    for bad in ((zero, i, i, one), (i, i, minus_i, one), (zero, i, minus_i, i)):
        with pytest.raises(ArithmeticError):
            _residue_table(bad, 1)


def test_hermitian_kernel_refuses_non_binary_stacks():
    from digraphwalk.spectra import hermitian_charpoly_batch

    adj = np.zeros((1, 3, 3), dtype=np.int64)
    adj[0, 0, 1] = 2
    with pytest.raises(PreconditionError):
        hermitian_charpoly_batch(adj, Angle(1, 2))
    adj[0, 0, 1] = -1
    with pytest.raises(PreconditionError):
        hermitian_charpoly_batch(adj, Angle(1, 3))


# -- the modular route of charpoly_exact over every Z[zeta_m] -----------------------


def _berkowitz_reference(rows, self_adjoint: bool):
    """charpoly_exact's result from berkowitz_charpoly over CycScalar rows,
    its ring read coefficient by coefficient."""
    from digraphwalk.spectra import CharPoly, berkowitz_charpoly

    m = math.lcm(2, *(x.m for row in rows for x in row))
    coeffs = tuple(reversed(berkowitz_charpoly([list(r) for r in rows], CycScalar.rational(1, m),
                                               CycScalar.rational(0, m))))
    if all(c.is_rational() for c in coeffs):
        integer = all(c.rational_value().denominator == 1 for c in coeffs)
        ring = "integer" if integer else "rational"
    else:
        ring = "cyclotomic-real" if all(c.imag_is_zero() for c in coeffs) else "cyclotomic"
    return CharPoly(coeffs, ring, self_adjoint or ring in ("integer", "rational"))


def _oracle_similar_rows(g, eta):
    """Rows of diag(1/d) H_eta on the positive-degree vertices, the matrix
    similar to H~, from the per-entry oracle."""
    from fractions import Fraction

    h = util.oracle_H_eta(g, eta, positive_degree_only=True)
    return [[x * Fraction(1, d) for x in row] for row, d in zip(h.rows, h.row_sqrt)]


def _assert_same(got, want, *context):
    assert cospectral_key(got) == cospectral_key(want), context
    assert (got.ring, got.real_certified) == (want.ring, want.real_certified), context
    assert got.to_json() == want.to_json(), context


def _routes(monkeypatch) -> list:
    """Record every matrix that the cyclotomic route keys, and check each
    coefficient coordinate it returns against the bound that sized its
    prime count: |a_l| <= F_m * Hadamard's bound."""
    import functools

    import digraphwalk.spectra as spectra

    keyed = []
    route = spectra._cyclotomic_charpoly

    @functools.lru_cache(maxsize=None)
    def squared_bound(m, n, norm2):
        f = spectra._coordinate_factor(m)
        need = max(math.comb(n, k) ** 2 * (k * norm2) ** k for k in range(n + 1))
        return f.numerator ** 2 * need, f.denominator ** 2

    def recorded(m, coords):
        out = route(m, coords)
        keyed.append(out is not None)
        if out is not None:
            norm = int(np.abs(coords).sum(axis=0).max())
            bound, scale = squared_bound(m, coords.shape[-1], norm * norm)
            top = max(abs(a) for num in out for a in num)
            assert top * top * scale <= bound, (m, coords.shape)
        return out

    monkeypatch.setattr(spectra, "_cyclotomic_charpoly", recorded)
    return keyed


def test_cyclotomic_integer_route_equals_berkowitz(monkeypatch):
    keyed = _routes(monkeypatch)
    rng = random.Random(4711)
    graphs = [g for n in (2, 3, 4) for g in enumerate_digraphs(n)]
    graphs += [random_digraph(rng, n, density) for n in range(7, 13) for density in (0.3, 0.6)]
    count = 0
    for g in graphs:
        for eta in (Angle(1, 3), Angle(1, 2), Angle(2, 3)):
            got = charpoly_exact(build_H_eta(g, eta))
            want = _berkowitz_reference(util.oracle_H_eta(g, eta).rows, True)
            _assert_same(got, want, g, eta)
            count += 1
            if g.arcs and g.n <= 9:
                # H~ is similar to diag(1/d) H_eta, den = lcm(d) > 1 on most digraphs
                got = charpoly_exact(build_H_tilde(g, eta))
                _assert_same(got, _berkowitz_reference(_oracle_similar_rows(g, eta), True), g, eta)
    # every H_eta and H~ with a one-way arc has non-rational entries and takes the route
    one_way = [g.n for g in graphs if any((v, u) not in g.arcs for u, v in g.arcs)]
    assert keyed == [True] * sum(6 if n <= 9 else 3 for n in one_way)
    assert count == 3 * len(graphs)


def test_cyclotomic_integer_route_takes_every_non_integer_stack(monkeypatch):
    keyed = _routes(monkeypatch)
    rng = random.Random(99)
    sp = IndexSpace("vertex", tuple(range(5)))
    for m in (4, 6):
        coords = np.array([[[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
                           for _ in range(2)], dtype=np.int64)
        for mat in (OpMatrix.from_coords(sp, sp, m, coords),       # not self-adjoint
                    OpMatrix.from_coords(sp, sp, m, coords, 2)):   # not integral
            herm = mat + mat.adjoint()                             # self-adjoint
            for x in (mat, herm):
                got = charpoly_exact(x)
                want = _berkowitz_reference(x.data, x.is_self_adjoint())
                _assert_same(got, want, m)
    # self-adjoint or not, over den 1 or 2: the route keys the integer core of each
    assert keyed == [True] * 8


GENERIC_ANGLES = (Angle(1, 4), Angle(1, 5), Angle(2, 5), Angle(1, 7), Angle(3, 7), Angle(1, 9),
                  Angle(3, 10), Angle(5, 6))


def test_cyclotomic_route_equals_berkowitz_at_generic_angles(monkeypatch):
    import digraphwalk.spectra as spectra

    keyed = _routes(monkeypatch)
    rng = random.Random(2019)
    graphs = [g for n in (2, 3, 4) for g in enumerate_digraphs(n) if g.arcs]
    cases = [(g, eta) for g in graphs for eta in GENERIC_ANGLES]
    # larger digraphs, at orders where the bound asks for two primes or more
    orders = (14, 8, 13, 7, 13, 10, 13, 10)
    large = [(random_connected_digraph(rng, n, 0.4), eta) for n, eta in zip(orders, GENERIC_ANGLES)]
    large.append((random_connected_digraph(rng, 16, 0.4), Angle(1, 5)))
    for g, eta in large:
        h = build_H_eta(g, eta)
        norm = int(np.abs(h.coords.astype(object)).sum(axis=0).max())
        assert spectra._prime_count(g.n, norm * norm, eta.order) >= 2, (g.n, eta)
    for g, eta in cases + large:
        _assert_same(charpoly_exact(build_H_eta(g, eta)),
                     _berkowitz_reference(util.oracle_H_eta(g, eta).rows, True), g, eta)
        _assert_same(charpoly_exact(build_H_tilde(g, eta)),
                     _berkowitz_reference(_oracle_similar_rows(g, eta), True), g, eta)
    assert keyed and all(keyed)


def test_cyclotomic_route_on_random_non_self_adjoint_stacks(monkeypatch):
    keyed = _routes(monkeypatch)
    rng = random.Random(808)
    for m in (8, 10, 14):
        phi = len(CycScalar.rational(0, m).num)
        for n, bound, den in ((3, 2, 1), (6, 5, 1), (9, 3, 4), (12, 40, 1)):
            coords = np.array([[[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                               for _ in range(phi)], dtype=np.int64)
            sp = IndexSpace("vertex", tuple(range(n)))
            mat = OpMatrix.from_coords(sp, sp, m, coords, den)
            rows = [[CycScalar(m, tuple(int(c) for c in coords[:, i, j]), den) for j in range(n)]
                    for i in range(n)]
            got = charpoly_exact(mat)
            assert not mat.is_self_adjoint() and not got.real_certified
            _assert_same(got, _berkowitz_reference(rows, False), m, n)
    assert keyed == [True] * 12


def test_cyclotomic_route_falls_back_when_the_prime_source_runs_short(monkeypatch):
    import functools

    import digraphwalk.spectra as spectra

    g = random_connected_digraph(random.Random(5), 12, 0.5)
    eta = Angle(1, 5)
    want = _berkowitz_reference(util.oracle_H_eta(g, eta).rows, True)
    small = build_H_eta(fig_digraph(), eta)
    small_want = charpoly_exact(small)
    source = spectra._field_primes
    monkeypatch.setattr(spectra, "_field_primes", lambda m: source(m)[:1])
    for name in ("_prime_count", "_roots_of_unity"):
        monkeypatch.setattr(spectra, name, functools.lru_cache(getattr(spectra, name).__wrapped__))
    calls = []
    reference = spectra.berkowitz_charpoly
    monkeypatch.setattr(spectra, "berkowitz_charpoly", lambda *a: calls.append(1) or reference(*a))
    _assert_same(charpoly_exact(small), small_want)   # one prime is enough here
    assert calls == []
    _assert_same(charpoly_exact(build_H_eta(g, eta)), want)
    assert calls == [1]


def test_prime_and_root_source():
    from fractions import Fraction

    from digraphwalk.cyclotomic import cyclotomic_polynomial
    from digraphwalk.spectra import (
        CHARPOLY_PRIMES,
        _coordinate_factor,
        _field_primes,
        _roots_of_unity,
    )

    hand = {4: 1, 6: 2, 10: 4, 14: 6}
    for m in (2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 18, 20):
        primes = _field_primes(m)
        if 12 % m == 0:
            assert primes is CHARPOLY_PRIMES
        assert len(set(primes)) == len(primes) == len(CHARPOLY_PRIMES)
        assert all(p < 2 ** 28 and p % m == 1 and _is_prime(p) for p in primes)
        poly = cyclotomic_polynomial(m)
        phi = len(poly) - 1
        vander, inverse = _roots_of_unity(m, len(primes))
        assert vander.shape == inverse.shape == (len(primes), phi, phi)
        for p, v, w in zip(primes, vander.tolist(), inverse.tolist()):
            roots = [row[1] if phi > 1 else p - 1 for row in v]
            assert len(set(roots)) == phi
            for r in roots:
                assert pow(r, m, p) == 1 and all(pow(r, d, p) != 1 for d in range(1, m))
                assert sum(c * pow(r, i, p) for i, c in enumerate(poly)) % p == 0
            assert v == [[pow(r, l, p) for l in range(phi)] for r in roots]
            product = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*w)] for row in v]
            assert product == [[int(i == j) for j in range(phi)] for i in range(phi)]
        f = _coordinate_factor(m)
        assert isinstance(f, Fraction) and f >= 1
        if m in hand:
            assert f == hand[m]
