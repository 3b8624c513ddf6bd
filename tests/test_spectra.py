import json
import random

import numpy as np
import pytest

from digraphwalk.cyclotomic import Angle, CycScalar
from digraphwalk.digraph import Digraph, PreconditionError, complete_digraph, digon_cut_switch, make_Y
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


def test_kernel_pair_stack_matches_cyclotomic_route():
    from digraphwalk.spectra import berkowitz_charpoly, charpoly_batch

    for m, t in ((4, 0), (6, 1)):
        one, zero = CycScalar.rational(1, m), CycScalar.rational(0, m)
        rng = np.random.default_rng(m)
        for n in (1, 3, 7):
            upper = rng.integers(-3, 4, size=(n, n, 2))
            pairs = np.zeros((n, n, 2), dtype=np.int64)
            for i in range(n):
                pairs[i, i] = (upper[i, i, 0], 0)
                for j in range(i + 1, n):
                    a, b = upper[i, j]
                    pairs[i, j] = (a, b)
                    pairs[j, i] = (a + t * b, -b)   # conj(zeta) = t - zeta
            rows = [[CycScalar(m, tuple(int(x) for x in pairs[i, j])) for j in range(n)]
                    for i in range(n)]
            want = [int(c.rational_value()) for c in berkowitz_charpoly(rows, one, zero)]
            assert charpoly_batch(pairs[None], m) == [want]


def test_kernel_rejects_non_hermitian_pairs():
    from digraphwalk.spectra import charpoly_batch

    pairs = np.zeros((1, 2, 2, 2), dtype=np.int64)
    pairs[0, 0, 1] = (0, 1)      # zeta above the diagonal
    pairs[0, 1, 0] = (0, 1)      # zeta again below it, not its conjugate
    with pytest.raises(ArithmeticError):
        charpoly_batch(pairs, 4)
