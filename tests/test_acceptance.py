"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here, straight from the
contract; nothing is calibrated at run time.
"""

import time

from digraphwalk.cyclotomic import Angle
from digraphwalk.digraph import digons, make_Y, transpose, underlying_edges
from digraphwalk.enumeration import (
    enumerate_digraphs,
    enumerate_regular_digraphs,
    enumerate_undirected_graphs,
)
from digraphwalk.spectra import charpoly_int, spectra_match, spectrum_U_oracle, spectrum_U_via_mapping
from digraphwalk.supports import (
    digon_count_via_trace,
    eta_regime,
    power_support,
    verify_square_negative_identity,
    verify_square_support_formula,
)
from digraphwalk.tables import STANDARD_TABLES, classify, classing_key, verify_against_published
from digraphwalk.verify import (
    check_operator_identities,
    check_plus_minus_multiplicities,
    check_spectral_mapping,
    run_invariant_sweeps,
)


def _report(num: int, desc: str, ok: bool, elapsed: float, bound: float):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"[criterion {num}] {desc}: {status} ({elapsed:.1f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.1f}s)"


def test_criterion_1_worked_example():
    import test_operators

    t0 = time.time()
    test_operators.test_boundary_matrix_worked_example()
    test_operators.test_coin_worked_example()
    test_operators.test_twisted_shift_worked_example()
    test_operators.test_transfer_matrix_worked_example()
    _report(1, "worked-example matrices reproduced exactly", True, time.time() - t0, 1.0)


def test_criterion_2_exact_operator_identities():
    t0 = time.time()
    failures = check_operator_identities(4)
    _report(2, "operator identities exact on all digraphs of orders 2-4, five angles",
            not failures, time.time() - t0, 120.0)


def test_criterion_3_spectral_mapping():
    t0 = time.time()
    failures = check_spectral_mapping(4)
    failures += check_plus_minus_multiplicities(4)
    _report(3, "mapped spectrum matches dense eigensolve within 1e-8, orders <= 4",
            not failures, time.time() - t0, 300.0)


def test_criterion_4_split_family_closed_form():
    t0 = time.time()
    ok = True
    for n in range(3, 9):
        n_edges = n * (n - 1) // 2
        mu = -1.0 / (n - 1)
        s = (1.0 - mu * mu) ** 0.5
        expected = {
            (round(1.0, 8), 0.0): n_edges - n + 2,
            (round(-1.0, 8), 0.0): n_edges - n,
            (round(mu, 8), round(s, 8)): n - 1,
            (round(mu, 8), round(-s, 8)): n - 1,
        }
        expected = {k: v for k, v in expected.items() if v}
        for a in range(n):
            g = make_Y(a, n)
            for eta in (Angle(1, 2), Angle(2, 3)):
                sm = spectrum_U_via_mapping(g, eta)
                got: dict = {}
                for e in sm.entries:
                    key = (round(e.value.real, 8), round(e.value.imag, 8))
                    got[key] = got.get(key, 0) + e.mult
                if got != expected:
                    ok = False
                if not spectra_match(sm, spectrum_U_oracle(g, eta), tol=1e-8):
                    ok = False
    _report(4, "split-family transfer spectrum matches the closed form, n = 3..8",
            ok, time.time() - t0, 300.0)


def test_criterion_5_square_support_structure():
    t0 = time.time()
    angles = (Angle(1, 3), Angle(1, 2), Angle(2, 3))
    ok = True
    checked = 0
    for n in range(4, 7):
        for k in range(3, n):
            for g in enumerate_regular_digraphs(n, k):
                checked += 1
                for eta in angles:
                    rep = verify_square_support_formula(g, eta)
                    if not (rep.precondition_ok and rep.holds):
                        ok = False
                    want = (len(underlying_edges(g)) if eta_regime(eta) == 1
                            else len(digons(g)))
                    if digon_count_via_trace(g, eta) != want:
                        ok = False
    if checked < 30000:
        ok = False
    neg_checked = 0
    for n in range(4, 8):
        for k in range(3, n):
            for g in enumerate_undirected_graphs(n, degree=k):
                neg_checked += 1
                if not verify_square_negative_identity(g).holds:
                    ok = False
    if neg_checked < 9:
        ok = False
    _report(5, f"square-support formula and trace identity on {checked} regular "
               f"digraphs (k>=3, n<=6) and {neg_checked} undirected regular graphs (n<=7)",
            ok, time.time() - t0, 600.0)


def test_criterion_6_transpose_invariance():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        for g in enumerate_digraphs(n):
            if not g.arcs:
                continue
            gt = transpose(g)
            for eta in (Angle(1, 2), Angle(2, 3)):
                for sign in ("+", "-"):
                    a = power_support(g, eta, 2, sign)
                    b = power_support(gt, eta, 2, sign)
                    if charpoly_int(a.rows()) != charpoly_int(b.rows()):
                        ok = False
    _report(6, "squared-support charpolys invariant under arc reversal, orders <= 4",
            ok, time.time() - t0, 300.0)


def test_criterion_7_published_tables():
    t0 = time.time()
    mismatches = []
    for table_id, (functor, eta) in STANDARD_TABLES.items():
        for order in (2, 3, 4, 5):
            table = classify(order, functor, eta)
            mismatches += verify_against_published(table_id, table)
    for line in mismatches:
        print("  MISMATCH:", line)
    _report(7, "all cells of the six published tables reproduced, orders 2-5",
            not mismatches, time.time() - t0, 1800.0)


def test_criterion_7_square_support_tables_order_six():
    t0 = time.time()
    mismatches = []
    for table_id in ("U2_pi2", "U2_gt_pi2"):
        functor, eta = STANDARD_TABLES[table_id]
        mismatches += verify_against_published(table_id, classify(6, functor, eta))
    for line in mismatches:
        print("  MISMATCH:", line)
    _report(7, "all cells of the two published (U^2)+ tables reproduced, order 6",
            not mismatches, time.time() - t0, 600.0)


def test_criterion_8_half_identification():
    t0 = time.time()
    eta = Angle(2, 3)
    polys = {}
    for a in range(0, 7):
        sup = power_support(make_Y(a, 6), eta, 2, "+")
        polys[a] = tuple(charpoly_int(sup.rows()))
    ok = len({polys[a] for a in (3, 4, 5, 6)}) == 4
    for a in (0, 1, 2, 3):
        ok = ok and polys[a] == polys[6 - a]
    hermitian_keys = {classing_key(make_Y(a, 6), "Heta", eta) for a in range(7)}
    ok = ok and len(hermitian_keys) == 1
    _report(8, "squared supports half-identify the split family at n = 6 "
               "while Hermitian spectra do not",
            ok, time.time() - t0, 120.0)


def test_criterion_9_property_battery():
    t0 = time.time()
    failures = run_invariant_sweeps(max_order=4)
    _report(9, "invariant sweep battery green through order 4 "
               "(module-level property tests run in the same suite)",
            not failures, time.time() - t0, 900.0)
