"""Invariant sweeps over all small digraphs, runnable from the CLI.

Each check walks every isomorphism class up to a given order and asserts an
exact operator identity or a cross-route agreement; failures come back as
human-readable strings so the CLI can report and exit nonzero.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import Angle
from .cycles import classify_cycles
from .digraph import transpose, weakly_connected
from .enumeration import enumerate_digraphs
from .operators import (
    build_C,
    build_D_theta,
    build_H_tilde,
    build_K,
    build_S,
    build_S_theta,
    build_U_grover,
    build_U_theta,
)
from .spectra import eig_hermitian, spectra_match, spectrum_U_oracle, spectrum_U_via_mapping
from .supports import power_support, verify_square_support_formula

SWEEP_ANGLES = (Angle(0, 1), Angle(1, 3), Angle(1, 2), Angle(2, 3), Angle(1, 1))
MAPPING_ANGLES = (Angle(1, 3), Angle(1, 2), Angle(2, 3))


def _nonempty(order_max):
    for n in range(2, order_max + 1):
        for g in enumerate_digraphs(n):
            if g.arcs:
                yield g


def check_operator_identities(max_order: int) -> list[str]:
    failures = []
    for g in _nonempty(max_order):
        space_failed = False
        k = build_K(g)
        c = build_C(g)
        s = build_S(g)
        if not (k @ k.adjoint()).is_identity():
            failures.append(f"KK* != I on {g!r}")
            space_failed = True
        if not (c @ c).is_identity() or c != c.adjoint():
            failures.append(f"coin not a reflection on {g!r}")
            space_failed = True
        if not (s @ s).is_identity():
            failures.append(f"shift not an involution on {g!r}")
            space_failed = True
        if space_failed:
            continue
        for eta in SWEEP_ANGLES:
            st = build_S_theta(g, eta)
            ut = st @ c
            if st != st.adjoint() or not (st @ st.adjoint()).is_identity():
                failures.append(f"twisted shift not self-adjoint unitary: {g!r}, eta={eta}")
            if not (ut @ ut.adjoint()).is_identity():
                failures.append(f"transfer matrix not unitary: {g!r}, eta={eta}")
            if (k @ st @ k.adjoint()) != build_H_tilde(g, eta):
                failures.append(f"discriminant factorization fails: {g!r}, eta={eta}")
            dt = build_D_theta(g, eta)
            if (dt @ st) != s or (dt @ ut) != build_U_grover(g):
                failures.append(f"phase-unwinding identities fail: {g!r}, eta={eta}")
    return failures


def check_spectral_mapping(max_order: int) -> list[str]:
    failures = []
    for g in _nonempty(max_order):
        if not weakly_connected(g):
            continue
        for eta in MAPPING_ANGLES:
            sm = spectrum_U_via_mapping(g, eta)
            so = spectrum_U_oracle(g, eta)
            if not spectra_match(sm, so, tol=1e-8):
                failures.append(f"mapping/eigensolver mismatch: {g!r}, eta={eta}")
    return failures


def check_plus_minus_multiplicities(max_order: int) -> list[str]:
    failures = []
    for g in _nonempty(max_order):
        if not weakly_connected(g):
            continue
        for eta in MAPPING_ANGLES:
            cls = classify_cycles(g, eta)
            vals = []
            for e in eig_hermitian(build_H_tilde(g, eta)).entries:
                vals.extend([e.value.real] * e.mult)
            m1 = sum(1 for v in vals if abs(v - 1) <= 1e-8)
            mm1 = sum(1 for v in vals if abs(v + 1) <= 1e-8)
            if (m1, mm1) != (cls.m1, cls.m_minus1):
                failures.append(
                    f"closed-path case {cls.case} predicts {(cls.m1, cls.m_minus1)} "
                    f"but spectrum has {(m1, mm1)}: {g!r}, eta={eta}")
    return failures


def check_square_supports(max_order: int) -> list[str]:
    failures = []
    angles = (Angle(1, 3), Angle(1, 2), Angle(2, 3))
    for g in _nonempty(max_order):
        gt = transpose(g)
        for eta in angles:
            rep = verify_square_support_formula(g, eta)
            if not rep.holds:
                failures.append(f"square-support formula violated: {g!r}, eta={eta}")
            supports = {sign: power_support(g, eta, 2, sign) for sign in ("+", "-")}
            for sign, a in supports.items():
                if a.data != power_support(gt, eta, 2, sign).data:
                    failures.append(f"transpose changes squared support: {g!r}, eta={eta}")
            if (np.array(supports["+"].data) * np.array(supports["-"].data)).any():
                failures.append(f"overlapping +/- supports: {g!r}, eta={eta}")
    return failures


CHECKS = (
    ("operator identities", check_operator_identities),
    ("spectral mapping", check_spectral_mapping),
    ("plus/minus multiplicities", check_plus_minus_multiplicities),
    ("square supports", check_square_supports),
)


def run_invariant_sweeps(max_order: int = 3, report=None) -> list[str]:
    all_failures = []
    for name, check in CHECKS:
        failures = check(max_order)
        if report:
            status = "ok" if not failures else f"{len(failures)} FAILURES"
            report(f"{name} (orders 2..{max_order}): {status}")
            for line in failures[:10]:
                report("  " + line)
        all_failures.extend(failures)
    return all_failures
