import cmath
import random
from fractions import Fraction

import pytest

from digraphwalk.cyclotomic import (
    Angle,
    CycScalar,
    cyclotomic_polynomial,
    make_root,
    real_part_sign,
    to_float,
)

ORDERS = (2, 4, 6, 8, 12)


def random_scalar(rng: random.Random, m: int) -> CycScalar:
    phi = len(cyclotomic_polynomial(m)) - 1
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(phi)]
    return CycScalar.from_coeffs(m, coeffs)


# -- angles -------------------------------------------------------------------

def test_angle_normalization():
    assert Angle.of(2, 4) == Angle(1, 2)
    assert Angle.of(0, 7) == Angle(0, 1)
    assert Angle.of(3, 3) == Angle(1, 1)
    assert Angle.parse("2/3") == Angle(2, 3)
    assert Angle.parse("0") == Angle(0, 1)
    assert Angle(1, 3).order == 6


def test_angle_rejects_out_of_range():
    with pytest.raises(ValueError):
        Angle.of(3, 2)
    with pytest.raises(ValueError):
        Angle.of(-1, 3)
    with pytest.raises(ValueError):
        Angle.of(1, 0)
    with pytest.raises(ValueError):
        Angle(2, 4)  # not reduced


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


# -- roots of unity -----------------------------------------------------------

def test_make_root_zero_angle_is_one():
    assert make_root(Angle(0, 1)) == CycScalar.rational(1, 2)


def test_make_root_quarter_turn_squares_to_minus_one():
    i = make_root(Angle(1, 2))
    assert i * i == -1


def test_make_root_sixth_turn_real_part():
    z = make_root(Angle(1, 3))
    assert z + z.conj() == 1  # 2 cos(pi/3) = 1
    assert abs(to_float(z) - cmath.exp(1j * cmath.pi / 3)) < 1e-15


@pytest.mark.parametrize("p,q", [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1), (3, 4), (5, 6)])
def test_root_power_identities(p, q):
    angle = Angle(p, q)
    z = make_root(angle)
    assert z ** (2 * q) == 1
    assert z ** q == (-1) ** p
    assert z * z.conj() == 1


# -- field axioms -------------------------------------------------------------

def test_field_axioms_random():
    rng = random.Random(71)
    for m in ORDERS:
        for _ in range(25):
            a, b, c = (random_scalar(rng, m) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conj() == a.conj() * b.conj()
            if not a.is_zero():
                assert a * a.inverse() == 1
            prod = a * a.conj()
            assert prod.real_part_sign() >= 0
            assert prod.imag_is_zero()


def test_division_and_zero():
    a = CycScalar.from_coeffs(6, [Fraction(2, 3), Fraction(-1, 2)])
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        CycScalar.rational(0, 6).inverse()


def test_cross_order_rational_mixing():
    one = CycScalar.rational(1, 2)
    z = make_root(Angle(1, 3))
    assert one * z == z
    assert z + 0 == z


def test_cross_order_values_lift_to_common_field():
    # zeta_8^2 and zeta_4 are both i; mixed-order arithmetic goes through
    # the compositum
    assert CycScalar.zeta(8, 2) == CycScalar.zeta(4, 1)
    mixed = make_root(Angle(1, 2)) + make_root(Angle(1, 3))
    assert mixed.m == 12
    assert abs(to_float(mixed) - (1j + cmath.exp(1j * cmath.pi / 3))) < 1e-14
    assert (make_root(Angle(1, 2)) * make_root(Angle(1, 3))) == CycScalar.zeta(12, 5)


# -- sign of the real part ----------------------------------------------------

def test_real_part_sign_examples():
    assert real_part_sign(make_root(Angle(1, 2))) == 0          # Re(i) = 0
    assert real_part_sign(make_root(Angle(2, 3))) == -1         # cos(2pi/3) = -1/2
    assert real_part_sign(CycScalar.rational(1, 6) + make_root(Angle(1, 3))) == 1


def test_real_part_sign_interval_path():
    # order 8 and 12 have irrational real-part forms
    z8 = CycScalar.zeta(8)
    assert real_part_sign(z8) == 1
    assert real_part_sign(z8 ** 3) == -1
    assert real_part_sign(z8 ** 2) == 0                          # i
    z12 = CycScalar.zeta(12)
    assert real_part_sign(z12 - z12) == 0
    assert real_part_sign(z12 ** 5 + z12 ** 7) == -1             # 2 cos is negative there
    # 2cos(pi/4) = sqrt(2) against nearby rationals, both orientations
    two_cos = CycScalar.zeta(8) + CycScalar.zeta(8).conj()
    assert real_part_sign(two_cos - CycScalar.rational(Fraction(17, 12), 8)) == -1
    assert real_part_sign(two_cos - CycScalar.rational(Fraction(239, 169), 8)) == 1


def test_real_part_sign_matches_float_on_random_elements():
    rng = random.Random(1009)
    checked = 0
    for _ in range(1000):
        m = rng.choice(ORDERS)
        x = random_scalar(rng, m)
        re = to_float(x).real
        if abs(re) > 1e-9:
            checked += 1
            assert real_part_sign(x) == (1 if re > 0 else -1)
    assert checked > 900


# -- floating conversion ------------------------------------------------------

def test_to_float_examples():
    assert to_float(CycScalar.rational(1)) == 1 + 0j
    assert abs(to_float(make_root(Angle(1, 2))) - 1j) < 1e-15
    x = make_root(Angle(2, 3)) * Fraction(1, 3)
    assert abs(to_float(x) - complex(-1 / 6, 3 ** 0.5 / 6)) < 1e-15


def test_to_float_random_against_numeric(tmp_path):
    rng = random.Random(5)
    for m in ORDERS:
        for _ in range(20):
            x = random_scalar(rng, m)
            direct = sum(
                Fraction(c, x.den) * cmath.exp(2j * cmath.pi * k / m)
                for k, c in enumerate(x.num))
            got = to_float(x)
            assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


def test_interval_paths_at_pi_over_5_and_7():
    # orders 10 and 14 take the interval paths of to_float and real_part_sign;
    # the second pass reads cached cos/sin intervals, and mpmath's working
    # precision is left as it was
    import mpmath

    rng = random.Random(11)
    prec = mpmath.iv.prec
    for m in (10, 14):
        for _ in range(2):
            for _ in range(20):
                x = random_scalar(rng, m)
                direct = sum(
                    Fraction(c, x.den) * cmath.exp(2j * cmath.pi * k / m)
                    for k, c in enumerate(x.num))
                assert abs(to_float(x) - direct) <= 1e-12 * max(1.0, abs(direct))
                if abs(direct.real) > 1e-9:
                    assert real_part_sign(x) == (1 if direct.real > 0 else -1)
    assert mpmath.iv.prec == prec


def test_render_round_trip_readable():
    x = CycScalar.from_coeffs(6, [Fraction(1, 3), Fraction(-2)])
    assert x.render() == "1/3 - 2*z(6)"
    assert CycScalar.rational(0, 4).render() == "0"


def test_real_part_signs_equal_scalar_signs():
    # int64 stacks, and Python ints beyond the float64 range
    import numpy as np

    from digraphwalk.cyclotomic import _ring, real_part_signs

    rng = random.Random(2718)
    for m in (2, 4, 6, 8, 10, 12, 14, 30):
        phi = _ring(m).phi
        for scale in (3, 2 ** 40, 2 ** 1100):
            coords = [[rng.randint(-scale, scale) for _ in range(40)] for _ in range(phi)]
            for k in range(phi):   # one zero entry
                coords[k][1] = 0
            stack = np.array(coords, dtype=object if scale > 2 ** 62 else np.int64)
            want = [CycScalar(m, tuple(c[j] for c in coords)).real_part_sign() for j in range(40)]
            assert real_part_signs(m, stack).tolist() == want, (m, scale)
