"""Exact arithmetic in cyclotomic-rational fields Q(zeta_m).

Walk operators built from a digraph with rotation angle eta = p*pi/q have
entries that are rational multiples of powers of e^{i*pi/q} = zeta_{2q}.
Everything here is exact: elements are integer coordinate vectors over the
power basis 1, zeta, ..., zeta^{phi(m)-1} (reduced by the m-th cyclotomic
polynomial) with a single positive denominator.  Sign tests on real parts
never use a fixed epsilon: rational cases are decided by integer arithmetic,
the rest by interval arithmetic at escalating precision backed by an exact
zero test.

Arrays of elements (``real_part_signs``, ``complex_images``) take the same
decisions a stack at a time: integer coordinate maps proven to fit int64
from the maxima (Python ints beyond), an exact vectorised zero test, and a
float64 evaluation that is used only where a stated rigorous error bound
certifies it; every entry the bound leaves open goes to the scalar route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import numpy as np


@dataclass(frozen=True)
class Angle:
    """Rotation angle p*pi/q in lowest terms, restricted to [0, pi].

    The exact scalar field attached to the angle is Q(zeta_{2q}); the unit
    e^{i*eta} is the basis monomial zeta_{2q}^p.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"angle denominator must be positive, got {self.q}")
        g = gcd(self.p, self.q)
        if g != 1 and not (self.p == 0 and self.q == 1):
            raise ValueError(f"angle {self.p}/{self.q} not in lowest terms")
        if not 0 <= self.p <= self.q:
            raise ValueError(f"angle {self.p}/{self.q}*pi outside [0, pi]")

    @staticmethod
    def of(p: int, q: int) -> "Angle":
        """Reduce p/q to lowest terms (must land in [0, 1])."""
        if q == 0:
            raise ValueError("angle denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        if g:
            p, q = p // g, q // g
        if p == 0:
            q = 1
        return Angle(p, q)

    @staticmethod
    def parse(text: str) -> "Angle":
        """Parse 'p/q' or 'p' (as a fraction of pi)."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return Angle.of(int(a), int(b))
        return Angle.of(int(s), 1)

    @property
    def order(self) -> int:
        """Order m = 2q of the root of unity generating the scalar field."""
        return 2 * self.q

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    def __str__(self):
        return f"{self.p}/{self.q}*pi"


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    # exact division of integer polynomials, ascending coefficients
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("inexact polynomial division")
        c //= b[-1]
        out[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    if any(a[: len(b) - 1]):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class _Ring:
    """Cached reduction data for Z[zeta_m] in the power basis."""

    __slots__ = ("m", "phi", "powers", "zero_num")

    def __init__(self, m: int):
        modulus = cyclotomic_polynomial(m)
        phi = len(modulus) - 1
        # powers[k] = coordinates of zeta^k in the basis, k = 0..m-1;
        # extended far enough for one convolution fold (2*phi-2 <= m-2).
        powers: list[tuple[int, ...]] = []
        cur = [0] * phi
        cur[0] = 1
        powers.append(tuple(cur))
        top = tuple(-c for c in modulus[:phi])  # zeta^phi
        for _ in range(1, max(m, 2 * phi - 1)):
            carry = cur[phi - 1]
            cur = [0] + cur[: phi - 1]
            if carry:
                for i in range(phi):
                    cur[i] += carry * top[i]
            powers.append(tuple(cur))
        self.m = m
        self.phi = phi
        self.powers = tuple(powers)
        self.zero_num = (0,) * phi


@lru_cache(maxsize=None)
def _ring(m: int) -> _Ring:
    return _Ring(m)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        if c:
            g = gcd(g, abs(c))
            if g == 1:
                break
    if not any(num):
        return tuple(0 for _ in num), 1
    if g > 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


class CycScalar:
    """An exact element of Q(zeta_m): integer coordinates over one denominator."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1, _normalized=False):
        if _normalized:
            self.m, self.num, self.den = m, num, den
        else:
            self.m = m
            self.num, self.den = _normalize(list(num), den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value, m: int = 2) -> "CycScalar":
        f = Fraction(value)
        ring = _ring(m)
        num = [0] * ring.phi
        num[0] = f.numerator
        return CycScalar(m, tuple(num), f.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycScalar":
        """The root of unity zeta_m^k, reduced to the power basis."""
        ring = _ring(m)
        return CycScalar(m, ring.powers[k % m], 1, _normalized=True)

    @staticmethod
    def from_coeffs(m: int, coeffs) -> "CycScalar":
        """Build from a full-length vector of rational basis coordinates."""
        ring = _ring(m)
        fr = [Fraction(c) for c in coeffs]
        if len(fr) != ring.phi:
            raise ValueError(f"expected {ring.phi} coordinates, got {len(fr)}")
        den = 1
        for f in fr:
            den = den * f.denominator // gcd(den, f.denominator)
        num = [f.numerator * (den // f.denominator) for f in fr]
        return CycScalar(m, tuple(num), den)

    # -- coercion -----------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def lift(self, m: int) -> "CycScalar":
        """Re-express in Q(zeta_m); the target order must be a multiple of
        the current one (so zeta old = zeta_m^(m/old))."""
        if m == self.m:
            return self
        if self.is_rational():
            ring = _ring(m)
            num = [0] * ring.phi
            num[0] = self.num[0]
            return CycScalar(m, tuple(num), self.den, _normalized=True)
        if m % self.m:
            raise ValueError(f"cannot move {self!r} from order {self.m} to {m}")
        ring = _ring(m)
        step = m // self.m
        num = [0] * ring.phi
        for k, c in enumerate(self.num):
            if c:
                pw = ring.powers[(k * step) % m]
                for i in range(ring.phi):
                    num[i] += c * pw[i]
        return CycScalar(m, tuple(num), self.den)

    @staticmethod
    def _match(a: "CycScalar", b: "CycScalar"):
        if a.m == b.m:
            return a, b
        if a.is_rational():
            return a.lift(b.m), b
        if b.is_rational():
            return a, b.lift(a.m)
        target = a.m * b.m // gcd(a.m, b.m)
        return a.lift(target), b.lift(target)

    def _coerce(self, other) -> "CycScalar":
        if isinstance(other, CycScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.rational(other, self.m)
        return NotImplemented

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = CycScalar._match(self, other)
        d = a.den * b.den // gcd(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
        return CycScalar(a.m, tuple(num), d)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.m, tuple(-c for c in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = CycScalar._match(self, other)
        ring = _ring(a.m)
        phi = ring.phi
        an, bn = a.num, b.num
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        conv[i + j] += x * y
        num = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                pw = ring.powers[k]
                for i in range(phi):
                    num[i] += c * pw[i]
        return CycScalar(a.m, tuple(num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            f = 1 / self.rational_value()
            return CycScalar.rational(f, self.m)
        # extended Euclid against the cyclotomic modulus, over Q
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = [Fraction(c, self.den) for c in self.num]
        inv = _poly_invmod(a, mod)
        return CycScalar.from_coeffs(self.m, inv + [0] * (_ring(self.m).phi - len(inv)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycScalar.rational(1, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "CycScalar":
        """Complex conjugate: zeta^k -> zeta^(m-k)."""
        ring = _ring(self.m)
        num = [0] * ring.phi
        for k, c in enumerate(self.num):
            if c:
                pw = ring.powers[(self.m - k) % self.m]
                for i in range(ring.phi):
                    num[i] += c * pw[i]
        return CycScalar(self.m, tuple(num), self.den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            a, b = CycScalar._match(self, other)
        except ValueError:
            return False
        return a.den == b.den and a.num == b.num

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    # -- analytic queries (exact) ---------------------------------------

    def real_part_sign(self) -> int:
        """Exact sign (-1, 0, +1) of the real part."""
        m = self.m
        if m == 2:
            c = self.num[0]
        elif m == 4:
            c = self.num[0]  # Re(a + b*i) = a
        elif m == 6:
            c = 2 * self.num[0] + self.num[1]  # Re(a + b*zeta_6) = a + b/2
        else:
            if (self + self.conj()).is_zero():
                return 0
            return _interval_real_sign(self)
        return (c > 0) - (c < 0)

    def imag_is_zero(self) -> bool:
        return self == self.conj()

    def to_complex(self) -> complex:
        """Floating image, relative error <= 2^-50."""
        if self.is_zero():
            return 0j
        m = self.m
        if m == 2:
            return complex(float(Fraction(self.num[0], self.den)), 0.0)
        if m == 4:
            return complex(
                float(Fraction(self.num[0], self.den)),
                float(Fraction(self.num[1], self.den)),
            )
        if m == 6:
            a, b = self.num
            re = float(Fraction(2 * a + b, 2 * self.den))
            im = float(Fraction(b, self.den)) * _SQRT3_HALF
            return complex(re, im)
        return _interval_to_complex(self)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Human-readable exact form 'a/b*z(m)^k + ...'."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            coef = Fraction(c, self.den)
            if k == 0:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(f"z({self.m})^{k}" if k > 1 else f"z({self.m})")
            elif coef == -1:
                parts.append(f"-z({self.m})^{k}" if k > 1 else f"-z({self.m})")
            else:
                parts.append(f"{coef}*z({self.m})^{k}" if k > 1 else f"{coef}*z({self.m})")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"CycScalar({self.render()})"


_SQRT3_HALF = 3**0.5 / 2


def _poly_invmod(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo mod over Q, via extended Euclid."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polydiv(p, d):
        p = p[:]
        q = [Fraction(0)] * max(len(p) - len(d) + 1, 0)
        for k in range(len(q) - 1, -1, -1):
            c = p[k + len(d) - 1] / d[-1]
            q[k] = c
            if c:
                for j, dj in enumerate(d):
                    p[k + j] -= c * dj
        return q, trim(p)

    r0, r1 = mod[:], trim(a[:])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = polydiv(r0, r1)
        ns = s0[:]
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    while len(ns) <= i + j:
                        ns.append(Fraction(0))
                    ns[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, trim(r), s1, trim(ns)
    if not r1:
        raise ZeroDivisionError("element not invertible (shares factor with modulus)")
    lead = r1[0]
    return [c / lead for c in s1]


def _interval_real_sign(x: CycScalar) -> int:
    # caller guarantees Re(x) != 0; escalate until the interval excludes 0
    prec = 64
    while prec <= (1 << 20):
        sign = _interval_eval_sign(x, prec)
        if sign:
            return sign
        prec *= 2
    raise RuntimeError(f"sign of Re({x!r}) unresolved at extreme precision")


@lru_cache(maxsize=32)
def _interval_unit_circle(m: int, prec: int) -> tuple:
    """Intervals (cos, sin) of 2*pi*k/m at ``prec`` bits, one per power-basis
    coordinate k; the same for every element of Q(zeta_m), so made once."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        two_pi = 2 * iv.pi
        return tuple((iv.cos(two_pi * k / m), iv.sin(two_pi * k / m))
                     for k in range(_ring(m).phi))
    finally:
        iv.prec = old


def _interval_eval_sign(x: CycScalar, prec: int) -> int:
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        total = iv.mpf(0)
        for c, (cos, _) in zip(x.num, _interval_unit_circle(x.m, prec)):
            if c:
                total += c * cos
        if total.a > 0:
            return 1
        if total.b < 0:
            return -1
        return 0
    finally:
        iv.prec = old


def _interval_to_complex(x: CycScalar) -> complex:
    re_zero = (x + x.conj()).is_zero()
    im_zero = x.imag_is_zero()
    iv = mpmath.iv
    old = iv.prec
    prec = 96
    try:
        while True:
            iv.prec = prec
            re = iv.mpf(0)
            im = iv.mpf(0)
            for c, (cos, sin) in zip(x.num, _interval_unit_circle(x.m, prec)):
                if c:
                    re += c * cos
                    im += c * sin
            re_mid = 0.0 if re_zero else float(re.mid) / x.den
            im_mid = 0.0 if im_zero else float(im.mid) / x.den
            width = max(
                0.0 if re_zero else float(re.delta),
                0.0 if im_zero else float(im.delta),
            ) / x.den
            scale = abs(re_mid) + abs(im_mid)
            if scale > 0 and width <= scale * 2**-55:
                return complex(re_mid, im_mid)
            prec *= 2
    finally:
        iv.prec = old


# -- module-level operations (spec surface) --------------------------------


def make_root(angle: Angle) -> CycScalar:
    """The unit e^{i*eta} for eta = p*pi/q, as zeta_{2q}^p."""
    return CycScalar.zeta(angle.order, angle.p)


def real_part_sign(x: CycScalar) -> int:
    return x.real_part_sign()


def to_float(x: CycScalar) -> complex:
    return x.to_complex()


def rational_real_coeffs(m: int) -> tuple[Fraction, ...] | None:
    """cos(2*pi*k/m) for the basis powers, when all are rational (m | 6 or m = 4).

    Lets array-valued callers take exact integer sign decisions in the fields
    that cover every tabulated angle; returns None when the cosines are
    irrational and the certified or interval paths must be used.
    """
    if m == 2:
        return (Fraction(1),)
    if m == 4:
        return (Fraction(1), Fraction(0))
    if m == 6:
        return (Fraction(1), Fraction(1, 2))
    return None


# -- arrays of elements ------------------------------------------------------------
#
# A coordinate stack holds integer coordinates over the power basis on its
# leading axis: coords[k] is the coefficient of zeta_m^k, so an array of
# elements of Q(zeta_m) with one common denominator has shape (phi(m), ...).

INT64_BOUND = 2 ** 63
# The float64 value of sum_k c_k cos(2 pi k / m) is within
# FLOAT_ERR * (phi + 4) * sum_k |c_k| of the true one (_float_real_parts).
FLOAT_ERR = 2.0 ** -52


def exact_ints(arr: np.ndarray, growth: int) -> np.ndarray:
    """An integer array as int64 when growth * max|arr| < 2**63, otherwise as
    Python ints.  An integer map whose rows have absolute sums <= growth then
    keeps every partial sum below 2**63, in any order of summation."""
    if growth * int(np.abs(arr).max(initial=0)) < INT64_BOUND:
        return arr.astype(np.int64, copy=False)
    return arr.astype(object, copy=False)


def coordinate_map(mat: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The integer matrix mat (r, phi) applied to the coordinate axis of a
    stack, exactly: in int64 where exact_ints proves it fits."""
    c = exact_ints(coords, int(np.abs(mat).sum(axis=1).max(initial=0)))
    return np.tensordot(mat.astype(c.dtype), c, axes=1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def zeta_power_map(m: int, s: int) -> np.ndarray:
    """(phi, phi) integer matrix of multiplication by zeta_m^s on coordinates:
    column k holds the coordinates of zeta_m^(k + s)."""
    ring = _ring(m)
    return _read_only(np.array([ring.powers[(k + s) % m] for k in range(ring.phi)],
                               dtype=np.int64).T)


@lru_cache(maxsize=32)
def _conj_map(m: int) -> np.ndarray:
    """(phi, phi) integer matrix of complex conjugation on coordinates:
    column k holds the coordinates of zeta_m^(m - k)."""
    ring = _ring(m)
    return _read_only(np.array([ring.powers[(m - k) % m] for k in range(ring.phi)],
                               dtype=np.int64).T)


@lru_cache(maxsize=32)
def _cosines_float(m: int) -> np.ndarray:
    """(phi,) float64 cos(2*pi*k/m) for the basis powers k.  Each is an
    80-bit value converted to float64, so within 2^-51 of the truth."""
    with mpmath.workprec(80):
        return _read_only(np.array([float(mpmath.cos(2 * mpmath.pi * k / m))
                                    for k in range(_ring(m).phi)]))


def _float_real_parts(m: int, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 real parts (K,) of the elements of a (phi, K) coordinate stack,
    and one bound (K,) on the absolute error of each.

    With u = 2^-53: each cosine is within 2^-51 = 4u of the truth, each
    coordinate converts with relative error u and each product adds u, so a
    term is within 7u |c_k|; a sum of phi terms in any order (BLAS, FMA)
    adds at most 1.01 (phi - 1) u sum_k |c_k|.  The bound FLOAT_ERR (phi + 4)
    sum_k |c_k| = (2 phi + 8) u sum_k |c_k| covers both, and the rounding of
    the float sum of |c_k| as well.  Coordinates beyond the float64 range get
    an infinite bound."""
    phi, k = coords.shape
    try:
        cf = coords.astype(np.float64)
    except OverflowError:
        return np.zeros(k), np.full(k, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        return _cosines_float(m) @ cf, FLOAT_ERR * (phi + 4) * np.abs(cf).sum(axis=0)


def real_part_signs(m: int, coords: np.ndarray) -> np.ndarray:
    """Exact signs (-1, 0, 1) of Re(sum_k coords[k] zeta_m^k) over a coordinate
    stack (phi(m), ...) of int64 or Python ints, as an int64 array (...).

    Rational cosines (m = 2, 4, 6): one integer weighted sum of the
    coordinates.  Otherwise, in order: an entry whose x + conj(x) coordinates
    all vanish has sign 0; the float64 value decides wherever its magnitude
    exceeds the rigorous bound of _float_real_parts; CycScalar.real_part_sign
    decides every entry left."""
    shape = coords.shape[1:]
    re = rational_real_coeffs(m)
    if re is not None:
        den = max(c.denominator for c in re)   # 1 or 2
        weights = np.array([[int(c * den) for c in re]], dtype=np.int64)
        return np.sign(coordinate_map(weights, coords)[0]).astype(np.int64)
    phi = coords.shape[0]
    flat = coords.reshape(phi, -1)
    out = np.zeros(flat.shape[1], dtype=np.int64)
    real_twice = coordinate_map(np.eye(phi, dtype=np.int64) + _conj_map(m), flat)
    idx = np.flatnonzero((real_twice != 0).any(axis=0))
    values, err = _float_real_parts(m, flat[:, idx])
    sure = np.abs(values) > err
    out[idx[sure]] = np.sign(values[sure])
    for i in idx[~sure].tolist():
        out[i] = CycScalar(m, tuple(int(c) for c in flat[:, i])).real_part_sign()
    return out.reshape(shape)


# Fixed-point cos and sin for complex_images: integers within 1 of 2^120 f;
# a part is kept when its error is at most 1/IMAGE_MARGIN of the sum of both.
FIXED_BITS = 120
IMAGE_MARGIN = 2 ** 61


@lru_cache(maxsize=32)
def _unit_circle_fixed(m: int) -> np.ndarray:
    """(2, phi) Python ints: cos and sin of 2*pi*k/m times 2^FIXED_BITS, each
    rounded from a value 30 bits more precise, so within 1 of the truth."""
    with mpmath.workprec(FIXED_BITS + 30):
        angles = [2 * mpmath.pi * k / m for k in range(_ring(m).phi)]
        scale = mpmath.mpf(2) ** FIXED_BITS
        return _read_only(np.array([[int(mpmath.nint(f(a) * scale)) for a in angles]
                                    for f in (mpmath.cos, mpmath.sin)], dtype=object))


def complex_images(xs) -> np.ndarray:
    """Float images of a sequence of elements, each within relative error
    2^-50 of the truth, as ``to_complex`` promises.

    m = 2, 4, 6 take to_complex's closed forms.  Elsewhere the parts are
    fixed-point sums S = sum_k c_k F_k with the integers F_k of
    _unit_circle_fixed: exact integers, each within A = sum_k |c_k| of
    2^120 times the true part, so a part that is exactly 0 (found by the
    integer conjugation map) is set to 0.  Python rounds S / (den 2^120)
    correctly; where IMAGE_MARGIN A <= |S_re| + |S_im| the error is below
    1.5 * 2^-53 |x|.  Every entry that test leaves open takes to_complex."""
    out = np.zeros(len(xs), dtype=complex)
    generic: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        if x.is_zero():
            continue
        if x.m in (2, 4, 6):
            out[i] = x.to_complex()
        else:
            generic.setdefault(x.m, []).append(i)
    for m, where in generic.items():
        phi = _ring(m).phi
        coords = np.array([xs[i].num for i in where], dtype=object).T
        eye, conj = np.eye(phi, dtype=np.int64), _conj_map(m)
        parts = _unit_circle_fixed(m) @ coords
        parts[0][~(coordinate_map(eye + conj, coords) != 0).any(axis=0)] = 0
        parts[1][~(coordinate_map(eye - conj, coords) != 0).any(axis=0)] = 0
        spread = np.abs(coords).sum(axis=0)
        for i, re, im, a in zip(where, parts[0].tolist(), parts[1].tolist(), spread.tolist()):
            if a * IMAGE_MARGIN <= abs(re) + abs(im):
                scale = xs[i].den << FIXED_BITS
                out[i] = complex(re / scale, im / scale)
            else:
                out[i] = xs[i].to_complex()
    return out
