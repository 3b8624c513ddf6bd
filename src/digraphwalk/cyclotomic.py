"""Exact arithmetic in cyclotomic-rational fields Q(zeta_m).

Walk operators built from a digraph with rotation angle eta = p*pi/q have
entries that are rational multiples of powers of e^{i*pi/q} = zeta_{2q}.
Everything here is exact: elements are integer coordinate vectors over the
power basis 1, zeta, ..., zeta^{phi(m)-1} (reduced by the m-th cyclotomic
polynomial) with a single positive denominator.

Signs of real parts and floating images are taken a coordinate stack at a
time (``real_part_signs``, ``complex_images``); a scalar is a one-column
stack.  No decision uses a fixed epsilon: rational cosines give integer
sums, an integer conjugation map finds every exact zero, a float64 value
decides only where a stated error bound certifies it, and every entry left
open takes fixed-point sums whose integer error bound is proved, at a
precision that doubles until the bound decides.  Integer coordinate maps
run in int64 where the maxima prove it fits, in Python ints beyond; integer
products of stacks run through ``_exact_matmul``, one exact route shared by
the walk operators and the sign kernel.
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

    def _column(self) -> np.ndarray:
        return np.array(self.num, dtype=object).reshape(-1, 1)

    def real_part_sign(self) -> int:
        """Exact sign (-1, 0, +1) of the real part: ``real_part_signs`` of
        the one-column stack of the coordinates."""
        return int(real_part_signs(self.m, self._column())[0])

    def imag_is_zero(self) -> bool:
        return self == self.conj()

    def to_complex(self) -> complex:
        """Floating image within relative error 2^-50: ``complex_images``
        of the one-column stack of the coordinates over ``den``."""
        return complex(complex_images(self.m, self._column(), self.den)[0])

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

    In these fields, which cover every tabulated angle, the sign of a real
    part is that of one integer weighted sum of the coordinates
    (``real_part_signs``, ``supports``); None when the cosines are
    irrational.
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


def _max_abs(arr: np.ndarray) -> int:
    """max|arr| of an integer array as a Python int (np.abs would wrap -2**63)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def exact_ints(arr: np.ndarray, growth: int) -> np.ndarray:
    """An integer array as int64 when max(growth, 1) * max|arr| < 2**63,
    otherwise as Python ints.  An integer map whose rows have absolute sums
    <= growth then keeps every partial sum below 2**63, in any order of
    summation."""
    if max(growth, 1) * _max_abs(arr) < INT64_BOUND:
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


FLOAT_EXACT = 2 ** 53


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer product a @ b, exact at any size: int64 from float64 BLAS
    when inner_dim * max|a| * max|b| < 2**53, where every partial sum is an
    integer below 2**53 whatever the summation order, otherwise a
    dtype=object array of Python ints.  The maxima are read in float64:
    exact below 2**53, and rounding never takes a larger one below it.
    Python-int operands stay Python ints."""
    if a.dtype != object and b.dtype != object:
        fa, fb = a.astype(np.float64), b.astype(np.float64)
        if (a.shape[-1] * int(np.abs(fa).max(initial=0)) * int(np.abs(fb).max(initial=0))
                < FLOAT_EXACT):
            prod = fa @ fb
            del fa, fb   # at most one float copy beside the int64 result
            return prod.astype(np.int64)
    return a.astype(object) @ b.astype(object)


@lru_cache(maxsize=32)
def zeta_coords(m: int) -> np.ndarray:
    """(phi, m) int64 matrix whose column s holds the coordinates of zeta_m^s.
    Every integer coordinate map below is a choice of its columns."""
    return _read_only(np.array(_ring(m).powers[:m], dtype=np.int64).T)


def _powers(m: int, exponents) -> np.ndarray:
    return _read_only(zeta_coords(m)[:, np.asarray(exponents) % m])


@lru_cache(maxsize=64)
def lift_map(m: int, target: int) -> np.ndarray:
    """(phi(target), phi(m)) integer matrix re-expressing coordinates over
    Q(zeta_m) in Q(zeta_target), m dividing target: column k holds the
    coordinates of zeta_target^(k target / m)."""
    if target % m:
        raise ValueError(f"cannot move order {m} to {target}")
    return _powers(target, np.arange(_ring(m).phi) * (target // m))


@lru_cache(maxsize=32)
def product_map(m: int) -> np.ndarray:
    """(phi, phi^2) integer matrix folding the coordinate products of two
    elements onto the basis: column i * phi + j holds the coordinates of
    zeta_m^(i + j), so the product of x and y has coordinates
    product_map(m) @ outer(x, y).ravel()."""
    k = np.arange(_ring(m).phi)
    return _powers(m, np.add.outer(k, k).ravel())


@lru_cache(maxsize=64)
def zeta_power_map(m: int, s: int) -> np.ndarray:
    """(phi, phi) integer matrix of multiplication by zeta_m^s on coordinates:
    column k holds the coordinates of zeta_m^(k + s)."""
    return _powers(m, np.arange(_ring(m).phi) + s)


@lru_cache(maxsize=32)
def _conj_map(m: int) -> np.ndarray:
    """(phi, phi) integer matrix of complex conjugation on coordinates:
    column k holds the coordinates of zeta_m^(m - k)."""
    return _powers(m, -np.arange(_ring(m).phi))


# Fixed-point cos and sin start at FIXED_BITS and double until the proved
# bound decides; an image part is kept when its error is at most
# 1/IMAGE_MARGIN of the sum of both.
FIXED_BITS = 120
IMAGE_MARGIN = 2 ** 61
_SQRT3_HALF = 3**0.5 / 2


@lru_cache(maxsize=64)
def _unit_circle_fixed(m: int, bits: int) -> np.ndarray:
    """(2, phi) Python ints: cos and sin of 2*pi*k/m times 2^bits, each
    rounded from a value 30 bits more precise, so within 1 of the truth."""
    with mpmath.workprec(bits + 30):
        angles = [2 * mpmath.pi * k / m for k in range(_ring(m).phi)]
        scale = mpmath.mpf(2) ** bits
        return _read_only(np.array([[int(mpmath.nint(f(a) * scale)) for a in angles]
                                    for f in (mpmath.cos, mpmath.sin)], dtype=object))


@lru_cache(maxsize=32)
def _cosines_float(m: int) -> np.ndarray:
    """(phi,) float64 cos(2*pi*k/m) for the basis powers k: the integers of
    _unit_circle_fixed(m, FIXED_BITS) over 2^FIXED_BITS, correctly rounded,
    so within 2^-53 + 2^-FIXED_BITS < 2^-51 of the truth."""
    cos = _unit_circle_fixed(m, FIXED_BITS)[0] / (1 << FIXED_BITS)
    return _read_only(cos.astype(np.float64))


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
    exceeds the rigorous bound of _float_real_parts; _fixed_point_signs
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
    idx = idx[~sure]
    out[idx] = _fixed_point_signs(m, flat[:, idx])
    return out.reshape(shape)


def _fixed_point_signs(m: int, coords: np.ndarray) -> np.ndarray:
    """Signs (K,) of the real parts of a (phi, K) coordinate stack, none of
    them 0, from the fixed-point sums S = sum_k c_k F_k with the cosine
    integers F_k of _unit_circle_fixed(m, bits).  Each F_k is within 1 of
    2^bits cos, so |S - 2^bits Re| <= A = sum_k |c_k|, and S has the sign
    of Re wherever |S| > A.  Open entries run again at twice the bits, from
    FIXED_BITS on.  That ends, since Re is not 0: 2^bits |Re| outgrows 2 A."""
    out = np.zeros(coords.shape[1], dtype=np.int64)
    idx = np.arange(coords.shape[1])
    coords = coords.astype(object)
    spread = np.abs(coords).sum(axis=0)
    bits = FIXED_BITS
    while idx.size:
        s = _unit_circle_fixed(m, bits)[0] @ coords
        sure = np.abs(s) > spread
        out[idx[sure]] = np.sign(s[sure])
        idx, coords, spread, bits = idx[~sure], coords[:, ~sure], spread[~sure], 2 * bits
    return out


def complex_images(m: int, coords: np.ndarray, den: int) -> np.ndarray:
    """Float images (K,) of the elements coords[:, i] / den of a (phi, K)
    coordinate stack over Q(zeta_m), each within relative error 2^-50 of
    the truth, as ``to_complex`` promises.

    m = 2, 4, 6 with den and every coordinate below 2^51 take closed forms:
    quotients of integers exact in float64, so one correctly rounded
    division gives the correctly rounded value of each rational part.
    Every other entry takes fixed-point sums S = sum_k c_k F_k with the
    integers F_k of _unit_circle_fixed(m, bits): exact integers, each
    within A = sum_k |c_k| of 2^bits times the true part, so a part that is
    exactly 0 (found by the integer conjugation map) is set to 0.  Python
    rounds S / (den 2^bits) correctly; where IMAGE_MARGIN A <= |S_re| +
    |S_im| the error is below 1.5 * 2^-53 |x|.  Open entries run again at
    twice the bits, from FIXED_BITS on; that ends, since x is not 0 and
    |S_re| + |S_im| grows with 2^bits while A stays.  Both tests and both
    quotients are the same for any common multiple of an element's
    coordinates and den, so the stack's one den gives the image of each
    reduced element."""
    out = np.zeros(coords.shape[1], dtype=complex)
    where = np.flatnonzero(coords.any(axis=0))
    coords = coords[:, where]
    if m in (2, 4, 6) and den < 2 ** 51 and _max_abs(coords) < 2 ** 51:
        c = coords.astype(np.float64)
        if m == 6:
            out.real[where] = (2 * c[0] + c[1]) / (2 * den)
            out.imag[where] = c[1] / den * _SQRT3_HALF
        else:
            out.real[where] = c[0] / den
            if m == 4:
                out.imag[where] = c[1] / den
        return out
    phi = coords.shape[0]
    coords = coords.astype(object)
    eye, conj = np.eye(phi, dtype=np.int64), _conj_map(m)
    real = (coordinate_map(eye + conj, coords) != 0).any(axis=0)
    imag = (coordinate_map(eye - conj, coords) != 0).any(axis=0)
    margin = np.abs(coords).sum(axis=0) * IMAGE_MARGIN
    bits = FIXED_BITS
    while where.size:
        re, im = _unit_circle_fixed(m, bits) @ coords
        re[~real], im[~imag] = 0, 0
        sure = margin <= np.abs(re) + np.abs(im)
        scale = den << bits
        for i, r, j in zip(where[sure].tolist(), re[sure].tolist(), im[sure].tolist()):
            out[i] = complex(r / scale, j / scale)
        keep = ~sure
        where, coords, real, imag, margin = (where[keep], coords[:, keep], real[keep],
                                             imag[keep], margin[keep])
        bits *= 2
    return out
