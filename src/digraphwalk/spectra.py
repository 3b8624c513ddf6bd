"""Exact characteristic polynomials, Hermitian eigensolving, and the
spectral map between discriminant and transfer-matrix spectra.

Characteristic polynomials are computed division-free (Berkowitz), so
integer inputs give integer coefficients and cyclotomic inputs stay in the
field.  Integer matrices, and Hermitian matrices over Z[zeta_4] and
Z[zeta_6], go through one batched kernel, ``charpoly_batch``: Berkowitz on a
numpy int64 stack of residues modulo primes p < 2^28, the integers rebuilt
by symmetric CRT.  It is exact by two bounds.  Hadamard's bound gives
|c_k| <= C(n, k) * (sqrt(k) * a)^k for entries of modulus at most a, and the
kernel takes primes until their product exceeds twice the largest of these
(falling back to Python integers when its list runs out).  Every int64 sum
it forms has at most n + 1 <= 65 products of residues below 2^28, so it stays
below 2^63 for n <= 64.  Each prime is 1 (mod 12), so zeta_4 and zeta_6 map
to roots of their cyclotomic polynomials mod p; a Hermitian charpoly over
those rings has integer coefficients, which the residues then determine.
The transfer-matrix spectrum is assembled from the discriminant
spectrum through phi(z) = (z + 1/z)/2 together with the exact +-1
multiplicities from the closed-path classification; a dense complex
eigensolve of the transfer matrix exists only as a cross-checking oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import numpy as np

from .cyclotomic import Angle, CycScalar, cyclotomic_polynomial
from .cycles import classify_cycles
from .digraph import ArcSpace, Digraph, PreconditionError, underlying_edges, weakly_connected
from .operators import OpMatrix, build_H_tilde, build_U_theta

MAX_CHARPOLY_DIM = 64


# -- characteristic polynomials ---------------------------------------------


def berkowitz_charpoly(rows, one, zero):
    """Division-free characteristic polynomial of a square matrix.

    Works over any commutative ring given its one and zero; returns the
    coefficients of det(lambda*I - M), highest degree first (monic).
    """
    n = len(rows)
    if n == 0:
        return [one]
    coeffs = [one, -rows[0][0]]
    for k in range(1, n):
        d = rows[k][k]
        r = rows[k][:k]
        c = [rows[j][k] for j in range(k)]
        sub = [row[:k] for row in rows[:k]]
        # moments s_j = r . A^j . c over the leading k x k block
        s = []
        v = c
        for j in range(k):
            acc = zero
            for rt, vt in zip(r, v):
                acc = acc + rt * vt
            s.append(acc)
            if j < k - 1:
                v = [sum((rt * vt for rt, vt in zip(row, v)), zero) for row in sub]
        t_col = [one, -d] + [-x for x in s]
        new = []
        for i in range(k + 2):
            acc = zero
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                acc = acc + t_col[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    return coeffs


# Primes p < 2^28 with p = 1 (mod 12), so that Z/p holds the 4th and the 6th
# roots of unity.  Residues lie in [0, p), so every product is below 2^56;
# every sum the kernel forms has at most n + 1 <= 65 such terms, which is
# below 65 * 2^56 < 2^63: int64 cannot overflow for n <= MAX_CHARPOLY_DIM.
CHARPOLY_PRIMES = (268435273, 268435129, 268435033, 268435009, 268434997,
                   268434961, 268434949, 268434937, 268434841, 268434781,
                   268434721, 268434697)


@lru_cache(maxsize=None)
def _prime_count(n: int, norm2: int) -> int | None:
    """Fewest leading primes whose product exceeds twice Hadamard's bound on
    every coefficient of an n x n charpoly with entries of squared modulus at
    most norm2; None when the whole list is too short.

    c_k is a sum of C(n, k) principal k x k minors, each at most
    (sqrt(k) * a)^k in modulus, so |c_k| <= C(n, k) * (k * norm2)^(k/2); the
    comparison runs on squares to stay in integers."""
    need = max(comb(n, k) ** 2 * (k * norm2) ** k for k in range(n + 1))
    modulus = 1
    for count, p in enumerate(CHARPOLY_PRIMES, start=1):
        modulus *= p
        if modulus * modulus > 4 * need:
            return count
    return None


# int64 entries per residue stack handed to _berkowitz_mod (2 MB)
_KERNEL_ENTRIES = 1 << 18


@lru_cache(maxsize=None)
def _roots_of_unity(m: int, count: int) -> np.ndarray:
    """A root of the m-th cyclotomic polynomial modulo each of the first
    ``count`` primes (m divides 12, so p = 1 (mod m) has one)."""
    roots = []
    for p in CHARPOLY_PRIMES[:count]:
        for x in range(2, p):
            r = pow(x, (p - 1) // m, p)
            if all(pow(r, m // q, p) != 1 for q in (2, 3) if m % q == 0):
                roots.append(r)
                break
    return np.array(roots, dtype=np.int64)


@lru_cache(maxsize=None)
def _toeplitz_index(k: int) -> np.ndarray:
    return np.arange(k + 2)[:, None] + np.arange(k + 1)[None, :]


def _berkowitz_mod(res: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Division-free Berkowitz on a (P, B, n, n) stack of residues modulo
    the P primes; returns the (P, B, n + 1) residues of the charpolys,
    highest degree first."""
    n = res.shape[-1]
    lead = res.shape[:2]
    p2, p3 = primes[:, None, None], primes[:, None, None, None]
    coeffs = np.zeros(lead + (n + 1, 1), dtype=np.int64)
    coeffs[..., 0, 0] = 1
    coeffs[..., 1, 0] = -res[..., 0, 0] % primes[:, None]
    for k in range(1, n):
        # Krylov columns c, A c, ..., A^(k-1) c of the leading k x k block A
        sub = res[..., :k, :k]
        v = res[..., :k, k:k + 1]
        krylov = [v]
        for _ in range(k - 1):
            v = (sub @ v) % p3
            krylov.append(v)
        # k zeros, then Berkowitz's column 1, -d, -r c, -r A c, ..., -r A^(k-1) c
        t = np.zeros(lead + (2 * k + 2,), dtype=np.int64)
        t[..., k] = 1
        t[..., k + 1] = -res[..., k, k]
        t[..., k + 2:] = -(res[..., k:k + 1, :k] @ np.concatenate(krylov, axis=-1))[..., 0, :]
        t %= p2
        # multiply by the lower-triangular Toeplitz matrix of that column:
        # row i of t[..., _toeplitz_index(k)] against the reversed coefficients
        coeffs[..., :k + 2, :] = (t[..., _toeplitz_index(k)] @ coeffs[..., k::-1, :]) % p3
    return coeffs[..., 0]


def _symmetric_crt(res: np.ndarray, primes) -> list[list[int]]:
    """Integers in (-M/2, M/2), M the product of the primes, from their
    (P, B, c) residues (Garner's mixed radix, then Horner over Python ints)."""
    if len(primes) == 1:
        p = primes[0]
        return np.where(res[0] > p // 2, res[0] - p, res[0]).tolist()
    digits = [res[0]]
    for i in range(1, len(primes)):
        p = primes[i]
        x = res[i]
        for j, d in enumerate(digits):
            x = (x - d) % p * pow(primes[j], -1, p) % p
        digits.append(x)
    value = digits[-1].astype(object)
    for d, p in zip(digits[-2::-1], primes[-2::-1]):
        value = value * p + d
    modulus = prod(primes)
    return np.where(value > modulus // 2, value - modulus, value).tolist()


def _hermitian_pair_check(a: np.ndarray, b: np.ndarray, t: int):
    """Raise unless a + b*zeta is exactly Hermitian, conj(zeta) = t - zeta."""
    at, bt = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
    if not (np.array_equal(at, a + t * b) and np.array_equal(bt, -b)):
        raise ArithmeticError("pair matrix is not Hermitian: its charpoly need not be real")


def charpoly_batch(stack, order: int = 2) -> list[list[int]]:
    """Exact characteristic polynomials of a stack of matrices, each highest
    degree first, as Python ints.

    ``stack`` is (B, n, n) and integer for ``order`` 2.  For ``order`` 4 or 6
    it is (B, n, n, 2), the pairs (a, b) standing for a + b*zeta_order, and
    must be exactly Hermitian, so that every coefficient is an integer.

    Division-free Berkowitz runs on the whole stack modulo as many of
    CHARPOLY_PRIMES as Hadamard's bound asks for, and the coefficients are
    rebuilt by symmetric CRT.  Each prime is 1 (mod 12), so zeta maps to a
    root r of its cyclotomic polynomial mod p and a + b*zeta to a + r*b; the
    map is a ring homomorphism that fixes the integer coefficients.  Where
    the bound needs more primes than the list has, or n exceeds
    MAX_CHARPOLY_DIM, the coefficients come from berkowitz_charpoly over
    exact Python ints (cyclotomic scalars for pairs) instead."""
    stack = np.asarray(stack)
    if order not in (2, 4, 6):
        raise PreconditionError(f"charpoly kernel covers orders 2, 4 and 6, got {order}")
    pairs = order != 2
    if stack.ndim != 3 + pairs or stack.shape[1] != stack.shape[2] or (
            pairs and stack.shape[3] != 2):
        raise PreconditionError(f"expected a stack of square {'pair ' if pairs else ''}"
                                f"matrices, got shape {stack.shape}")
    if stack.dtype.kind not in "biuO":
        raise PreconditionError(f"charpoly kernel takes integer entries, got {stack.dtype}")
    n = stack.shape[1]
    if stack.shape[0] == 0 or n == 0:
        return [[1] for _ in range(stack.shape[0])]
    wide = stack.dtype == object or (stack.dtype.kind == "u" and stack.dtype.itemsize == 8)
    a, b = (stack[..., 0], stack[..., 1]) if pairs else (stack, None)
    a_max = max(int(a.max()), -int(a.min()))
    if pairs:
        if not wide:
            a, b = a.astype(np.int64), b.astype(np.int64)
        t = -cyclotomic_polynomial(order)[1]   # zeta + conj(zeta)
        _hermitian_pair_check(a, b, t)
        # |a + b zeta|^2 = a^2 + t a b + b^2
        b_max = max(int(b.max()), -int(b.min()))
        norm2 = a_max * a_max + t * a_max * b_max + b_max * b_max
    else:
        norm2 = a_max * a_max
    count = None if wide or n > MAX_CHARPOLY_DIM else _prime_count(n, norm2)
    if count is None:
        return _charpoly_exact_ints(a, b, order)
    primes = np.array(CHARPOLY_PRIMES[:count], dtype=np.int64)
    pk = primes[:, None, None, None]
    roots = _roots_of_unity(order, count)[:, None, None, None] if pairs else None
    out: list[list[int]] = []
    # bound the working set: the residues of at most _KERNEL_ENTRIES entries at a time
    step = max(1, _KERNEL_ENTRIES // (count * n * n))
    for lo in range(0, len(a), step):
        res = a[None, lo:lo + step].astype(np.int64) % pk
        if pairs:
            res = (res + roots * (b[None, lo:lo + step] % pk)) % pk
        out.extend(_symmetric_crt(_berkowitz_mod(res, primes), CHARPOLY_PRIMES[:count]))
    return out


def _charpoly_exact_ints(a, b, order: int) -> list[list[int]]:
    """The kernel's fallback: berkowitz_charpoly over exact Python ints, or
    over cyclotomic scalars for pair stacks."""
    out = []
    if b is None:
        for mat in a.tolist():
            out.append(berkowitz_charpoly([[int(x) for x in row] for row in mat], 1, 0))
        return out
    one, zero = CycScalar.rational(1, order), CycScalar.rational(0, order)
    for ma, mb in zip(a.tolist(), b.tolist()):
        rows = [[CycScalar(order, (int(x), int(y))) for x, y in zip(ra, rb)]
                for ra, rb in zip(ma, mb)]
        coeffs = berkowitz_charpoly(rows, one, zero)
        if not all(c.is_rational() for c in coeffs):
            raise ArithmeticError("Hermitian charpoly produced a non-real coefficient")
        out.append([int(c.rational_value()) for c in coeffs])
    return out


# Up to this dimension one matrix is faster through berkowitz_charpoly over
# Python ints than through the kernel, which pays numpy dispatch per step.
# Measured per matrix (best of 7 x 100, one core), Python ints against the
# kernel: random 0/1 matrices 63/134 us at n = 5, 245/326 at 8, 527/298 at
# 9; symmetric -1/0/1 matrices 95/172 at 5, 369/333 at 8, 533/400 at 9.
_PY_CHARPOLY_MAX_DIM = 8


def charpoly_int(rows) -> list[int]:
    """Characteristic polynomial of an integer matrix, highest degree first."""
    n = len(rows)
    if n <= _PY_CHARPOLY_MAX_DIM:
        return berkowitz_charpoly([[int(x) for x in row] for row in rows], 1, 0)
    try:
        stack = np.array(rows, dtype=np.int64).reshape(1, n, n)
    except OverflowError:
        stack = np.array([[[int(x) for x in row] for row in rows]], dtype=object).reshape(1, n, n)
    return charpoly_batch(stack)[0]


@dataclass(frozen=True)
class CharPoly:
    """Exact monic characteristic polynomial; constant term first.

    ``ring`` tags the coefficient domain; ``real_certified`` records the
    exact check that every coefficient equals its own conjugate."""

    coeffs: tuple[CycScalar, ...]
    ring: str
    real_certified: bool

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> str:
        return json.dumps({
            "coeffs": [c.render() for c in self.coeffs],
            "ring": self.ring,
            "real": self.real_certified,
        })

    def __str__(self):
        return " + ".join(f"({c.render()})*x^{k}" for k, c in enumerate(self.coeffs)
                          if not c.is_zero()) or "0"


def _classify_ring(coeffs) -> str:
    if all(c.is_rational() for c in coeffs):
        if all(c.rational_value().denominator == 1 for c in coeffs):
            return "integer"
        return "rational"
    if all(c.imag_is_zero() for c in coeffs):
        return "cyclotomic-real"
    return "cyclotomic"


def charpoly_exact(m: OpMatrix) -> CharPoly:
    """Exact characteristic polynomial of a square operator matrix.

    Square-root-annotated matrices diag(1/sqrt(d)) A diag(1/sqrt(d)) are
    handled through the exact similar matrix diag(1/d) A."""
    if not m.is_square():
        raise PreconditionError("characteristic polynomial of a non-square matrix")
    n = m.row_space.dim
    if n > MAX_CHARPOLY_DIM:
        raise PreconditionError(f"dimension {n} exceeds the exact-charpoly bound {MAX_CHARPOLY_DIM}")
    self_adjoint = m.is_self_adjoint()
    if m.row_sqrt is not None or m.col_sqrt is not None:
        if m.row_sqrt != m.col_sqrt:
            raise PreconditionError("charpoly of an asymmetrically annotated matrix")
        d = m.row_sqrt
        rows = [[m.data[i][j] * Fraction(1, d[i]) for j in range(n)] for i in range(n)]
    else:
        rows = [list(r) for r in m.data]
    ints = _try_integer_rows(rows)
    if ints is not None:
        desc = charpoly_int(ints)
        coeffs = tuple(CycScalar.rational(c) for c in reversed(desc))
    else:
        zero = CycScalar.rational(0)
        one = CycScalar.rational(1)
        desc = berkowitz_charpoly(rows, one, zero)
        coeffs = tuple(reversed(desc))
    if self_adjoint:
        for c in coeffs:
            if not c.imag_is_zero():
                raise ArithmeticError("self-adjoint input produced a non-real coefficient")
    ring = _classify_ring(coeffs)
    return CharPoly(coeffs, ring, real_certified=self_adjoint or ring in ("integer", "rational"))


def _try_integer_rows(rows) -> list[list[int]] | None:
    out = []
    for row in rows:
        orow = []
        for x in row:
            if not x.is_rational():
                return None
            f = x.rational_value()
            if f.denominator != 1:
                return None
            orow.append(f.numerator)
        out.append(orow)
    return out


def cospectral_key(p: CharPoly) -> bytes:
    """Canonical byte string; equal keys iff equal polynomials (fixed ring)."""
    parts = []
    for c in p.coeffs:
        if c.is_rational():
            parts.append(str(c.rational_value()))
        else:
            parts.append(f"o{c.m}[" + ",".join(f"{n}/{c.den}" for n in c.num) + "]")
    return ";".join(parts).encode()


# -- floating spectra ----------------------------------------------------------


@dataclass(frozen=True)
class EigEntry:
    value: complex
    mult: int
    exact: str | None = None


@dataclass(frozen=True)
class SpectrumSummary:
    entries: tuple[EigEntry, ...]
    source: str      # "eigensolver" | "mapping-theorem" | "closed-form"
    dim: int

    def total_multiplicity(self) -> int:
        return sum(e.mult for e in self.entries)

    def as_multiset(self) -> list[complex]:
        out: list[complex] = []
        for e in self.entries:
            out.extend([e.value] * e.mult)
        return sorted(out, key=lambda z: (round(z.real, 9), round(z.imag, 9)))

    def to_json(self) -> str:
        return json.dumps({
            "eigs": [{"re": e.value.real, "im": e.value.imag, "mult": e.mult}
                     for e in self.entries],
            "source": self.source,
        })


EIG_RESIDUAL_TOL = 1e-10
CLUSTER_GAP = 1e-7


def _cluster(values, gap=CLUSTER_GAP):
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(v - groups[-1][-1]) <= gap:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def eig_hermitian(m: OpMatrix) -> SpectrumSummary:
    """Floating spectrum of an exactly self-adjoint matrix, sorted ascending."""
    if not m.is_self_adjoint():
        raise PreconditionError("matrix is not exactly self-adjoint")
    arr = m.to_complex_array()
    vals, vecs = np.linalg.eigh(arr)
    for i, lam in enumerate(vals):
        residual = np.linalg.norm(arr @ vecs[:, i] - lam * vecs[:, i])
        if residual > EIG_RESIDUAL_TOL:
            raise ArithmeticError(f"eigenpair residual {residual:.2e} above bound")
    entries = tuple(EigEntry(complex(grp[0], 0.0), len(grp))
                    for grp in _cluster(list(vals)))
    return SpectrumSummary(entries, "eigensolver", dim=arr.shape[0])


def eig_unitary_oracle(m: OpMatrix) -> list[complex]:
    """Dense complex eigensolve of the floating image (validation oracle only)."""
    vals = np.linalg.eig(m.to_complex_array())[0]
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def phi_inverse(mu: float) -> tuple[complex, complex]:
    """The two unit-circle preimages of mu under phi(z) = (z + 1/z)/2.

    The pair coincides at mu = +-1."""
    if abs(mu) > 1 + 1e-12:
        raise PreconditionError(f"|mu| = {abs(mu)} exceeds 1")
    mu = min(1.0, max(-1.0, float(mu)))
    s = (1.0 - mu * mu) ** 0.5
    return complex(mu, s), complex(mu, -s)


def spectrum_U_via_mapping(g: Digraph, eta: Angle) -> SpectrumSummary:
    """Spectrum of the transfer matrix assembled from the discriminant.

    Discriminant eigenvalues come from the Hermitian eigensolver; the exact
    multiplicities of +-1 come from the closed-path classification, and the
    extra +-1 eigenvalues have multiplicity max(0, |E| - |V| + m_eps) on the
    positive-degree vertex set."""
    if not weakly_connected(g):
        raise PreconditionError(
            "spectral mapping requires a weakly connected digraph; "
            "compute per weak component instead")
    space = ArcSpace(g)
    if not space.arcs:
        raise PreconditionError("digraph has no arcs")
    cls = classify_cycles(g, eta)
    n_edges = len(underlying_edges(g))
    n_vertices = sum(1 for d in space.degree if d > 0)
    htilde = build_H_tilde(g, eta)
    disc = eig_hermitian(htilde)
    vals = []
    for e in disc.entries:
        vals.extend([e.value.real] * e.mult)
    vals.sort()
    m1, mm1 = cls.m1, cls.m_minus1
    for lam in vals[:mm1]:
        if abs(lam + 1) > 1e-8:
            raise ArithmeticError(f"expected discriminant eigenvalue -1, got {lam}")
    for lam in vals[len(vals) - m1:]:
        if abs(lam - 1) > 1e-8:
            raise ArithmeticError(f"expected discriminant eigenvalue 1, got {lam}")
    interior = vals[mm1:len(vals) - m1] if m1 or mm1 else vals
    big_m1 = max(0, n_edges - n_vertices + m1)
    big_mm1 = max(0, n_edges - n_vertices + mm1)
    entries: list[EigEntry] = []
    if m1 + big_m1:
        entries.append(EigEntry(complex(1, 0), m1 + big_m1, exact="1"))
    if mm1 + big_mm1:
        entries.append(EigEntry(complex(-1, 0), mm1 + big_mm1, exact="-1"))
    for grp in _cluster(interior):
        mu = grp[0]
        up, down = phi_inverse(mu)
        entries.append(EigEntry(up, len(grp), exact=f"phi_inv({mu:.12g},+)"))
        entries.append(EigEntry(down, len(grp), exact=f"phi_inv({mu:.12g},-)"))
    out = SpectrumSummary(tuple(entries), "mapping-theorem", dim=len(space.arcs))
    if out.total_multiplicity() != len(space.arcs):
        raise ArithmeticError(
            f"assembled multiplicity {out.total_multiplicity()} != arc count {len(space.arcs)}")
    return out


def spectrum_U_oracle(g: Digraph, eta: Angle) -> SpectrumSummary:
    """Transfer-matrix spectrum by dense complex eigensolve (oracle route)."""
    u = build_U_theta(g, eta)
    vals = eig_unitary_oracle(u)
    entries = tuple(EigEntry(v, 1) for v in vals)
    return SpectrumSummary(entries, "eigensolver", dim=len(vals))


# -- floating-angle path ---------------------------------------------------
#
# Angles that are not rational multiples of pi have no exact scalar field;
# they are supported only here, as plain complex matrices.


def build_U_theta_float(g: Digraph, eta: float) -> np.ndarray:
    space = ArcSpace(g)
    if not space.arcs:
        raise PreconditionError("digraph has no arcs")
    n = len(space)
    coin = np.zeros((n, n))
    for i in range(n):
        d = space.degree[space.terminus[i]]
        for j in range(n):
            if space.terminus[j] == space.terminus[i]:
                coin[i, j] = 2.0 / d - (1.0 if i == j else 0.0)
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[space.inv[j], j] = np.exp(1j * eta * space.theta_weight[j])
    return shift @ coin


def build_H_tilde_float(g: Digraph, eta: float) -> np.ndarray:
    space = ArcSpace(g)
    if not space.arcs:
        raise PreconditionError("digraph has no arcs")
    verts = [v for v in range(g.n) if space.degree[v] > 0]
    n = len(verts)
    out = np.zeros((n, n), dtype=complex)
    for a, x in enumerate(verts):
        for b, y in enumerate(verts):
            fwd, bwd = (x, y) in g.arcs, (y, x) in g.arcs
            if fwd or bwd:
                phase = 1.0 if (fwd and bwd) else np.exp(1j * eta * (1 if fwd else -1))
                out[a, b] = phase / (space.degree[x] * space.degree[y]) ** 0.5
    return out


def spectrum_U_float(g: Digraph, eta: float) -> SpectrumSummary:
    """Dense transfer-matrix spectrum at an arbitrary real angle."""
    u = build_U_theta_float(g, eta)
    vals = np.linalg.eig(u)[0]
    for v in vals:
        if abs(abs(v) - 1) > 1e-9:
            raise ArithmeticError(f"eigenvalue {v} off the unit circle")
    ordered = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    entries = tuple(EigEntry(v, 1) for v in ordered)
    return SpectrumSummary(entries, "eigensolver", dim=len(ordered))


def spectra_match(a: SpectrumSummary, b: SpectrumSummary, tol: float = 1e-8) -> bool:
    """Multiset comparison after lexicographic sorting."""
    xs, ys = a.as_multiset(), b.as_multiset()
    if len(xs) != len(ys):
        return False
    return all(abs(x - y) <= tol for x, y in zip(xs, ys))
