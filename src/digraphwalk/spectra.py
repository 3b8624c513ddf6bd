"""Exact characteristic polynomials, Hermitian eigensolving, and the
spectral map between discriminant and transfer-matrix spectra.

Characteristic polynomials are computed division-free (Berkowitz), so
integer inputs give integer coefficients and cyclotomic inputs stay in the
field.  Stacks of integer matrices go through one batched kernel:
Berkowitz on a numpy int64 stack of residues modulo primes p < 2^28, the
integers rebuilt by symmetric CRT.  It is exact by two bounds.  Hadamard's
bound gives |c_k| <= C(n, k) * (sqrt(k) * a)^k for entries of modulus at
most a, and the kernel takes primes until their product exceeds twice the
largest of these (falling back to Python integers when its list runs out).
Every int64 sum it forms has at most n + 1 <= 65 products of residues below
2^28, so it stays below 2^63 for n <= 64.  ``charpoly_batch`` reduces an
integer stack into it; ``hermitian_charpoly_batch`` feeds it H_eta at
angles of order 2, 4 and 6 from a 0/1 adjacency stack, each entry read from
a four-entry residue table per prime.

``charpoly_exact`` feeds it one operator over any Z[zeta_m]: the integer
core B of the similar matrix B / L, whose coefficient k is B's over L^k.
A core with integer entries takes ``charpoly_int``.  Otherwise each prime
is 1 (mod m) (CHARPOLY_PRIMES, 1 (mod 12), when m divides 12), so Phi_m
has phi(m) distinct roots r_j mod p, one ring homomorphism per embedding
of the field.  B is evaluated at all of them, and the residues of each
coefficient's phi(m) power-basis coordinates follow by the inverse
Vandermonde (r_j^l) mod p, then the coordinates by symmetric CRT.  The
prime count is proved: Hadamard's bound holds under every embedding with
a = max_entry sum_k |c_k|, and each coordinate is at most F_m times it,
F_m = phi * max_l sum_k |G^-1_lk| from the trace form G_kl =
Tr(zeta^(k + l)), computed in Fractions.  Evaluation and interpolation sum
at most 64 products below 2^56 per int64 reduction.  Only where the prime
list runs short does the charpoly come from Berkowitz over ``CycScalar``s.

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
from math import comb, gcd, isqrt, prod

import numpy as np

from .cyclotomic import Angle, CycScalar, _conj_map, cyclotomic_polynomial, exact_ints
from .cycles import classify_cycles
from .digraph import Digraph, PreconditionError, arc_space, weakly_connected
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
# roots of unity: the prime source of Z and of every Z[zeta_m] with m | 12.
# Residues lie in [0, p), so every product is below 2^56; every sum the
# kernel forms has at most n + 1 <= 65 such terms, which is below
# 65 * 2^56 < 2^63: int64 cannot overflow for n <= MAX_CHARPOLY_DIM.
CHARPOLY_PRIMES = (268435273, 268435129, 268435033, 268435009, 268434997,
                   268434961, 268434949, 268434937, 268434841, 268434781,
                   268434721, 268434697)


def _prime_factors(k: int) -> list[int]:
    """The distinct prime factors of k >= 1, ascending."""
    out, q = [], 2
    while q * q <= k:
        if k % q == 0:
            out.append(q)
            while k % q == 0:
                k //= q
        q += 1
    return out + ([k] if k > 1 else [])


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _field_primes(m: int) -> tuple[int, ...]:
    """The prime source of Z[zeta_m]: primes p < 2^28 with p = 1 (mod m),
    as many as CHARPOLY_PRIMES.  That list itself when m divides 12;
    otherwise the largest such primes, descending, made on first use."""
    if 12 % m == 0:
        return CHARPOLY_PRIMES
    out = []
    p = (2 ** 28 - 2) // m * m + 1
    while len(out) < len(CHARPOLY_PRIMES) and p > m:
        if _is_prime(p):
            out.append(p)
        p -= m
    return tuple(out)


def _mobius(k: int) -> int:
    out = 1
    for q in _prime_factors(k):
        k //= q
        if k % q == 0:
            return 0
        out = -out
    return out


@lru_cache(maxsize=None)
def _coordinate_factor(m: int) -> Fraction:
    """F_m: every integer element c = sum_l a_l zeta_m^l, l < phi, has
    |a_l| <= F_m * max_j |sigma_j(c)| over the phi embeddings sigma_j.

    With G_kl = Tr(zeta^(k + l)) the trace form on the power basis,
    Tr(c zeta^k) = (G a)_k, and |Tr(c zeta^k)| <= phi * max_j |sigma_j(c)|;
    so a = G^-1 (G a) gives F_m = phi * max_l sum_k |G^-1_lk|.  Tr(zeta^t)
    is the Ramanujan sum, sum of d * mu(m / d) over d dividing gcd(t, m),
    and G is inverted in Fractions."""
    phi = len(cyclotomic_polynomial(m)) - 1
    trace = [sum(d * _mobius(m // d) for d in range(1, m + 1) if gcd(t, m) % d == 0)
             for t in range(2 * phi - 1)]
    rows = [[Fraction(trace[k + l]) for l in range(phi)] + [Fraction(int(k == l)) for l in range(phi)]
            for k in range(phi)]
    for col in range(phi):
        pivot = next(r for r in range(col, phi) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(phi):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return phi * max(sum(abs(x) for x in row[phi:]) for row in rows)


@lru_cache(maxsize=None)
def _prime_count(n: int, norm2: int, m: int = 1) -> int | None:
    """Fewest leading primes of _field_primes(m) whose product exceeds twice
    F_m times Hadamard's bound on every coefficient of an n x n charpoly with
    entries of squared modulus at most norm2; None when the source is too
    short.  F_1 = 1, which is the integer case.

    c_k is a sum of C(n, k) principal k x k minors, each at most
    (sqrt(k) * a)^k in modulus, so |c_k| <= C(n, k) * (k * norm2)^(k/2)
    (under every embedding, for cyclotomic entries); the comparison runs on
    squares to stay in integers."""
    need = max(comb(n, k) ** 2 * (k * norm2) ** k for k in range(n + 1))
    f = _coordinate_factor(m)
    modulus = 1
    for count, p in enumerate(_field_primes(m), start=1):
        modulus *= p
        if (modulus * f.denominator) ** 2 > 4 * f.numerator ** 2 * need:
            return count
    return None


# int64 entries per residue stack handed to _berkowitz_mod (2 MB)
_KERNEL_ENTRIES = 1 << 18


@lru_cache(maxsize=None)
def _roots_of_unity(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Vandermonde matrices (r_j^l) of the roots of unity of order m
    modulo each of the first ``count`` primes of _field_primes(m), and their
    inverses mod p, as two (count, phi, phi) int64 arrays.

    r has order exactly m and r_j = r^(k_j), k_j the j-th integer in [1, m]
    prime to m (k_0 = 1, so row 0 holds the powers of r): the phi distinct
    roots of Phi_m mod p, and zeta_m -> r_j is one ring homomorphism
    Z[zeta_m] -> Z/p per embedding.  As the nodes are every root of Phi_m,
    column j of the inverse holds the coefficients of the Lagrange basis
    polynomial Phi_m(t) / ((t - r_j) Phi_m'(r_j))."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    ks = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    factors = _prime_factors(m)
    vander, inverse = [], []
    for p in _field_primes(m)[:count]:
        r = next(r for r in (pow(x, (p - 1) // m, p) for x in range(2, p))
                 if all(pow(r, m // q, p) != 1 for q in factors))
        nodes = [pow(r, k, p) for k in ks]
        vander.append([[pow(x, l, p) for l in range(phi)] for x in nodes])
        cols = []
        for x in nodes:
            # Phi_m(t) / (t - x) by synthetic division; its value at x is Phi_m'(x)
            q = [0] * phi
            q[-1] = poly[-1]
            for i in range(phi - 1, 0, -1):
                q[i - 1] = (poly[i] + x * q[i]) % p
            scale = pow(sum(c * pow(x, i, p) for i, c in enumerate(q)) % p, -1, p)
            cols.append([c * scale % p for c in q])
        inverse.append([list(row) for row in zip(*cols)])
    return np.array(vander, dtype=np.int64), np.array(inverse, dtype=np.int64)


def _dot_mod(a: np.ndarray, b: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(P, i, k) @ (P, k, j) residues, reduced mod the P primes.  The inner
    axis runs in blocks of 64, so each int64 sum has at most 64 products
    below 2^56 and one residue below 2^28: below 2^63 for any k."""
    pk = primes[:, None, None]
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
    for lo in range(0, a.shape[-1], 64):
        out = (out + a[..., lo:lo + 64] @ b[..., lo:lo + 64, :]) % pk
    return out


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


def _charpoly_residues(stack, primes: np.ndarray, residues):
    """The (P, b, n + 1) charpoly residues of the B matrices of a (B, ..., n, n)
    stack, n >= 1, modulo the P primes, chunk by chunk; ``residues(chunk,
    pk)`` gives the (P, b, n, n) residues of at most _KERNEL_ENTRIES of them
    at a time."""
    step = max(1, _KERNEL_ENTRIES // (len(primes) * stack.shape[-1] ** 2))
    for lo in range(0, len(stack), step):
        yield _berkowitz_mod(residues(stack[lo:lo + step], primes[:, None, None, None]), primes)


def _charpoly_mod(stack: np.ndarray, count: int, residues) -> list[list[int]]:
    """Charpolys of the matrices of a stack (``_charpoly_residues``) modulo
    the first ``count`` primes, rebuilt by symmetric CRT."""
    primes = CHARPOLY_PRIMES[:count]
    return [row for res in _charpoly_residues(stack, np.array(primes, dtype=np.int64), residues)
            for row in _symmetric_crt(res, primes)]


def charpoly_batch(stack) -> list[list[int]]:
    """Exact characteristic polynomials of a (B, n, n) stack of integer
    matrices, each highest degree first, as Python ints.

    Division-free Berkowitz runs on the whole stack modulo as many of
    CHARPOLY_PRIMES as Hadamard's bound asks for, and the coefficients are
    rebuilt by symmetric CRT.  Where the bound needs more primes than the
    list has, or n exceeds MAX_CHARPOLY_DIM, the coefficients come from
    berkowitz_charpoly over exact Python ints instead."""
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise PreconditionError(f"expected a stack of square matrices, got shape {stack.shape}")
    if stack.dtype.kind not in "biuO":
        raise PreconditionError(f"charpoly kernel takes integer entries, got {stack.dtype}")
    n = stack.shape[1]
    if stack.size == 0:
        return [[1] for _ in range(stack.shape[0])]
    wide = stack.dtype == object or (stack.dtype.kind == "u" and stack.dtype.itemsize == 8)
    a_max = max(int(stack.max()), -int(stack.min()))
    count = None if wide or n > MAX_CHARPOLY_DIM else _prime_count(n, a_max * a_max)
    if count is None:
        return [berkowitz_charpoly([[int(x) for x in row] for row in mat], 1, 0)
                for mat in stack.tolist()]
    return _charpoly_mod(stack, count, lambda chunk, pk: chunk.astype(np.int64) % pk)


@lru_cache(maxsize=None)
def _residue_table(table: tuple[CycScalar, ...], count: int) -> np.ndarray:
    """The (count, 4) residues of a code table with entries in Z[zeta_m],
    m dividing 12, modulo the first ``count`` primes.

    Transposing a code stack swaps codes 1 and 2 and fixes 0 and 3, so
    every matrix read from the table is Hermitian exactly when entry 2 is
    the conjugate of entry 1 and entries 0 and 3 are real: checked here,
    exactly, once per table.  zeta_m goes to a root r of its cyclotomic
    polynomial mod p, a ring homomorphism, so sum c_j zeta^j goes to
    sum c_j r^j and a charpoly's integer coefficients keep their residues."""
    zero, fwd, bwd, digon = table
    if bwd != fwd.conj() or not (zero.imag_is_zero() and digon.imag_is_zero()):
        raise ArithmeticError("code table is not Hermitian: its charpolys need not be real")
    powers = _roots_of_unity(fwd.m, count)[0][:, 0].tolist()
    return np.array([[sum(c * rl for c, rl in zip(x.num, row)) % p for x in table]
                     for p, row in zip(CHARPOLY_PRIMES, powers)], dtype=np.int64)


def hermitian_charpoly_batch(adj, eta: Angle) -> list[list[int]]:
    """Exact characteristic polynomials of H_eta for a (B, n, n) stack of
    0/1 adjacency matrices, eta of order 2, 4 or 6, each highest degree
    first, as Python ints.

    The codes adj + 2 adj^T (no arc, one-way forward, one-way backward,
    digon) index the table (0, e^{i eta}, e^{-i eta}, 1), and each kernel
    chunk reads its residues from _residue_table.  Every entry has modulus
    at most 1, so Hadamard's bound takes norm^2 = 1; the coefficients are
    integers, as Q(zeta_m) has real subfield Q at these orders.  Beyond
    MAX_CHARPOLY_DIM they come from berkowitz_charpoly over the exact
    table instead."""
    adj = np.asarray(adj)
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise PreconditionError(f"expected a stack of square matrices, got shape {adj.shape}")
    if adj.dtype.kind not in "biu" or (adj.size and (adj.min() < 0 or adj.max() > 1)):
        raise PreconditionError("H_eta keys need a 0/1 adjacency stack")
    if eta.order not in (2, 4, 6):
        raise PreconditionError(f"the H_eta kernel covers angles of order 2, 4 and 6, not {eta}")
    n, m = adj.shape[1], eta.order
    codes = adj + 2 * np.swapaxes(adj, 1, 2)
    zero, one = CycScalar.rational(0, m), CycScalar.rational(1, m)
    table = (zero, CycScalar.zeta(m, eta.p), CycScalar.zeta(m, -eta.p), one)
    count = _prime_count(n, 1) if 0 < n <= MAX_CHARPOLY_DIM else None
    if count is not None:
        residues = _residue_table(table, count)
        return _charpoly_mod(codes, count, lambda chunk, pk: residues[:, chunk])
    out = []
    for mat in codes.tolist():
        coeffs = berkowitz_charpoly([[table[c] for c in row] for row in mat], one, zero)
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


def _classify_ring(coeffs, real: bool) -> str:
    if all(c.is_rational() for c in coeffs):
        if all(c.rational_value().denominator == 1 for c in coeffs):
            return "integer"
        return "rational"
    return "cyclotomic-real" if real else "cyclotomic"


def _all_real(coeffs, m: int) -> bool:
    """Whether every element of Q(zeta_m) in coeffs is real: one exact
    product of their (len(coeffs), phi) Python-int coordinates with the
    integer map x -> x - conj(x)."""
    nums = np.array([c.lift(m).num for c in coeffs], dtype=object)
    imag = (np.eye(nums.shape[1], dtype=np.int64) - _conj_map(m)).astype(object)
    return not (nums @ imag.T).any()


def _cyclotomic_charpoly(m: int, coords: np.ndarray) -> list[tuple[int, ...]] | None:
    """Charpoly of the matrix of a (phi(m), n, n) integer coordinate stack
    over Z[zeta_m], highest degree first, each coefficient as its phi(m)
    integer coordinates in the power basis.

    For each prime p of _field_primes(m) the stack is evaluated at all phi
    roots r_j of Phi_m mod p, one ring homomorphism per embedding sigma_j,
    and one _berkowitz_mod call takes the (P, phi, n, n) residues.  The
    residues of coefficient c = sum_l a_l zeta^l at the roots are V a with
    V = (r_j^l), so the inverse Vandermonde (``_roots_of_unity``) gives each
    a_l mod p, and symmetric CRT the integer a_l.  That is exact by a proved
    bound: an entry has modulus at most sum_k |c_k| under every embedding,
    so Hadamard's bound holds for every sigma_j(c), and |a_l| <= F_m times
    it (``_coordinate_factor``).  Evaluation and interpolation go through
    _dot_mod, which keeps every int64 sum below 2^63.  None when n = 0,
    n > MAX_CHARPOLY_DIM or the prime source is too short."""
    phi, n = coords.shape[0], coords.shape[-1]
    norm = int(np.abs(exact_ints(coords, phi)).sum(axis=0).max(initial=0))
    count = _prime_count(n, norm * norm, m) if 0 < n <= MAX_CHARPOLY_DIM else None
    if count is None:
        return None
    primes = _field_primes(m)[:count]
    pk = np.array(primes, dtype=np.int64)
    vander, inverse = _roots_of_unity(m, count)
    flat = (coords.reshape(1, phi, n * n) % pk[:, None, None]).astype(np.int64)

    def residues(roots, _pk):
        return _dot_mod(vander[:, roots], flat, pk).reshape(count, len(roots), n, n)

    at_roots = np.concatenate(list(_charpoly_residues(np.arange(phi), pk, residues)), axis=1)
    return list(zip(*_symmetric_crt(_dot_mod(inverse, at_roots, pk), primes)))


def charpoly_exact(m: OpMatrix) -> CharPoly:
    """Exact characteristic polynomial of a square operator matrix.

    Square-root-annotated matrices diag(1/sqrt(d)) A diag(1/sqrt(d)) are
    handled through the exact similar matrix diag(1/d) A.  That matrix is
    B / L, B its integer coordinate stack and L its denominator, so
    coefficient k of lambda^(n - k) is B's divided by L^k.  B's charpoly is
    ``charpoly_int``'s when B has integer entries and
    ``_cyclotomic_charpoly``'s otherwise; only where that route's prime
    source is too short do the coefficients come from berkowitz_charpoly
    over the ``CycScalar`` entries.  A self-adjoint input must give real
    coefficients, checked exactly."""
    if not m.is_square():
        raise PreconditionError("characteristic polynomial of a non-square matrix")
    n = m.row_space.dim
    if n > MAX_CHARPOLY_DIM:
        raise PreconditionError(f"dimension {n} exceeds the exact-charpoly bound {MAX_CHARPOLY_DIM}")
    self_adjoint = m.is_self_adjoint()
    if m.row_sqrt != m.col_sqrt:
        raise PreconditionError("charpoly of an asymmetrically annotated matrix")
    similar = m.similar()
    core, den = similar.coords, similar.den
    desc = None
    if not core[1:].any():
        desc = [CycScalar.rational(Fraction(c, den ** k))
                for k, c in enumerate(charpoly_int(core[0].tolist()))]
    else:
        nums = _cyclotomic_charpoly(similar.m, core)
        if nums is not None:
            desc = [CycScalar(similar.m, num, den ** k) for k, num in enumerate(nums)]
    if desc is not None:
        coeffs = tuple(reversed(desc))
    else:
        rows = [list(r) for r in similar.data]
        zero = CycScalar.rational(0)
        one = CycScalar.rational(1)
        coeffs = tuple(reversed(berkowitz_charpoly(rows, one, zero)))
    real = _all_real(coeffs, similar.m)
    if self_adjoint and not real:
        raise ArithmeticError("self-adjoint input produced a non-real coefficient")
    ring = _classify_ring(coeffs, real)
    return CharPoly(coeffs, ring, real_certified=self_adjoint or ring in ("integer", "rational"))


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
    space = arc_space(g)
    if not weakly_connected(g):
        raise PreconditionError(
            "spectral mapping requires a weakly connected digraph; "
            "compute per weak component instead")
    cls = classify_cycles(g, eta)
    n_edges = len(space) // 2
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
    space = arc_space(g)
    n, t = len(space), space.t
    # the diagonal is 2/d - 1 rounded twice; (2 - d)/d can differ in the last bit
    coin = 2.0 * (t[:, None] == t[None, :]) / space.deg[t][:, None] - np.eye(n)
    shift = np.zeros((n, n), dtype=complex)
    shift[space.inv, np.arange(n)] = np.exp(1j * eta * np.array(space.theta_weight))
    return shift @ coin


def build_H_tilde_float(g: Digraph, eta: float) -> np.ndarray:
    space = arc_space(g)
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
