"""Exact integer arithmetic for patterns of regular integer matrices.

A regular integer matrix ``M`` partitions ``Z^d`` into ``m = |det M|``
congruence classes mod ``M``, and likewise the rational lattice
``M^{-1} Z^d`` into ``m`` classes mod ``Z^d``.  One exact diagonal form
``U M V = diag(eps)`` labels both: a pattern generator ``g`` by the digits
``U g mod eps``, a frequency ``h`` by ``V^T h mod eps``, and the phase is
``h^T M^{-1} g = sum_i (V^T h)_i (U g)_i / eps_i (mod 1)``.  This module
enumerates the canonical representatives inside the half-open cube
``[-1/2, 1/2)^d``, and labels and reduces arbitrary integers.  Everything
here is exact: membership in the half-open parallelotope is decided by
integer comparisons on the adjugate, never by floating point.  One exact
reduction serves every function here: int64 or Python ints, chosen from
the input size, so no input is refused.

Frequency indices and generating-set elements are plain ``tuple[int, ...]``;
pattern points are stored through their integer generator ``g`` with
``y = M^{-1} g``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import AnisoError, SingularMatrix

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]

GRID_MAX = 2**25  # entries of a class table or grid (512 MiB of float64)
GRID_BLOCK = 2**16  # entries of one row block when a grid is streamed (512 KiB of float64)


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _int64_rows(rows: IntMat, name: str) -> np.ndarray:
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise AnisoError(f"{name} has an entry past int64") from None


def _minor(rows: IntMat, i: int, j: int) -> list[list[int]]:
    return [
        [rows[r][c] for c in range(len(rows)) if c != j]
        for r in range(len(rows))
        if r != i
    ]


@dataclass(frozen=True)
class PatternMatrix:
    """A validated regular integer matrix with exact cached companions.

    Attributes
    ----------
    d : int
        Dimension.
    mat : tuple of tuple of int
        The matrix rows.
    det : int
        Exact determinant, nonzero.
    adj : tuple of tuple of int
        Adjugate, satisfying ``mat @ adj == det * I`` exactly.
    m : int
        Pattern cardinality ``|det|``.
    """

    d: int
    mat: IntMat
    det: int
    adj: IntMat
    m: int = field(init=False)
    sign: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", abs(self.det))
        object.__setattr__(self, "sign", 1 if self.det > 0 else -1)

    @property
    def mat_np(self) -> np.ndarray:
        """``M`` as int64; ``AnisoError`` if an entry does not fit."""
        return _int64_rows(self.mat, f"matrix {self.mat}")

    @property
    def adj_np(self) -> np.ndarray:
        """The adjugate as int64; ``AnisoError`` if an entry does not fit."""
        return _int64_rows(self.adj, f"the adjugate of {self.mat}")

    def transposed(self) -> "PatternMatrix":
        """Pattern matrix of ``M^T`` (same determinant, transposed adjugate)."""
        mt = tuple(zip(*self.mat))
        adjt = tuple(zip(*self.adj))
        return PatternMatrix(self.d, tuple(map(tuple, mt)), self.det,
                             tuple(map(tuple, adjt)))

    def inv_apply(self, k: IntVec) -> tuple[Fraction, ...]:
        """``M^{-1} k`` as exact fractions."""
        t = _mat_vec(self.adj, k)
        return tuple(Fraction(ti, self.det) for ti in t)

    @cached_property
    def diagonal_form(self) -> tuple[IntVec, IntMat, IntMat]:
        """``(eps, U, V)``: ``eps > 0`` and unimodular ``U``, ``V`` with
        ``U M V = diag(eps)``, checked exactly.

        Raises ``AnisoError`` if the check fails, or if ``d * max(eps)^2`` or
        ``d * m`` reaches ``2^63``: below that, reducing map and input mod
        ``eps_i`` keeps every class digit and phase term exact in int64.
        """
        eps, u, v = _diagonalize(self.mat)
        umv = [_mat_vec(tuple(zip(*v)), _mat_vec(tuple(zip(*self.mat)), row)) for row in u]
        diag = [[e * (i == j) for j in range(self.d)] for i, e in enumerate(eps)]
        # with prod(eps) = m, det U * det V = +-1, so both are unimodular
        if min(eps) < 1 or prod(eps) != self.m or umv != diag:
            raise AnisoError(f"{(eps, u, v)} is not a diagonal form of {self.mat}")
        if self.d * max(max(eps) ** 2, self.m) >= 2**63:
            raise AnisoError(f"diagonal form {eps} of {self.mat} is too large "
                             "for exact int64 class labels")
        return eps, u, v


def _mat_vec(rows: IntMat, v: IntVec) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def _diagonalize(mat: IntMat) -> tuple[IntVec, IntMat, IntMat]:
    """``(eps, U, V)`` with ``U M V = diag(eps)``, by row and column
    elimination around the smallest nonzero pivot, in Python ints.  The
    ``eps_i`` need not divide each other: any diagonal form will do."""
    d = len(mat)
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    v = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(d):
        # remainders are smaller than the pivot, so this ends; once row and
        # column k are clear, a[k][k] != 0 because M is regular
        while any(a[i][k] or a[k][i] for i in range(k + 1, d)):
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, d)
                          for j in range(k, d) if a[i][j])
            a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
            for r in a + v:
                r[k], r[j] = r[j], r[k]
            for i in range(k + 1, d):
                q = a[i][k] // a[k][k]
                a[i], u[i] = ([x - q * y for x, y in zip(r[i], r[k])] for r in (a, u))
            for j in range(k + 1, d):
                q = a[k][j] // a[k][k]
                for r in a + v:
                    r[j] -= q * r[k]
        if a[k][k] < 0:
            a[k], u[k] = [-x for x in a[k]], [-x for x in u[k]]
    return tuple(a[k][k] for k in range(d)), tuple(map(tuple, u)), tuple(map(tuple, v))


def validate_matrix(raw) -> PatternMatrix:
    """Validate a square integer matrix and compute det/adjugate exactly.

    Raises
    ------
    SingularMatrix
        If the determinant is zero.
    """
    rows = [[int(x) for x in row] for row in raw]
    d = len(rows)
    if d == 0:
        raise ValueError("matrix is empty")
    if any(len(r) != d for r in rows):
        raise ValueError("matrix must be square")
    for row, raw_row in zip(rows, raw):
        for x, rx in zip(row, raw_row):
            if x != rx:
                raise ValueError("matrix entries must be integers")
    det = _det_bareiss(rows)
    if det == 0:
        raise SingularMatrix(f"matrix {rows} is singular")
    if d == 1:
        adj = ((1,),)
    else:
        # adj = cofactor matrix transposed: adj[j][i] = (-1)^{i+j} minor(i,j)
        adj_rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                cof = (-1) ** (i + j) * _det_bareiss(_minor(tuple(map(tuple, rows)), i, j))
                adj_rows[j][i] = cof
        adj = tuple(tuple(r) for r in adj_rows)
    pm = PatternMatrix(d, tuple(tuple(r) for r in rows), det, adj)
    for i in range(d):
        col = _mat_vec(pm.mat, tuple(adj[j][i] for j in range(d)))
        if any(col[j] != (det if i == j else 0) for j in range(d)):
            raise AnisoError(f"adjugate of {rows} violates M adj = det I")
    return pm


def class_labels(x, pm: PatternMatrix, transposed: bool = False) -> np.ndarray:
    """Class labels in ``range(m)`` of the rows of an ``(n, d)`` integer
    array: the digits ``U g mod eps`` (``V^T h mod eps`` for frequencies,
    with ``transposed``) as one mixed-radix number, last digit fastest."""
    eps, u, v = pm.diagonal_form
    x = np.asarray(x, dtype=np.int64).reshape(-1, pm.d)
    digits = [(x % e) @ np.array([c % e for c in row], dtype=np.int64) % e
              for row, e in zip(tuple(zip(*v)) if transposed else u, eps)]
    return np.ravel_multi_index(digits, eps)


@lru_cache(maxsize=16)
def canonical_classes(pm: PatternMatrix,
                      transposed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(rows, labels, positions)``: the ``m`` integer vectors
    ``k`` with ``M^{-1} k`` (``M^{-T} k`` with ``transposed``) in
    ``[-1/2, 1/2)^d`` in lexicographic order, the class label of each row,
    and the row of each label.  ``AnisoError`` if ``m`` passes ``GRID_MAX``,
    first, or if a representative leaves the half-open cube or its class."""
    if pm.m > GRID_MAX:
        raise AnisoError(f"m = {pm.m} classes of {pm.mat} pass GRID_MAX = {GRID_MAX}")
    eps, u, v = pm.diagonal_form
    # the map to digits, U or V^T, is unimodular: its inverse is det * adj
    inv = validate_matrix(tuple(zip(*v)) if transposed else u)
    grid = np.indices(eps).reshape(pm.d, -1).T  # row l: the digits of label l
    p = pm.transposed() if transposed else pm
    rows = np.asarray(_reduce_rows(grid @ (inv.det * inv.adj_np).T, p), dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    labels = class_labels(rows, pm, transposed)
    if not np.array_equal(labels, order):  # also catches an int64 overflow above
        raise AnisoError(f"class representatives of {pm.mat} left their classes")
    positions = np.argsort(labels)
    for arr in (rows, labels, positions):
        arr.flags.writeable = False
    return rows, labels, positions


def _shift_rows(ks: np.ndarray, p: PatternMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(z, h)`` with ``h = k - p z`` for each row ``k`` of an ``(n, d)``
    integer array, ``z`` rounding ``p^{-1} k`` so that ``p^{-1} h`` lies in
    ``[-1/2, 1/2)^d``.

    Exact: int64 while ``d^2 (max|k| + 1) max|adj p| max|p| < 2^61`` bounds
    every intermediate, Python ints (``dtype=object``) otherwise.  Raises
    ``AnisoError`` if a result leaves the half-open cube."""
    kmax = max(int(ks.max(initial=0)), -int(ks.min(initial=0)))
    amax, bmax = (max(abs(x) for row in a for x in row) for a in (p.adj, p.mat))
    dtype = np.int64 if p.d**2 * (kmax + 1) * amax * bmax < 2**61 else object
    ks = ks.astype(dtype, copy=False)
    adj, mat = (np.array(a, dtype=dtype) for a in (p.adj, p.mat))
    z = (2 * p.sign * (ks @ adj.T) + p.m) // (2 * p.m)
    hs = ks - z @ mat.T
    lim = p.d * bmax  # |h| <= lim in the cube; within it, t below cannot wrap
    t = 2 * p.sign * (hs @ adj.T)  # row i: 2 m p^{-1} h_i
    bad = ~((-lim <= hs) & (hs <= lim) & (-p.m <= t) & (t < p.m)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise AnisoError(f"reduction of {tuple(ks[i].tolist())} mod {p.mat} gave "
                         f"the non-canonical {tuple(hs[i].tolist())}")
    return z, hs


def _reduce_rows(ks: np.ndarray, p: PatternMatrix) -> np.ndarray:
    """The reduced rows ``h`` of :func:`_shift_rows`."""
    return _shift_rows(ks, p)[1]


def _object_rows(*ks: IntVec) -> np.ndarray:
    return np.array([[int(x) for x in k] for k in ks], dtype=object)


def reduce_freq(k: IntVec, pm: PatternMatrix) -> IntVec:
    """Unique ``h`` in the canonical generating set of ``M^T`` with
    ``k = h + M^T z``; exact for integers of any size."""
    return tuple(int(x) for x in _reduce_rows(_object_rows(k), pm.transposed())[0])


def reduce_freq_many(ks: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """:func:`reduce_freq` for the rows of an ``(n, d)`` int64 array."""
    return np.asarray(_reduce_rows(np.asarray(ks, dtype=np.int64), pm.transposed()),
                      dtype=np.int64)


def freq_shifts(ks: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """Exact aliasing shifts ``z`` with ``k = reduce_freq(k) + M^T z`` for the
    rows of an ``(n, d)`` int64 array: int64, or Python ints
    (``dtype=object``) when some shift does not fit in int64."""
    z = _shift_rows(np.asarray(ks, dtype=np.int64), pm.transposed())[0]
    if z.dtype == object and np.abs(z).max(initial=0) < 2**63:
        z = z.astype(np.int64)
    return z


def freq_phase_residues(ks: np.ndarray, gs: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """Residues ``r`` with ``k^T M^{-1} g = r / m (mod 1)``, ``0 <= r < m``.

    ``ks`` is ``(n, d)``, ``gs`` is ``(p, d)``; the result is ``(n, p)``.
    The phase ``e^{-2 pi i k^T y}`` is then ``exp(-2 pi i r / m)``, computed
    from the exact ``sum_i (V^T k)_i (U g)_i / eps_i`` reduced mod 1, so
    large indices lose no accuracy.
    """
    eps = pm.diagonal_form[0]
    a = np.unravel_index(class_labels(ks, pm, transposed=True), eps)
    b = np.unravel_index(class_labels(gs, pm), eps)
    res = np.zeros((len(a[0]), len(b[0])), dtype=np.int64)
    for ai, bi, e in zip(a, b, eps):
        res += np.multiply.outer(ai, bi) % e * (pm.m // e)
    return res % pm.m
