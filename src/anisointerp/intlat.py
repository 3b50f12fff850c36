"""Exact integer arithmetic for patterns of regular integer matrices.

A regular integer matrix ``M`` partitions ``Z^d`` into ``m = |det M|``
congruence classes mod ``M``, and likewise the rational lattice
``M^{-1} Z^d`` into ``m`` classes mod ``Z^d``.  One exact diagonal form
``U M V = diag(eps)`` labels both: a pattern generator ``g`` by the digits
``U g mod eps``, a frequency ``h`` by ``V^T h mod eps``, and the phase is
``h^T M^{-1} g = sum_i (V^T h)_i (U g)_i / eps_i (mod 1)``.  The same form,
computed once per matrix, gives the determinant, the adjugate and the
inverses of the digit maps.  This module enumerates the canonical
representatives inside the half-open cube ``[-1/2, 1/2)^d``, and labels and
reduces arbitrary integers.  Everything here is exact: membership in the
half-open parallelotope is decided by integer comparisons on the adjugate,
never by floating point.  One exact reduction serves every function here:
int64 or Python ints, chosen from the input size, so no input is refused.

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


def _int64_rows(rows: IntMat, name: str) -> np.ndarray:
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise AnisoError(f"{name} has an entry past int64") from None


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
    form : tuple
        ``(eps, U, V, U^{-1}, V^{-1})``: ``U M V = diag(eps)``, ``eps > 0``.  In
        ``eq``, as cached class tables depend on it; not in the per-lookup ``hash``.
    m : int
        Pattern cardinality ``|det|``.
    """

    d: int
    mat: IntMat
    det: int
    adj: IntMat
    form: tuple[IntVec, IntMat, IntMat, IntMat, IntMat] = field(hash=False)
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
        """Pattern matrix of ``M^T``: same determinant, transposed adjugate,
        and the diagonal form ``V^T M^T U^T = diag(eps)``."""
        eps, u, v, u_inv, v_inv = self.form
        return PatternMatrix(self.d, _t(self.mat), self.det, _t(self.adj),
                             (eps, _t(v), _t(u), _t(v_inv), _t(u_inv)))

    def inv_apply(self, k: IntVec) -> tuple[Fraction, ...]:
        """``M^{-1} k`` as exact fractions."""
        t = _mat_vec(self.adj, k)
        return tuple(Fraction(ti, self.det) for ti in t)

    @cached_property
    def diagonal_form(self) -> tuple[IntVec, IntMat, IntMat]:
        """``(eps, U, V)`` of ``form``; ``AnisoError`` if ``d * max(eps)^2``
        or ``d * m`` reaches ``2^63``: below that, reducing map and input mod
        ``eps_i`` keeps every class digit and phase term exact in int64."""
        eps = self.form[0]
        if self.d * max(max(eps) ** 2, self.m) >= 2**63:
            raise AnisoError(f"diagonal form {eps} of {self.mat} is too large "
                             "for exact int64 class labels")
        return self.form[:3]


def _t(rows: IntMat) -> IntMat:
    return tuple(zip(*rows))


def _mul(a: IntMat, b: IntMat) -> IntMat:
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*b)) for r in a)


def _mat_vec(rows: IntMat, v: IntVec) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def _diagonalize(mat: IntMat) -> tuple[IntVec, IntMat, IntMat, int]:
    """``(eps, U, V, det U * det V)`` with ``U M V = diag(eps)``, by row and
    column elimination around the smallest nonzero pivot, in Python ints.
    The ``eps_i`` need not divide each other: any diagonal form will do."""
    d = len(mat)
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    v = [[int(i == j) for j in range(d)] for i in range(d)]
    sign = 1
    for k in range(d):
        # remainders are smaller than the pivot, so this ends; once row and
        # column k are clear, a[k][k] == 0 only if row k is, so M is singular
        while any(a[i][k] or a[k][i] for i in range(k + 1, d)):
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, d)
                          for j in range(k, d) if a[i][j])
            sign *= (-1) ** ((i != k) + (j != k))  # each real swap flips it
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
            a[k], u[k], sign = [-x for x in a[k]], [-x for x in u[k]], -sign
    return tuple(a[k][k] for k in range(d)), tuple(map(tuple, u)), tuple(map(tuple, v)), sign


def validate_matrix(raw) -> PatternMatrix:
    """Validate a square integer matrix and read it all off one exact diagonal
    form ``U M V = diag(eps)``: ``U^{-1} = M V diag(eps)^{-1}`` and ``V^{-1} =
    diag(eps)^{-1} U M``, integral only if ``U``, ``V`` are unimodular, ``det =
    det U det V prod(eps)`` and ``adj = det V diag(eps)^{-1} U``.

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
    if any(x != rx for row, raw_row in zip(rows, raw) for x, rx in zip(row, raw_row)):
        raise ValueError("matrix entries must be integers")
    mat = tuple(map(tuple, rows))
    eps, u, v, sign = _diagonalize(mat)
    if 0 in eps:
        raise SingularMatrix(f"matrix {rows} is singular")
    mv, um = _mul(mat, v), _mul(u, mat)
    u_inv = tuple(tuple(x // e for x, e in zip(r, eps)) for r in mv)
    v_inv = tuple(tuple(x // e for x in r) for r, e in zip(um, eps))
    if (any(x % e for r in mv for x, e in zip(r, eps))
            or any(x % e for r, e in zip(um, eps) for x in r)):
        raise AnisoError(f"{(eps, u, v)} is not a diagonal form of {mat}")
    det = sign * prod(eps)
    adj = _mul(v, tuple(tuple(det // e * x for x in r) for r, e in zip(u, eps)))
    # M adj = det I also proves U M V = diag(eps)
    if _mul(mat, adj) != tuple(tuple(det * (i == j) for j in range(d)) for i in range(d)):
        raise AnisoError(f"adjugate of {rows} violates M adj = det I")
    return PatternMatrix(d, mat, det, adj, (eps, u, v, u_inv, v_inv))


def class_labels(x, pm: PatternMatrix, transposed: bool = False) -> np.ndarray:
    """Class labels in ``range(m)`` of the rows of an ``(n, d)`` integer
    array: the digits ``U g mod eps`` (``V^T h mod eps`` for frequencies,
    with ``transposed``) as one mixed-radix number, last digit fastest."""
    eps, u, v = pm.diagonal_form
    x = np.asarray(x, dtype=np.int64).reshape(-1, pm.d)
    digits = [(x % e) @ np.array([c % e for c in row], dtype=np.int64) % e
              for row, e in zip(_t(v) if transposed else u, eps)]
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
    eps = pm.diagonal_form[0]
    grid = np.indices(eps).reshape(pm.d, -1).T  # row l: the digits of label l
    p = pm.transposed() if transposed else pm  # U of p maps to the digits
    inv = _int64_rows(p.form[3], f"the digit map inverse of {pm.mat}")
    rows = np.asarray(_reduce_rows(grid @ inv.T, p), dtype=np.int64)
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


def reduce_freq(k: IntVec, pm: PatternMatrix) -> IntVec:
    """Unique ``h`` in the canonical generating set of ``M^T`` with
    ``k = h + M^T z``; exact for integers of any size."""
    ks = np.array([[int(x) for x in k]], dtype=object)
    return tuple(int(x) for x in _reduce_rows(ks, pm.transposed())[0])


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
