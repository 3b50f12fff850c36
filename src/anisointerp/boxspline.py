"""Fourier transforms of multi-directional box splines and their periodization.

For dimension 2 these are the classical 3-directional box splines with
directions ``e1, e2, e1+e2``; in general dimension the simplex family uses
the ``d(d+1)/2`` directions ``e_j`` and ``e_i + e_j`` (i < j).  The full
``d^2`` family additionally includes ``e_i - e_j``; its periodization has
vanishing folded coefficients, which exercises the incorrect-interpolation
fallback.  Everything stays in the Fourier domain: a spline enters the
pipeline only through its transform values on the dual lattice, which
:func:`periodize` returns as a class x shift :class:`AliasGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AnisoError, TailTooLarge
from .intlat import PatternMatrix
from .ptransform import GRID_MAX, AliasGrid, _row_slices, check_reach, gset_freqs
from .spectral import inv_t_apply

TAIL_BLOCK = 2**11  # points of the shells built and summed in one pass
SUBSETS_MAX = 10**5  # direction subsets that _constants may enumerate (d = 6 simplex: 74 613)


@dataclass(frozen=True)
class BoxSplineSpec:
    """Dimension, multiplicity vector, and direction family of a box spline.

    ``family`` is ``"simplex"`` (``d(d+1)/2`` directions) or ``"full"``
    (``d^2`` directions, adding the differences ``e_i - e_j``).
    """

    d: int
    p: tuple[int, ...]
    family: str = "simplex"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"box spline dimension must be >= 1, got {self.d}")
        dirs = self.directions()
        if len(self.p) != len(dirs):
            raise ValueError(
                f"multiplicity vector has {len(self.p)} entries, "
                f"family needs {len(dirs)}"
            )
        if any(pj < 1 for pj in self.p):
            raise ValueError("all multiplicities must be >= 1")

    def directions(self) -> np.ndarray:
        """Direction vectors as an ``(ndir, d)`` integer array: the ``e_j``,
        then the ``e_i + e_j`` and (full family) the ``e_i - e_j``, ``i < j``."""
        signs = {"simplex": (1,), "full": (1, -1)}.get(self.family)
        if signs is None:
            raise ValueError(f"unknown family {self.family!r}")
        eye = np.eye(self.d, dtype=np.int64)
        i, j = np.array(list(combinations(range(self.d), 2)), dtype=int).reshape(-1, 2).T
        return np.concatenate([eye, *(eye[i] + s * eye[j] for s in signs)])


def _int_box(d: int, radius: int) -> np.ndarray:
    """Every ``z`` with ``||z||_inf <= radius``, in lexicographic order."""
    side = 2 * radius + 1
    return np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - radius


def _alias_bound(z: np.ndarray, spec: BoxSplineSpec) -> np.ndarray:
    """Upper bound on ``sup_y |hat(2 pi (y + z))|`` over the unit half-cube.

    Per direction ``v``: ``|sinc(pi (y + z)^T v)| <= 1 / (pi (|z^T v| - w))``
    with ``w = sum|v| / 2`` whenever ``|z^T v| > w``, else 1.  For integer
    ``z`` each factor is at most 1, since then ``|z^T v| - w >= 1/2``.  The
    ``z^T v`` are one BLAS product in floats, exact below ``2^53``.
    """
    dirs, half = _constants(spec)[:2]
    out = np.ones(len(z))
    for t, w, pj in zip(np.abs(dirs.astype(float) @ z.T.astype(float)), half, spec.p):
        factor = np.ones(len(z))
        mask = t > w
        factor[mask] = (np.pi * (t[mask] - w)) ** (-float(pj))
        out *= factor
    return out


@cache
def _constants(spec: BoxSplineSpec) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Computed once per spec: the directions and their ``||v||_1 / 2``
    (read-only), :func:`sf_order`, and ``eps = min 1 / ||B^{-1}||_inf`` over
    the bases ``B`` (as rows) among the directions: if ``||z||_inf = r``, the
    directions with ``|z^T v| < eps r`` hold no basis, so lie in a hyperplane.
    ``AnisoError``, before enumerating, past ``SUBSETS_MAX`` subsets of
    ``d - 1`` and of ``d`` directions."""
    dirs = spec.directions()
    (n, d), fdirs, p, most = dirs.shape, dirs.astype(float), np.array(spec.p), 0
    count = math.comb(n, d - 1) + math.comb(n, d)
    if count > SUBSETS_MAX:
        raise AnisoError(f"{n} directions in d = {d} have {count} subsets of d - 1 and d "
                         f"directions to enumerate, past SUBSETS_MAX = {SUBSETS_MAX}")
    half = np.abs(dirs).sum(axis=1) / 2.0
    dirs.flags.writeable = half.flags.writeable = False
    for sub in combinations(range(n), d - 1):
        # det[sub; v] = 0 exactly when v lies in the span of sub
        stack = np.concatenate([np.broadcast_to(fdirs[list(sub)], (n, d - 1, d)),
                                fdirs[:, None, :]], axis=1)
        inside = np.abs(np.linalg.det(stack)) < 0.5
        if not inside.all():  # sub spans a hyperplane
            most = max(most, int(p[inside].sum()))
    bases = fdirs[np.array(list(combinations(range(n), d)))]
    bases = bases[np.abs(np.linalg.det(bases)) > 0.5]
    eps = 1.0 / float(np.abs(np.linalg.inv(bases)).sum(axis=2).max())
    return dirs, half, int(p.sum()) - most, eps


def _shell_sums(d: int, first: int, last: int, term):
    """Yield the sum of ``term`` over each shell ``||z||_inf = r``, ``r = first
    >= 1, ..., last``.  ``term`` maps the ``(n, d)`` points of a block, the
    fewest shells holding ``TAIL_BLOCK`` points (or all left), to ``n``
    values, summed per shell slice, so each sum is the shell's alone.  A
    block is one pass: shell ``r`` is ``d`` parts in C order, part ``i`` with
    ``|z_k| < r`` before ``i``, ``z_i = -r, r`` and ``|z_k| <= r`` after."""
    while first <= last:
        sizes = []
        while first <= last and sum(sizes) < TAIL_BLOCK:
            sizes.append((2 * first + 1) ** d - (2 * first - 1) ** d)
            first += 1
        r = np.arange(first - len(sizes), first).repeat(d)  # part (r, i), r-major
        i, axis = np.arange(len(r)) % d, np.arange(d)[:, None]
        runs = np.where(axis == i, 2, 2 * r + 1 - 2 * (axis < i))  # z_k's run length, per part
        step, low = np.where(axis == i, 2 * r, 1), (axis < i) - r
        high = low + step * (runs - 1)
        cols, part, n = [], np.arange(len(r)), 1
        for k in range(d):
            part = part.repeat(n)  # the part of each run of z_k
            n = runs[k, part]
            inc = step[k, part].repeat(n)  # a run's start jumps from the last one's end
            inc[np.cumsum(n) - n] = low[k, part] - np.concatenate(([0], high[k, part][:-1]))
            cols = [c.repeat(n) for c in cols] + [inc.cumsum()]
        values, ends = term(np.array(cols).T), np.cumsum(sizes)
        for start, end in zip(ends - sizes, ends):
            yield float(values[start:end].sum())


def periodization_tail(spec: BoxSplineSpec, pm: PatternMatrix, radius: int,
                       tail_eps: float | None = None) -> float:
    """Certified upper bound on the per-class magnitude sum of the
    coefficients dropped outside ``||z||_inf <= radius``.

    Sums the per-point bound :func:`_alias_bound` exactly over the shells
    ``||z||_inf = radius + 1, ..., R``, shell by shell, and bounds the
    shells past ``R`` by an integral: with ``o = sf_order(spec)``, ``eps``
    from :func:`_constants` and ``w = max ||v||_1 / 2``, on a shell
    ``r > R`` the sinc factors below ``1 / (pi (eps r - w))`` have total
    multiplicity at least ``o``, so once ``pi (eps R - w) >= 1`` the rest is at
    most ``2d (2R+1)^{d-1} R (pi (eps R - w))^{-o} / (o - d)``.  Infinite
    when ``o <= d``, where that comparison does not converge.  The shells
    are built and bounded in blocks by :func:`_shell_sums` and added one
    at a time, so ``R`` is the same as for a shell-by-shell loop; the
    shells of the last block past ``R`` are bounded but not added.

    With ``tail_eps`` the sum stops as soon as it decides ``<= tail_eps``:
    at the first ``R`` whose bound is within it, or once the partial sum
    alone exceeds it.  Otherwise it stops at ``R = radius + 512`` (``d = 2``)
    or ``radius + 64``.  The value returned is the bound at that ``R``.
    """
    d, (_, half, order, eps) = spec.d, _constants(spec)
    if order <= d:
        return math.inf
    w = float(half.max())
    cap = radius + (512 if d == 2 else 64)
    sums = _shell_sums(d, radius + 1, cap, lambda z: _alias_bound(z, spec))
    partial, r = 0.0, radius
    while True:
        x = math.pi * (eps * r - w)
        rest = math.inf
        if x >= 1.0:
            rest = 2 * d * (2 * r + 1) ** (d - 1) * r * x ** (-order) / (order - d)
        bound = partial + rest / pm.m
        if r == cap or (tail_eps is not None and (bound <= tail_eps or partial > tail_eps)):
            return bound
        r += 1
        partial += next(sums) / pm.m


def _box_view(table: np.ndarray, v: np.ndarray, radius: int) -> np.ndarray:
    """Read-only view ``f[h, a_1, ..., a_d] = table[h, z^T v + ||v||_1 radius]``
    of an ``(m, 2 ||v||_1 radius + 1)`` table, ``z = a - radius`` over the box
    ``0 <= a_k <= 2 radius``: along axis ``k`` the stride is ``v_k`` columns,
    reversed where ``v_k < 0`` and broadcast where ``v_k = 0``.  Its columns
    run from 0 at the corner ``z_k = -radius sign(v_k)`` to
    ``2 ||v||_1 radius`` at the opposite one, so it stays inside the table."""
    row, col = table.strides
    start = 2 * radius * int(-v[v < 0].sum())
    return as_strided(table[:, start:], (len(table),) + (2 * radius + 1,) * len(v),
                      (row, *(int(vk) * col for vk in v)), writeable=False)


def periodize(spec: BoxSplineSpec, pm: PatternMatrix, radius: int,
              tail_eps: float) -> AliasGrid:
    """Coefficients ``c_{h + M^T z} = hat(2 pi (y_h + z)) / m`` of the
    periodized spline, ``y_h = M^{-T} h``, on the real grid of every
    canonical ``h`` and every ``||z||_inf <= radius`` (exact zeros included,
    so shell coverage stays checkable); the grid ``window`` is the radius.
    Only the checks and the tail bound run here: each walk of the grid makes
    its row blocks afresh, each direction's factor a table of ``sinc(pi
    (y_h^T v + n))^{p_v}`` over the block's ``h`` and ``|n| <= ||v||_1
    radius`` read at ``n = z^T v`` (:func:`_box_view`), and nothing of size
    ``m * nz`` exists until ``coeffs`` is read.

    Raises ``ValueError`` unless ``radius >= 1`` and ``tail_eps > 0`` (``inf``
    accepts any tail); ``TailTooLarge`` if :func:`periodization_tail`, the
    certified bound on the per-class sum of dropped coefficient magnitudes,
    exceeds ``tail_eps``; ``AnisoError``, before any work, if the box holds
    more than ``GRID_MAX`` shifts or a mode could leave int64 (``max|h| + d
    radius max|M| >= 2^63``); ``coeffs`` refuses past ``GRID_MAX`` entries.
    """
    if not radius >= 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if tail_eps is None or not tail_eps > 0:
        raise ValueError(f"tail_eps must be > 0, got {tail_eps}")
    if spec.d != pm.d:
        raise ValueError("spline dimension and matrix dimension differ")
    if (2 * radius + 1) ** pm.d > GRID_MAX:
        raise AnisoError(f"radius {radius} needs over {GRID_MAX} shifts")
    check_reach(pm, radius)
    tail = periodization_tail(spec, pm, radius, tail_eps)
    if not tail <= tail_eps:
        raise TailTooLarge(f"tail bound {tail:.3e} exceeds requested {tail_eps:.3e}")
    y = inv_t_apply(gset_freqs(pm), pm)
    # y^T v of every class at once, so a value does not depend on its block
    dirs = [(v, y @ v, pj) for v, pj in zip(_constants(spec)[0], spec.p)]
    shifts = _int_box(pm.d, radius)

    def blocks():
        for rows in _row_slices(pm.m, len(shifts)):
            factors = []
            for v, yv, pj in dirs:
                nmax = int(np.abs(v).sum()) * radius
                table = np.sinc(yv[rows, None] + np.arange(-nmax, nmax + 1)) ** pj
                factors.append(_box_view(table, v, radius))
            hat = np.empty(factors[0].shape)
            np.multiply(factors[0], factors[1] if len(factors) > 1 else 1.0, out=hat)
            for factor in factors[2:]:
                hat *= factor
            hat /= pm.m
            yield rows, hat.reshape(len(hat), -1)
    return AliasGrid(pm, shifts, blocks, radius)


def sf_order(spec: BoxSplineSpec) -> int:
    """Strang-Fix (approximation) order of the box spline in any dimension.

    The total multiplicity minus the largest total multiplicity of the
    directions in one hyperplane (de Boor, Hollig, Riemenschneider, *Box
    Splines*, 1993); it is enough to check the hyperplanes spanned by
    ``d - 1`` directions.  For the bivariate 3-directional spline this is
    the minimum pairwise sum ``min(p_i + p_j)``.  Computed once per spec.
    """
    return _constants(spec)[2]
