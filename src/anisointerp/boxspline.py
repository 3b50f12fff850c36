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
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AnisoError, TailTooLarge
from .intlat import PatternMatrix
from .ptransform import GRID_MAX, AliasGrid, check_reach, gset_freqs
from .spectral import inv_t_apply

TAIL_BLOCK = 2**11  # points of the shells bounded by one _alias_bound call


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
        dirs = self.directions()
        if len(self.p) != len(dirs):
            raise ValueError(
                f"multiplicity vector has {len(self.p)} entries, "
                f"family needs {len(dirs)}"
            )
        if any(pj < 1 for pj in self.p):
            raise ValueError("all multiplicities must be >= 1")

    def directions(self) -> np.ndarray:
        """Direction vectors as an ``(ndir, d)`` integer array."""
        d = self.d
        dirs = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                v = [0] * d
                v[i] = v[j] = 1
                dirs.append(tuple(v))
        if self.family == "full":
            for i in range(d):
                for j in range(i + 1, d):
                    v = [0] * d
                    v[i], v[j] = 1, -1
                    dirs.append(tuple(v))
        elif self.family != "simplex":
            raise ValueError(f"unknown family {self.family!r}")
        return np.array(dirs, dtype=np.int64)


def _int_box(d: int, radius: int) -> np.ndarray:
    """Every ``z`` with ``||z||_inf <= radius``, in lexicographic order."""
    side = 2 * radius + 1
    return np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - radius


def _int_shell(d: int, r: int) -> np.ndarray:
    """Every ``z`` with ``||z||_inf = r``, ``(2r+1)^d - (2r-1)^d`` rows.

    Block ``i`` holds the points whose first coordinate of magnitude ``r``
    is ``z_i``, so the blocks are disjoint and only the shell is stored.
    """
    if r == 0:
        return np.zeros((1, d), dtype=np.int64)
    blocks = []
    for i in range(d):
        shape = (2 * r - 1,) * i + (2,) + (2 * r + 1,) * (d - 1 - i)
        z = np.indices(shape, dtype=np.int64).reshape(d, -1).T
        z[:, :i] -= r - 1
        z[:, i] = 2 * r * z[:, i] - r
        z[:, i + 1:] -= r
        blocks.append(z)
    return np.concatenate(blocks)


def _alias_bound(z: np.ndarray, spec: BoxSplineSpec) -> np.ndarray:
    """Upper bound on ``sup_y |hat(2 pi (y + z))|`` over the unit half-cube.

    Per direction ``v``: ``|sinc(pi (y + z)^T v)| <= 1 / (pi (|z^T v| - w))``
    with ``w = sum|v| / 2`` whenever ``|z^T v| > w``, else 1.  For integer
    ``z`` each factor is at most 1, since then ``|z^T v| - w >= 1/2``.
    """
    out = np.ones(len(z))
    for direction, pj in zip(spec.directions(), spec.p):
        t = np.abs(z @ direction)
        w = np.abs(direction).sum() / 2.0
        factor = np.ones(len(z))
        mask = t > w
        factor[mask] = (np.pi * (t[mask] - w)) ** (-float(pj))
        out *= factor
    return out


def _basis_margin(spec: BoxSplineSpec) -> float:
    """``eps = min 1 / ||B^{-1}||_inf`` over the bases ``B`` (as rows) drawn
    from the directions: if ``||z||_inf = r``, the directions with
    ``|z^T v| < eps r`` contain no basis, so they lie in one hyperplane."""
    dirs = spec.directions().astype(float)
    bases = dirs[np.array(list(combinations(range(len(dirs)), spec.d)))]
    bases = bases[np.abs(np.linalg.det(bases)) > 0.5]
    return 1.0 / float(np.abs(np.linalg.inv(bases)).sum(axis=2).max())


def _shell_sums(spec: BoxSplineSpec, first: int, last: int):
    """Yield the sum of :func:`_alias_bound` over each shell ``||z||_inf = r``,
    ``r = first, ..., last`` in order.  One :func:`_alias_bound` call takes
    the fewest next shells that hold ``TAIL_BLOCK`` points (or all that are
    left); each shell's sum is over its own slice, so it equals the sum
    over that shell alone."""
    r = first
    while r <= last:
        shells, size = [], 0
        while r <= last and size < TAIL_BLOCK:
            shells.append(_int_shell(spec.d, r))
            size += len(shells[-1])
            r += 1
        ends = np.cumsum([len(z) for z in shells])[:-1]
        for part in np.split(_alias_bound(np.concatenate(shells), spec), ends):
            yield float(part.sum())


def periodization_tail(spec: BoxSplineSpec, pm: PatternMatrix, radius: int,
                       tail_eps: float | None = None) -> float:
    """Certified upper bound on the per-class magnitude sum of the
    coefficients dropped outside ``||z||_inf <= radius``.

    Sums the per-point bound :func:`_alias_bound` exactly over the shells
    ``||z||_inf = radius + 1, ..., R``, shell by shell, and bounds the
    shells past ``R`` by an integral: with ``o = sf_order(spec)``, ``eps``
    from :func:`_basis_margin` and ``w = max ||v||_1 / 2``, on a shell
    ``r > R`` the sinc factors below ``1 / (pi (eps r - w))`` have total
    multiplicity at least ``o``, so once ``pi (eps R - w) >= 1`` the rest is at
    most ``2d (2R+1)^{d-1} R (pi (eps R - w))^{-o} / (o - d)``.  Infinite
    when ``o <= d``, where that comparison does not converge.  The shells
    are bounded in blocks by :func:`_shell_sums` and added one at a time,
    so ``R`` is the same as for a shell-by-shell loop; the shells of the
    last block past ``R`` are bounded but not added.

    With ``tail_eps`` the sum stops as soon as it decides ``<= tail_eps``:
    at the first ``R`` whose bound is within it, or once the partial sum
    alone exceeds it.  Otherwise it stops at ``R = radius + 512`` (``d = 2``)
    or ``radius + 64``.  The value returned is the bound at that ``R``.
    """
    d, order = spec.d, sf_order(spec)
    if order <= d:
        return math.inf
    eps = _basis_margin(spec)
    w = float(np.abs(spec.directions()).sum(axis=1).max()) / 2.0
    cap = radius + (512 if d == 2 else 64)
    sums = _shell_sums(spec, radius + 1, cap)
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

    The transform is a product over the directions ``v`` of
    ``sinc(pi (y_h^T v + z^T v))^{p_v}``, each an ``(m, 2 ||v||_1 radius + 1)``
    table over the integers ``|n| <= ||v||_1 radius``.  Laid out on the box
    ``(m, 2 radius + 1, ..., 2 radius + 1)``, C order over ``z + radius``,
    the factor at ``n = z^T v`` is a strided view of that table
    (:func:`_box_view`); the views are multiplied into one output array in
    direction order, which is divided by ``m`` in place.

    Raises
    ------
    ValueError
        Unless ``radius >= 1`` and ``tail_eps > 0`` (``inf`` accepts any tail).
    TailTooLarge
        If :func:`periodization_tail`, the certified bound on the per-class
        sum of dropped coefficient magnitudes, exceeds ``tail_eps``.
    AnisoError
        If the grid passes ``GRID_MAX`` entries or a mode could leave int64
        (``max|h| + d radius max|M| >= 2^63``), checked before any work.
    """
    if not radius >= 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if tail_eps is None or not tail_eps > 0:
        raise ValueError(f"tail_eps must be > 0, got {tail_eps}")
    if spec.d != pm.d:
        raise ValueError("spline dimension and matrix dimension differ")
    if pm.m * (2 * radius + 1) ** pm.d > GRID_MAX:
        raise AnisoError(f"radius {radius} needs a grid of over {GRID_MAX} entries")
    check_reach(pm, radius)
    tail = periodization_tail(spec, pm, radius, tail_eps)
    if not tail <= tail_eps:
        raise TailTooLarge(f"tail bound {tail:.3e} exceeds requested {tail_eps:.3e}")
    y = inv_t_apply(gset_freqs(pm), pm)
    factors = []
    for v, pj in zip(spec.directions(), spec.p):
        nmax = int(np.abs(v).sum()) * radius
        table = np.sinc((y @ v)[:, None] + np.arange(-nmax, nmax + 1)) ** pj
        factors.append(_box_view(table, v, radius))
    hat = np.array(factors[0], order="C")
    for factor in factors[1:]:
        hat *= factor
    hat /= pm.m
    return AliasGrid(pm, _int_box(pm.d, radius), hat.reshape(pm.m, -1), radius)


def sf_order(spec: BoxSplineSpec) -> int:
    """Strang-Fix (approximation) order of the box spline in any dimension.

    The total multiplicity minus the largest total multiplicity of the
    directions in one hyperplane (de Boor, Hollig, Riemenschneider, *Box
    Splines*, 1993); it is enough to check the hyperplanes spanned by
    ``d - 1`` directions.  For the bivariate 3-directional spline this is
    the minimum pairwise sum ``min(p_i + p_j)``.
    """
    dirs, p = spec.directions().astype(float), np.array(spec.p)
    n, d = dirs.shape
    most = 0
    for sub in combinations(range(n), d - 1):
        # det[sub; v] = 0 exactly when v lies in the span of sub
        stack = np.concatenate([np.broadcast_to(dirs[list(sub)], (n, d - 1, d)),
                                dirs[:, None, :]], axis=1)
        inside = np.abs(np.linalg.det(stack)) < 0.5
        if not inside.all():  # sub spans a hyperplane
            most = max(most, int(p[inside].sum()))
    return int(p.sum()) - most
