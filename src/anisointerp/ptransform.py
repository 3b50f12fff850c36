"""Fourier series, flat or as a class x shift grid, the pattern discrete
Fourier transform and the aliasing (folding) operator; on the grid
``c_{h + M^T z}`` folding is a row sum and a shell of shifts a set of columns.

The transform maps values on the canonical pattern to coefficients on the
canonical generating set through the characters ``e^{-2 pi i h^T y}``.  By
the diagonal form of :mod:`anisointerp.intlat` it is a ``d``-dimensional
FFT of shape ``eps``, ``O(m log m)``, between values placed by class label.
The dense Fourier matrix uses the exact rational phase reduced mod 1, so
large frequency indices suffer no phase drift.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnisoError
from .intlat import (GRID_BLOCK, GRID_MAX, PatternMatrix, canonical_classes, class_labels,
                     freq_phase_residues, freq_shifts)


class FourierSeries:
    """A finite map from frequency indices to complex Fourier coefficients,
    tied to no pattern: parallel arrays ``freqs`` (``(n, d)`` int64) and
    ``coeffs`` (``(n,)`` complex128), unstored indices zero.  Its rows are
    unique when built by ``+`` or by an :class:`AliasGrid`."""

    __slots__ = ("freqs", "coeffs")

    def __init__(self, freqs, coeffs):
        freqs = np.asarray(freqs)
        if freqs.dtype.kind not in "iu":  # a float or object index must be whole
            with np.errstate(invalid="ignore"):
                ints = freqs.astype(np.int64)
            if not (ints == freqs).all():
                raise ValueError("frequency indices must be integers")
            freqs = ints
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
        coeffs = np.asarray(coeffs, dtype=np.complex128).ravel()
        if len(freqs) != len(coeffs):
            raise ValueError("freqs and coeffs length mismatch")
        self.freqs = freqs
        self.coeffs = coeffs

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def prune(self) -> "FourierSeries":
        """The series without its zero coefficients."""
        keep = np.abs(self.coeffs) > 0
        return FourierSeries(self.freqs[keep], self.coeffs[keep])

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        return FourierSeries(*merge_rows(np.vstack([self.freqs, other.freqs]),
                                         np.concatenate([self.coeffs, other.coeffs])))


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an ``(n, d)`` int64 array as one key (entries big-endian,
    sign bit flipped): equal as the rows are, ordered as they are lexicographically."""
    flipped = np.ascontiguousarray(rows, dtype=np.int64).view(np.uint64) ^ np.uint64(2**63)
    return flipped.astype(">u8").view(f"V{8 * flipped.shape[1]}").ravel()


def check_unique_rows(f: FourierSeries) -> None:
    """``ValueError`` if ``f`` stores a frequency row twice."""
    keys = np.sort(row_keys(f.freqs))  # np.unique would import numpy.ma
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("the series has repeated frequency rows")


def merge_rows(freqs: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of ``freqs`` in lexicographic order, with the ``(n,)`` or
    ``(n, c)`` coefficients of repeated rows summed in their original order."""
    if len(freqs) == 0:
        return freqs, coeffs
    order = np.lexsort(freqs.T[::-1])
    freqs, coeffs = freqs[order], coeffs[order]
    first = np.ones(len(freqs), dtype=bool)
    first[1:] = (freqs[1:] != freqs[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return freqs[starts], np.add.reduceat(coeffs, starts)


def check_reach(pm: PatternMatrix, radius: int) -> None:
    """``AnisoError`` unless ``max|h| + d radius max|M| < 2^63`` (int64 modes)."""
    reach = (int(np.abs(gset_freqs(pm)).max())
             + pm.d * radius * max(abs(x) for row in pm.mat for x in row))
    if reach >= 2**63:
        raise AnisoError(f"modes h + M^T z of {pm.mat} up to ||z|| = {radius} "
                         f"reach {reach}, past int64")


def _row_slices(m: int, nz: int):
    """The row slices, of about ``GRID_BLOCK`` entries (at least one row), in
    which an ``(m, nz)`` grid is streamed."""
    step = max(1, GRID_BLOCK // nz)
    return (slice(start, start + step) for start in range(0, m, step))


@dataclass(frozen=True, eq=False)
class AliasGrid:
    """A kernel on the pattern of ``pm``, the ``(m, nz)`` grid ``coeffs[h, z]
    = c_{h + M^T z}``: rows follow :func:`gset_freqs`, columns the distinct
    ``(nz, d)`` ``shifts`` in lexicographic order, ``z = 0`` among them, as
    float64 for a real kernel and complex128 otherwise.  Every nonzero
    coefficient with ``||z||_inf <= window`` is stored (``None``: no shell
    is declared complete).  ``source`` is the held grid, whose blocks are
    views never written to, or a function that makes the row blocks of
    :func:`_row_slices` afresh on each call, each its reader's to keep or
    write; ``coeffs`` assembles them on first read, refusing first (with
    ``AnisoError``) a grid past ``GRID_MAX`` entries."""

    pm: PatternMatrix
    shifts: np.ndarray
    source: np.ndarray | Callable[[], Iterator[tuple[slice, np.ndarray]]]
    window: float | None = None

    def __len__(self) -> int:
        return self.pm.m * len(self.shifts)

    @cached_property
    def coeffs(self) -> np.ndarray:
        if not callable(self.source):
            return self.source
        if len(self) > GRID_MAX:
            raise AnisoError(f"{self.pm.m} x {len(self.shifts)} grid past GRID_MAX = {GRID_MAX}")
        grid = None
        for rows, block in self.row_blocks():
            if grid is None:
                grid = np.empty((self.pm.m, len(self.shifts)), dtype=block.dtype)
            grid[rows] = block
        return grid

    @cached_property
    def series(self) -> FourierSeries:
        """The flat view, ``h + M^T z`` ``h``-major; ``AnisoError`` past int64
        or, before ``ks`` is built, past ``GRID_MAX`` entries."""
        check_reach(self.pm, int(np.abs(self.shifts).max()))
        coeffs = self.coeffs.ravel()
        ks = gset_freqs(self.pm)[:, None, :] + (self.shifts @ self.pm.mat_np)[None]
        return FourierSeries(ks.reshape(-1, self.pm.d), coeffs)

    def row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, coeffs[rows])`` over :func:`_row_slices`, each block
        C-contiguous, so a sum along its rows adds in the same order
        whatever the block's size."""
        if callable(self.source):
            return self.source()
        return ((rows, np.ascontiguousarray(self.source[rows]))
                for rows in _row_slices(*self.source.shape))

    @classmethod
    def from_series(cls, f: FourierSeries, pm: PatternMatrix,
                    window: float | None = None) -> "AliasGrid":
        """The kernel ``f`` on the pattern of ``pm``, complete up to ``window``:
        each mode labelled, shifted and added into its entry once, a real grid
        when ``f`` has no imaginary part; ``AnisoError`` if a shift leaves
        int64 or the grid passes ``GRID_MAX``."""
        labels, z = freq_class_indices(f.freqs, pm), freq_shifts(f.freqs, pm)
        if z.dtype == object:
            k = f.freqs[np.argmax(np.abs(z).max(axis=1))]
            raise AnisoError(f"aliasing shift of mode {tuple(k.tolist())} "
                             "does not fit in int64")
        z = np.vstack([np.zeros((1, pm.d), dtype=np.int64), z])
        order = np.lexsort(z.T[::-1])
        new = np.ones(len(z), dtype=bool)
        new[1:] = (z[order[1:]] != z[order[:-1]]).any(axis=1)
        cols = np.empty(len(z), dtype=np.int64)
        cols[order] = np.cumsum(new) - 1
        nz = int(new.sum())
        if pm.m * nz > GRID_MAX:
            raise AnisoError(f"{len(f)} modes need an {pm.m} x {nz} grid, past {GRID_MAX}")
        values = f.coeffs if f.coeffs.imag.any() else f.coeffs.real
        coeffs = np.zeros((pm.m, nz), dtype=values.dtype)
        np.add.at(coeffs, (labels, cols[1:]), values)
        return cls(pm, z[order[new]], coeffs, window)


@dataclass
class SampleVector:
    """Complex values on the canonical pattern order of ``pm``."""

    values: np.ndarray
    pm: PatternMatrix

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128).ravel()
        if len(self.values) != self.pm.m:
            raise ValueError("sample vector length must equal pattern cardinality")


@dataclass
class CoeffVector:
    """Complex values on the canonical generating-set order of ``M^T``."""

    values: np.ndarray
    pm: PatternMatrix

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128).ravel()
        if len(self.values) != self.pm.m:
            raise ValueError("coefficient vector length must equal pattern cardinality")


def pattern_generators(pm: PatternMatrix) -> np.ndarray:
    """Canonically ordered generators of the pattern, as an ``(m, d)`` array."""
    return canonical_classes(pm, False)[0]


def gset_freqs(pm: PatternMatrix) -> np.ndarray:
    """Canonically ordered generating set of ``M^T``, as an ``(m, d)`` array."""
    return canonical_classes(pm, True)[0]


def fourier_matrix(pm: PatternMatrix) -> np.ndarray:
    """The unitary Fourier matrix ``F(M)`` in canonical row/column order."""
    res = freq_phase_residues(gset_freqs(pm), pattern_generators(pm), pm)
    return np.exp(-2j * np.pi * res / pm.m) / np.sqrt(pm.m)


def _grid_fft(values: np.ndarray, pm: PatternMatrix, forward: bool) -> np.ndarray:
    """Scatter canonical-order values to the ``eps`` grid by class label,
    run the FFT, and gather the result in the other side's canonical order."""
    src, dst = canonical_classes(pm, not forward)[2], canonical_classes(pm, forward)[1]
    fft = np.fft.fftn if forward else np.fft.ifftn
    return fft(values[src].reshape(pm.diagonal_form[0])).ravel()[dst]


def dft_forward(s: SampleVector) -> CoeffVector:
    """``a_hat_h = sum_y a_y e^{-2 pi i h^T y}`` (``sqrt(m) F(M) a``)."""
    return CoeffVector(_grid_fft(s.values, s.pm, forward=True), s.pm)


def dft_inverse(c: CoeffVector) -> SampleVector:
    """Exact inverse of :func:`dft_forward`."""
    return SampleVector(_grid_fft(c.values, c.pm, forward=False), c.pm)


def discrete_coeffs(s: SampleVector) -> CoeffVector:
    """Discrete Fourier coefficients ``(1/m) sum_y phi(2 pi y) e^{-2 pi i h^T y}``."""
    out = dft_forward(s)
    return CoeffVector(out.values / s.pm.m, s.pm)


def freq_class_indices(freqs: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """For each stored frequency, the canonical-order index of its class."""
    return canonical_classes(pm, True)[2][class_labels(freqs, pm, transposed=True)]


def alias_fold(f: FourierSeries, pm: PatternMatrix) -> CoeffVector:
    """Fold the coefficients of ``f`` over congruence classes mod ``M^T``.

    For each canonical ``h`` the result is the exact finite sum of all
    stored coefficients whose index reduces to ``h``.
    """
    return fold_classes(freq_class_indices(f.freqs, pm), f.coeffs, pm)


def fold_classes(positions: np.ndarray, coeffs: np.ndarray, pm: PatternMatrix) -> CoeffVector:
    """Sum ``coeffs`` at the class positions :func:`freq_class_indices` gives."""
    out = np.zeros(pm.m, dtype=np.complex128)
    np.add.at(out, positions, coeffs)
    return CoeffVector(out, pm)


# -- coefficient CSV format ---------------------------------------------------


def series_to_csv(f: FourierSeries) -> str:
    """Serialize a series to ``k1,...,kd,re,im`` rows, 17 significant digits."""
    d = f.dim
    lines = [",".join(f"k{i + 1}" for i in range(d)) + ",re,im"]
    order = np.lexsort(f.freqs.T[::-1]) if len(f) else []
    for i in order:
        k = f.freqs[i]
        c = f.coeffs[i]
        lines.append(
            ",".join(str(int(x)) for x in k) + f",{c.real:.17g},{c.imag:.17g}"
        )
    return "\n".join(lines) + "\n"
