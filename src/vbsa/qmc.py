"""Sobol' low-discrepancy point blocks, column scrambling and L2-star discrepancy.

The generator draws points of the Sobol' LP_tau sequence in Gray-code order
(Antonov-Saleev construction) from the embedded Joe-Kuo direction numbers
of 64 dimensions: point i is point i - 1 XOR the direction vector of the
lowest set bit of i, so a block is one cumulative XOR down its rows.  The
direction vectors of all 64 dimensions are built once, on first use, and
every block reads its leading columns; there are no custom tables.
The all-zeros origin point is skipped, so block ``i`` of size ``2**p`` holds
sequence positions ``1 .. 2**p`` and every block is a prefix of the next
larger one.  The L2-star discrepancy is Warnock's exact formula, its pair term
summed over the strict upper triangle in fixed-size row blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._directions import POLY_AND_INIT

_MAXBIT = 32  # direction integers are scaled by 2**32; exact in float64
_MAX_P = 24   # 2**24 points keep all coordinates exactly representable
_MAX_DIM = len(POLY_AND_INIT) + 1   # dimension 1 carries no table entry


def _in_unit_cube(values: np.ndarray, closed: bool = False) -> bool:
    """Whether every coordinate lies in [0, 1), or in [0, 1] when ``closed``; never for NaN."""
    if not values.size:
        return True
    top = values.max()
    return bool(values.min() >= 0.0 and (top <= 1.0 if closed else top < 1.0))


@dataclass(frozen=True)
class SampleMatrix:
    """An N x k block of points in the half-open unit cube."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("sample matrix must be two-dimensional")
        if not _in_unit_cube(v):
            raise ValueError("sample coordinates must lie in [0, 1)")
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ColumnPermutation:
    """A bijection over pool column indices."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.perm, dtype=np.intp)
        if sorted(p.tolist()) != list(range(len(p))):
            raise ValueError("column permutation must be a bijection over 0..len-1")
        object.__setattr__(self, "perm", p)

    def __len__(self) -> int:
        return len(self.perm)


def draw_permutation(n_columns: int, seed: int, repetition: int = 0) -> ColumnPermutation:
    """Draw the column permutation for one scrambling repetition.

    Derived deterministically from ``(seed, repetition)`` so repetitions can
    run concurrently and still reproduce bit-identically.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(repetition,))
    perm = np.random.default_rng(ss).permutation(n_columns)
    return ColumnPermutation(perm=perm)


@functools.cache
def _direction_vectors() -> np.ndarray:
    """Read-only direction vectors V[bit, dim] of every dimension, uint64 scaled by 2**_MAXBIT."""
    v = np.zeros((_MAXBIT + 1, _MAX_DIM), dtype=np.uint64)
    for i in range(1, _MAXBIT + 1):
        v[i, 0] = 1 << (_MAXBIT - i)
    for d, (poly, m_init) in enumerate(POLY_AND_INIT, start=1):
        s = poly.bit_length() - 1
        a = (poly - (1 << s) - 1) >> 1
        row = [0] * (_MAXBIT + 1)
        for i, mi in enumerate(m_init, start=1):
            row[i] = mi << (_MAXBIT - i)
        for i in range(s + 1, _MAXBIT + 1):
            row[i] = row[i - s] ^ (row[i - s] >> s)
            for t in range(1, s):
                row[i] ^= ((a >> (s - 1 - t)) & 1) * row[i - t]
        v[:, d] = row
    v.flags.writeable = False
    return v


def sobol_block(dim_count: int, p: int) -> SampleMatrix:
    """First ``2**p`` Sobol' points (origin skipped) in ``dim_count`` dimensions.

    Deterministic, and nested: the block for ``p`` is the leading slice of the
    block for ``p + 1``.
    """
    if dim_count < 1:
        raise ValueError("dim_count must be positive")
    if dim_count > _MAX_DIM:
        raise ValueError(f"dim_count {dim_count} exceeds the direction-number table maximum {_MAX_DIM}")
    if p < 0:
        raise ValueError("block exponent p must be >= 0")
    if p > _MAX_P:
        raise ValueError(f"block exponent p = {p} exceeds the supported maximum {_MAX_P}")

    pos = np.arange(1, (1 << p) + 1, dtype=np.uint64)
    # pos ^ (pos - 1) has lowest_bit(pos) + 1 set bits: the row of that bit's direction vector
    x = _direction_vectors()[:, :dim_count][np.bitwise_count(pos ^ (pos - np.uint64(1)))]
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    return SampleMatrix(values=np.multiply(x, 2.0 ** -_MAXBIT))


def permute_columns(pool: SampleMatrix, perm: ColumnPermutation) -> SampleMatrix:
    """Reorder pool columns: output column ``i`` is input column ``perm[i]``."""
    if len(perm) != pool.n_cols:
        raise ValueError(
            f"permutation length {len(perm)} does not match pool column count {pool.n_cols}"
        )
    return SampleMatrix(values=pool.values[:, perm.perm])


def l2_star_discrepancy(points: SampleMatrix | np.ndarray) -> float:
    """Closed-form L2-star discrepancy of a point set in the unit cube.

    Warnock's double-sum formula, with u = 1 - x and each pair i < i' taken once:

        D^2 = 3^-k - 2/M sum_i prod_j (1 - x_ij^2)/2
                   + 1/M^2 (sum_i prod_j u_ij + 2 sum_{i<i'} prod_j min(u_ij, u_i'j))

    Row blocks of the triangle reuse two buffers of max(2**17, M) floats.  D^2 cancels
    terms near 3^-k: D is within 6e-15 of exact on small sets, 4e-13 at 4096 x 6 Sobol'.
    """
    pts = points.values if isinstance(points, SampleMatrix) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("discrepancy needs a non-empty two-dimensional point set")
    if not _in_unit_cube(pts, closed=True):
        raise ValueError("points must lie inside the unit cube")
    m, k = pts.shape
    term2 = float(np.sum(np.prod((1.0 - pts**2) / 2.0, axis=1))) * 2.0 / m
    u = np.ascontiguousarray((1.0 - pts).T) if k else np.ones((1, m))   # k = 0: empty products, 1
    rows = max(1, min(m, 2**17 // m))
    bufs, below = np.empty((2, rows * m)), np.tri(rows, k=-1, dtype=bool)
    sums = [float(np.sum(np.prod(u, axis=0)))]   # the diagonal i = i'
    for lo in range(0, m - 1, rows):
        h, w = min(rows, m - 1 - lo), m - 1 - lo   # rows lo .. lo+h-1 against columns lo+1 ..
        prod, tmp = bufs[:, : h * w].reshape(2, h, w)
        np.minimum(u[0, lo : lo + h, None], u[0, None, lo + 1 :], out=prod)
        for j in range(1, k):
            prod *= np.minimum(u[j, lo : lo + h, None], u[j, None, lo + 1 :], out=tmp)
        prod[:, :h][below[:h, :h]] = 0.0   # in-block pairs with i' <= i
        sums.append(2.0 * float(prod.sum()))
    return float(np.sqrt(3.0**-k - term2 + math.fsum(sums) / (m * m)))


__all__ = [
    "ColumnPermutation",
    "SampleMatrix",
    "draw_permutation",
    "l2_star_discrepancy",
    "permute_columns",
    "sobol_block",
]
