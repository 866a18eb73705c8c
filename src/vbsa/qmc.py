"""Sobol' low-discrepancy point blocks, column scrambling and L2-star discrepancy.

The generator draws points of the Sobol' LP_tau sequence in Gray-code order
(Antonov-Saleev construction) from the embedded Joe-Kuo direction numbers
of 64 dimensions.  Gray-code order is reflected, so a block is built by
doubling: position 0 is the origin, and positions ``h .. 2h - 1`` are
positions ``h - 1 .. 0`` XOR the direction vector of bit ``log2(h) + 1``,
one vectorised XOR over each dimension's contiguous row of a ``(dims, rows)``
``uint64`` array.  Its words are the bits of the floats ``2**20 + m 2**-32``,
so one exact in-place subtraction turns it into the points, and the
transpose is the F-ordered ``(rows, dims)`` block.  The direction
vectors of all 64 dimensions are built once, on first use, and every block
reads its leading rows; no custom tables.  :func:`sobol_rows` draws any row
range alone, and with a column permutation reads the direction vectors in
permuted order, which gives the permuted rows without a copy.  The all-zeros
origin point is skipped, so block ``i`` of size ``2**p`` holds sequence
positions ``1 .. 2**p`` and every block is a prefix of the next larger one:
points are read-only, and rows come from a held block as :func:`sobol_rows` states.
The L2-star discrepancy is Warnock's exact formula, its pair term summed over
the strict upper triangle in fixed-size row blocks.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from ._directions import POLY_AND_INIT

_MAXBIT = 32  # direction integers are scaled by 2**32; exact in float64
_MAX_P = 24   # 2**24 points keep all coordinates exactly representable
_MAX_DIM = len(POLY_AND_INIT) + 1   # dimension 1 carries no table entry
_OFFSET = 2.0 ** (52 - _MAXBIT)   # the float whose unit in the last place is 2**-_MAXBIT
_OFFSET_BITS = np.float64(_OFFSET).view(np.uint64)
# Floats per working block: the discrepancy's row blocks and the plan tiles a model gets (1 MiB, cache-sized).
_TILE_VALUES = 2**17
_held = weakref.WeakValueDictionary()   # whole blocks while held, by (dims, perm bytes); rows inside one view it


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


@dataclass(frozen=True)
class ColumnPermutation:
    """A bijection over pool column indices; ``perm`` is a read-only copy of the array given."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        given = np.asarray(self.perm)
        if given.size and given.dtype.kind not in "iu":
            raise ValueError(f"column permutation must hold integers, got dtype {given.dtype}")
        p = np.array(given, dtype=np.intp)
        if sorted(p.tolist()) != list(range(len(p))):
            raise ValueError("column permutation must be a bijection over 0..len-1")
        p.flags.writeable = False
        object.__setattr__(self, "perm", p)

    def __len__(self) -> int:
        return len(self.perm)


@functools.lru_cache(maxsize=1024)
def draw_permutation(n_columns: int, seed: int, repetition: int = 0) -> ColumnPermutation:
    """Draw the column permutation for one scrambling repetition.

    Derived deterministically from ``(seed, repetition)`` so repetitions can
    run concurrently and still reproduce bit-identically.  Memoised: the
    permutation is immutable, so repeated draws share one.
    """
    if seed < 0 or repetition < 0:
        raise ValueError(f"{'seed' if seed < 0 else 'repetition'} must be >= 0")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(repetition,))
    perm = np.random.default_rng(ss).permutation(n_columns)
    return ColumnPermutation(perm=perm)


@functools.cache
def _direction_vectors() -> np.ndarray:
    """Read-only direction vectors V[dim, bit] of every dimension, uint64 scaled by 2**_MAXBIT."""
    v = np.zeros((_MAX_DIM, _MAXBIT + 1), dtype=np.uint64)
    for i in range(1, _MAXBIT + 1):
        v[0, i] = 1 << (_MAXBIT - i)
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
        v[d] = row
    v.flags.writeable = False
    return v


def sobol_block(dim_count: int, p: int) -> SampleMatrix:
    """First ``2**p`` Sobol' points (origin skipped) in ``dim_count`` dimensions.

    Deterministic, and nested: the block for ``p`` is the leading slice of the
    block for ``p + 1``.  Read-only, each column contiguous: the rows of :func:`sobol_rows`.
    A column-scrambled block is ``sobol_rows(dim_count, 0, 2**p, perm)``.
    """
    if p < 0:
        raise ValueError("block exponent p must be >= 0")
    if p > _MAX_P:
        raise ValueError(f"block exponent p = {p} exceeds the supported maximum {_MAX_P}")
    block = object.__new__(SampleMatrix)   # the float offsets bound the values in [0, 1): no range check
    object.__setattr__(block, "values", sobol_rows(dim_count, 0, 1 << p))
    return block


def sobol_rows(dim_count: int, r0: int, r1: int, perm: ColumnPermutation | None = None) -> np.ndarray:
    """Rows ``r0 .. r1 - 1`` of the Sobol' blocks: bit for bit ``sobol_block(dim_count, p).values[r0:r1]``.

    Read-only, each column contiguous.  With ``perm``, column ``i`` is generated from dimension ``perm[i]``'s
    direction vectors: bit for bit ``permute_columns(sobol_block(dim_count, p).values, perm)[r0:r1]``.  Rows 0 up
    to a power of two (a whole block) are built in place by doubling; otherwise position ``c 2**a + t`` is position
    t XOR the direction vectors on the bits of ``(gray(c) << a) ^ ((c & 1) << (a - 1))``: one XOR of a prefix of
    2**a positions (at most one tile) per aligned chunk of the range.  The held-block rule: a generated whole block
    is remembered by a weak reference keyed by ``dim_count`` and ``perm``'s values (a scramble parameter added
    later must join the key); while a caller holds it, any rows of that key inside it are a view of it, the same
    bits by nesting.  Nothing is kept once the last holder drops it.
    """
    if dim_count < 1:
        raise ValueError("dim_count must be positive")
    if dim_count > _MAX_DIM:
        raise ValueError(f"dim_count {dim_count} exceeds the direction-number table maximum {_MAX_DIM}")
    if not 0 <= r0 <= r1 <= 1 << _MAX_P:
        raise ValueError(f"rows {r0} .. {r1} are not a range within the first 2**{_MAX_P}")
    if perm is not None:
        _check_length(perm, dim_count)
    whole = r0 == 0 and r1 and not r1 & (r1 - 1)
    slot = (dim_count, None if perm is None else perm.perm.tobytes())
    held = _held.get(slot)
    if held is not None and r1 <= held.shape[1]:
        return held[:, r0:r1].view(np.float64).T
    v = _direction_vectors()[slice(dim_count) if perm is None else perm.perm]

    # Column i holds row r0 + i, position r0 + i + 1, as the bits of the float 2**20 + integer * 2**-32
    # (ulp 2**-32), so scaling to [0, 1) is one exact in-place subtraction of 2**20.
    x = np.empty((dim_count, r1 - r0), dtype=np.uint64)
    if whole:
        p = r1.bit_length() - 1
        x[:, 0] = v[:, 1] | _OFFSET_BITS   # position 1: the origin XOR direction bit 1
        for bit in range(2, p + 1):   # positions h .. 2h-1 mirror h-1 .. 0 across direction bit log2(h) + 1
            h = 1 << (bit - 1)
            np.bitwise_xor(x[:, h - 2 :: -1], v[:, bit, None], out=x[:, h - 1 : 2 * h - 2])
            x[:, 2 * h - 2] = v[:, bit] | _OFFSET_BITS   # the mirror of the origin
        if p:
            np.bitwise_xor(x[:, r1 - 2], v[:, p + 1], out=x[:, r1 - 1])   # position 2**p
    else:
        a = max(1, min((r1 - r0 - 1).bit_length(), (_TILE_VALUES // dim_count).bit_length() - 1))
        prefix = np.empty((dim_count, 1 << a), dtype=np.uint64)
        prefix[:, 0] = _OFFSET_BITS   # the origin
        for bit in range(1, a + 1):
            h = 1 << (bit - 1)
            np.bitwise_xor(prefix[:, h - 1 :: -1], v[:, bit, None], out=prefix[:, h : 2 * h])
        for c in range((r0 + 1) >> a, (r1 >> a) + 1):
            lo, hi = max(r0 + 1, c << a), min(r1 + 1, (c + 1) << a)
            gray = ((c ^ (c >> 1)) << a) ^ ((c & 1) << (a - 1))
            key = np.bitwise_xor.reduce(v[:, [b + 1 for b in range(gray.bit_length()) if gray >> b & 1]], axis=1)
            np.bitwise_xor(prefix[:, lo - (c << a) : hi - (c << a)], key[:, None], out=x[:, lo - r0 - 1 : hi - r0 - 1])
    values = x.view(np.float64)
    values -= _OFFSET
    x.flags.writeable = False
    if whole:
        _held[slot] = x
    return x.view(np.float64).T


def _check_length(perm: ColumnPermutation, n_cols: int) -> None:
    """Reject a permutation that does not map exactly ``n_cols`` pool columns."""
    if len(perm) != n_cols:
        raise ValueError(f"permutation length {len(perm)} does not match pool column count {n_cols}")


def permute_columns(pool: np.ndarray, perm: ColumnPermutation) -> np.ndarray:
    """Reorder the columns of an F-ordered pool: output column ``i`` is input column ``perm[i]``; F-ordered too."""
    _check_length(perm, pool.shape[1])
    return pool.T[perm.perm].T


def l2_star_discrepancy(points: SampleMatrix | np.ndarray) -> float:
    """Closed-form L2-star discrepancy of a point set in the unit cube.

    Warnock's double-sum formula, with u = 1 - x and each pair i < i' taken once:

        D^2 = 3^-k - 2/M sum_i prod_j (1 - x_ij^2)/2
                   + 1/M^2 (sum_i prod_j u_ij + 2 sum_{i<i'} prod_j min(u_ij, u_i'j))

    Row blocks of the triangle reuse two buffers of max(_TILE_VALUES, M) floats.  D^2 cancels
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
    rows = max(1, min(m, _TILE_VALUES // m))
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
    "sobol_rows",
]
