"""Sobol' low-discrepancy point blocks, column scrambling and L2-star discrepancy.

The generator draws points of the Sobol' LP_tau sequence in Gray-code order
(Antonov-Saleev construction) from an embedded Joe-Kuo direction-number table
covering 64 dimensions: point i is point i - 1 XOR the direction vector of
the lowest set bit of i, so a block is one cumulative XOR down its rows.
The all-zeros origin point is skipped, so block ``i`` of size ``2**p`` holds
sequence positions ``1 .. 2**p`` and every block is a prefix of the next
larger one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._directions import POLY_AND_INIT

_MAXBIT = 32  # direction integers are scaled by 2**32; exact in float64
_MAX_P = 24   # 2**24 points keep all coordinates exactly representable


@dataclass(frozen=True)
class DirectionNumberTable:
    """Per-dimension primitive polynomials and initial direction integers.

    ``polys[d]`` and ``m_init[d]`` describe dimension ``d + 2``; dimension 1
    is the base-2 van der Corput sequence and carries no entry.
    """

    polys: tuple[int, ...]
    m_init: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.polys) != len(self.m_init):
            raise ValueError("polynomial and direction-integer tables differ in length")
        for poly, m in zip(self.polys, self.m_init):
            s = poly.bit_length() - 1
            if len(m) != s:
                raise ValueError(f"polynomial degree {s} needs {s} initial integers, got {len(m)}")
            for i, mi in enumerate(m, start=1):
                if mi % 2 == 0 or not 0 < mi < 2**i:
                    raise ValueError(f"direction integer m_{i} = {mi} must be odd and < 2^{i}")

    @property
    def max_dimension(self) -> int:
        return len(self.polys) + 1


def default_table() -> DirectionNumberTable:
    """The embedded Joe-Kuo initialisation (64 dimensions)."""
    return DirectionNumberTable(
        polys=tuple(p for p, _ in POLY_AND_INIT),
        m_init=tuple(m for _, m in POLY_AND_INIT),
    )


@dataclass(frozen=True)
class SampleMatrix:
    """An N x k block of points in the half-open unit cube with a role label.

    Labels follow the usual pick-and-freeze notation: base matrices are
    ``"A"``, ``"B"``, ... and a hybrid taking column ``j`` (1-based) of
    matrix ``B`` into matrix ``A`` is ``"A_B(j)"``.
    """

    values: np.ndarray
    label: str = "A"

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("sample matrix must be two-dimensional")
        if v.size and (v.min() < 0.0 or v.max() >= 1.0):
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
    """A bijection over pool column indices together with the seed that drew it."""

    perm: np.ndarray
    seed: int | None = None

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
    return ColumnPermutation(perm=perm, seed=seed)


def _direction_vectors(dim_count: int, table: DirectionNumberTable) -> np.ndarray:
    """Direction vectors V[dim, bit] as uint64 scaled by 2**_MAXBIT."""
    v = np.zeros((dim_count, _MAXBIT + 1), dtype=np.uint64)
    for i in range(1, _MAXBIT + 1):
        v[0, i] = 1 << (_MAXBIT - i)
    for d in range(1, dim_count):
        poly = table.polys[d - 1]
        s = poly.bit_length() - 1
        a = (poly - (1 << s) - 1) >> 1
        row = [0] * (_MAXBIT + 1)
        for i, mi in enumerate(table.m_init[d - 1][:_MAXBIT], start=1):
            row[i] = mi << (_MAXBIT - i)
        for i in range(s + 1, _MAXBIT + 1):
            row[i] = row[i - s] ^ (row[i - s] >> s)
            for t in range(1, s):
                row[i] ^= ((a >> (s - 1 - t)) & 1) * row[i - t]
        v[d, :] = row
    return v


def sobol_block(
    dim_count: int,
    p: int,
    table: DirectionNumberTable | None = None,
    label: str = "pool",
) -> SampleMatrix:
    """First ``2**p`` Sobol' points (origin skipped) in ``dim_count`` dimensions.

    Deterministic, and nested: the block for ``p`` is the leading slice of the
    block for ``p + 1``.
    """
    table = table if table is not None else default_table()
    if dim_count < 1:
        raise ValueError("dim_count must be positive")
    if dim_count > table.max_dimension:
        raise ValueError(
            f"dim_count {dim_count} exceeds the direction-number table maximum "
            f"{table.max_dimension}"
        )
    if p < 0:
        raise ValueError("block exponent p must be >= 0")
    if p > _MAX_P:
        raise ValueError(f"block exponent p = {p} exceeds the supported maximum {_MAX_P}")

    pos = np.arange(1, (1 << p) + 1, dtype=np.uint64)
    # pos ^ (pos - 1) has lowest_bit(pos) + 1 set bits: the column of that bit's direction vector
    x = _direction_vectors(dim_count, table).T[np.bitwise_count(pos ^ (pos - np.uint64(1)))]
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    return SampleMatrix(values=np.multiply(x, 2.0 ** -_MAXBIT), label=label)


def permute_columns(pool: SampleMatrix, perm: ColumnPermutation) -> SampleMatrix:
    """Reorder pool columns: output column ``i`` is input column ``perm[i]``."""
    if len(perm) != pool.n_cols:
        raise ValueError(
            f"permutation length {len(perm)} does not match pool column count {pool.n_cols}"
        )
    return SampleMatrix(values=pool.values[:, perm.perm], label=pool.label)


def l2_star_discrepancy(points: SampleMatrix | np.ndarray) -> float:
    """Closed-form L2-star discrepancy of a point set in the unit cube.

    Warnock's double-sum formula:

        D^2 = 3^-k - 2/M sum_i prod_j (1 - x_ij^2)/2
                   + 1/M^2 sum_{i,i'} prod_j (1 - max(x_ij, x_i'j))
    """
    pts = points.values if isinstance(points, SampleMatrix) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("discrepancy needs a non-empty two-dimensional point set")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("points must lie inside the unit cube")
    m, k = pts.shape
    term1 = 3.0 ** -k
    term2 = float(np.sum(np.prod((1.0 - pts**2) / 2.0, axis=1))) * 2.0 / m
    term3 = 0.0
    chunk = max(1, 2**22 // (m * k + 1))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        term3 += float(np.sum(np.prod(1.0 - np.maximum(pts[lo:hi, None, :], pts[None, :, :]), axis=2)))
    term3 /= m * m
    return float(np.sqrt(term1 - term2 + term3))


def block_to_csv(block: SampleMatrix) -> str:
    """Debug dump of a block, one full-precision row per point."""
    lines = [",".join(repr(float(x)) for x in row) for row in block.values]
    return "\n".join(lines) + "\n"


__all__ = [
    "ColumnPermutation",
    "DirectionNumberTable",
    "SampleMatrix",
    "block_to_csv",
    "default_table",
    "draw_permutation",
    "l2_star_discrepancy",
    "permute_columns",
    "sobol_block",
]
