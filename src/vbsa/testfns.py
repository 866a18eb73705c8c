"""Analytic benchmark functions on the unit hypercube and their exact indices.

Eight families from the Kucherenko taxonomy, plus the general G-function
``G``: A-type (few important factors, weak interactions), B-type (all factors
important, weak interactions) and C-type (all factors important, strong
interactions).  All except ``A1`` are products of independent one-dimensional
terms, so their variance and sensitivity indices have simple closed forms;
``A1`` is an alternating sum of prefix products and is integrated exactly
with rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FAMILIES = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "G")

# Canonical Sobol' G-function coefficient ladders.  A2 spans very-important
# to non-significant factors; A3 doubles the coefficient per factor; B3 makes
# all factors equally (moderately) important.
A2_COEFFS = (0.0, 0.5, 3.0, 9.0, 99.0, 999.0)
A3_COEFFS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
B3_COEFF = 6.42


@dataclass(frozen=True)
class FunctionSpec:
    """A test-function identity: family, dimension and (for the G products) G coefficients.

    ``coefficients``, settled and checked at construction, is what the G-product
    families evaluate: ``a`` when given, else the family's default; None for the others.
    """

    family: str
    k: int
    a: tuple[float, ...] | None = None
    coefficients: tuple[float, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown function family {self.family!r}; expected one of {FAMILIES}")
        if not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"factor count k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("factor count k must be >= 1")
        coefficients = self.a
        if coefficients is not None:
            if self.family in ("A1", "B1", "B2", "C2"):
                raise ValueError(f"family {self.family!r} takes no coefficient vector")
            coefficients = tuple(float(x) for x in coefficients)
            if len(coefficients) != self.k:
                raise ValueError(f"coefficient vector has length {len(coefficients)}, expected k = {self.k}")
            if not all(0 <= x < np.inf for x in coefficients):   # NaN fails both comparisons
                raise ValueError("G-function coefficients must be finite and non-negative")
            object.__setattr__(self, "a", coefficients)
        elif self.family in ("A2", "A3"):
            ladder = A2_COEFFS if self.family == "A2" else A3_COEFFS
            if self.k > len(ladder):
                raise ValueError(
                    f"{self.family} has default coefficients for k <= {len(ladder)}; "
                    "pass an explicit coefficient vector"
                )
            coefficients = ladder[: self.k]
        elif self.family in ("B3", "C1"):
            coefficients = (B3_COEFF if self.family == "B3" else 0.0,) * self.k
        elif self.family == "G":
            raise ValueError("family 'G' requires an explicit coefficient vector")
        object.__setattr__(self, "coefficients", coefficients)


function_spec = FunctionSpec


@dataclass(frozen=True)
class AnalyticIndices:
    """Exact output variance and first/total-order sensitivity index vectors."""

    variance: float
    first_order: np.ndarray
    total: np.ndarray


def _g_product(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.prod((np.abs(4.0 * x - 2.0) + a) / (1.0 + a), axis=-1)


def evaluate(fn: FunctionSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` at one point or a batch of points in the unit cube.

    ``x`` has shape ``(k,)`` or ``(n, k)``; the result is a scalar array or a
    length-``n`` vector.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fn.k:
        raise ValueError(f"point dimension {x.shape[-1]} does not match k = {fn.k}")
    fam = fn.family
    if fam == "A1":
        signs = (-1.0) ** np.arange(1, fn.k + 1)
        prefix = np.cumprod(x, axis=-1)
        return np.sum(signs * prefix, axis=-1)
    if fn.coefficients is not None:
        return _g_product(x, np.asarray(fn.coefficients))
    if fam == "B1":
        return np.prod((fn.k - x) / (fn.k - 0.5), axis=-1)
    if fam == "B2":
        return (1.0 + 1.0 / fn.k) ** fn.k * np.prod(x ** (1.0 / fn.k), axis=-1)
    return 2.0**fn.k * np.prod(x, axis=-1)   # C2


def _multiplicative_indices(var: np.ndarray) -> AnalyticIndices:
    """Exact indices for f = prod_j g_j(x_j) with E[g_j] = 1 and per-factor variances.

    With s_j = 1 + var_j:
    V = prod s_j - 1,  S_j V = var_j,  T_j V = var_j prod_{l != j} s_l.
    """
    s = 1.0 + var
    v_total = float(np.prod(s) - 1.0)
    if v_total <= 0:
        raise ValueError("function has zero output variance; indices undefined")
    k = len(var)
    total = np.empty(k)
    for j in range(k):
        total[j] = var[j] * np.prod(s[np.arange(k) != j]) / v_total
    return AnalyticIndices(variance=v_total, first_order=var / v_total, total=total)


def _a1_indices(k: int) -> AnalyticIndices:
    """Exact indices of the alternating prefix-product sum, by direct integration.

    With P_m = prod_{l<=m} x_l and f = sum_m (-1)^m P_m over iid U(0,1):
    E[P_m P_m'] = (1/3)^min(m,m') (1/2)^|m-m'|, which gives V(Y) from the
    double sum.  Conditioning on all-but-x_j makes f affine in x_j with slope
    d_j = prod_{l<j} x_l * sum_{m>=j} (-1)^m prod_{j<l<=m} x_l, so the total
    numerator is E[d_j^2]/12; conditioning on x_j alone gives the first-order
    numerator (sum_{m>=j} (-1)^m 2^{1-m})^2 / 12.  All terms are rational.
    """
    third, half = Fraction(1, 3), Fraction(1, 2)
    e_cross = sum(
        (-1) ** (m + mp) * third ** min(m, mp) * half ** abs(m - mp)
        for m in range(1, k + 1)
        for mp in range(1, k + 1)
    )
    e_mean = sum((-1) ** m * half**m for m in range(1, k + 1))
    v_total = e_cross - e_mean**2
    first = np.empty(k)
    total = np.empty(k)
    for j in range(1, k + 1):
        tail = sum(
            (-1) ** (m + mp) * third ** (min(m, mp) - j) * half ** abs(m - mp)
            for m in range(j, k + 1)
            for mp in range(j, k + 1)
        )
        total[j - 1] = float(third ** (j - 1) * tail / 12 / v_total)
        slope = sum((-1) ** m * half ** (m - 1) for m in range(j, k + 1))
        first[j - 1] = float(slope**2 / 12 / v_total)
    return AnalyticIndices(variance=float(v_total), first_order=first, total=total)


def analytic_indices(fn: FunctionSpec) -> AnalyticIndices:
    """Exact V(Y), S_j and T_j for a supported function family."""
    k = fn.k
    if fn.family == "A1":
        return _a1_indices(k)
    if fn.coefficients is not None:
        a = np.asarray(fn.coefficients)
        return _multiplicative_indices((1.0 / 3.0) / (1.0 + a) ** 2)
    if fn.family == "B1":
        return _multiplicative_indices(np.full(k, (1.0 / 12.0) / (k - 0.5) ** 2))
    if fn.family == "B2":
        # g_j = (1 + 1/k) x^(1/k): E[g] = 1, E[g^2] = (k+1)^2 / (k (k+2)).
        return _multiplicative_indices(np.full(k, 1.0 / (k * (k + 2.0))))
    return _multiplicative_indices(np.full(k, 1.0 / 3.0))   # C2


def indices_csv(fn: FunctionSpec) -> str:
    """Analytic S/T table as CSV (factor, S, T) with the variance in a header row."""
    idx = analytic_indices(fn)
    lines = [f"# family={fn.family} k={fn.k} variance={idx.variance!r}", "factor,S,T"]
    for j in range(fn.k):
        lines.append(f"{j + 1},{float(idx.first_order[j])!r},{float(idx.total[j])!r}")
    return "\n".join(lines) + "\n"


__all__ = [
    "A2_COEFFS",
    "A3_COEFFS",
    "B3_COEFF",
    "FAMILIES",
    "AnalyticIndices",
    "FunctionSpec",
    "analytic_indices",
    "evaluate",
    "function_spec",
    "indices_csv",
]
