"""State-space complexity model (paper Section 3.1).

The paper's quantitative argument: with ``n`` caches, ``m = |Q|`` state
symbols and ``k = |Σ|`` operations, the explicit product space holds up
to ``m^n`` states, and an exhaustive expansion performs *at least* about
``n·k·m^n`` state visits, while the symbolic expansion converges in a
handful of visits independent of ``n``.  This module provides those
formulas plus an empirical growth-rate estimator used by experiment E4
to confirm the measured blow-up really is exponential in ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "max_states",
    "visit_lower_bound",
    "GrowthFit",
    "fit_exponential_growth",
]


def max_states(m: int, n: int) -> int:
    """Upper bound on the explicit global state space: ``m^n``."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 symbols and n >= 1 caches")
    return m**n


def visit_lower_bound(n: int, k: int, m: int) -> int:
    """The paper's estimate of exhaustive expansion work: ``n·k·m^n``.

    Every reachable state must be expanded through every cache and
    every operation, visits of already-seen states included.
    """
    if k < 1:
        raise ValueError("need k >= 1 operations")
    return n * k * max_states(m, n)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of ``count ≈ a · base^n``."""

    base: float
    prefactor: float
    r_squared: float

    @property
    def exponential(self) -> bool:
        """True when counts grow at least geometrically (base > 1.2)."""
        return self.base > 1.2

    def predict(self, n: float) -> float:
        """Model prediction at *n*."""
        return self.prefactor * self.base**n


def fit_exponential_growth(ns: Sequence[int], counts: Sequence[int]) -> GrowthFit:
    """Fit ``log(count) = log(a) + n·log(base)`` by least squares.

    Closed-form ordinary least squares on the log counts (slope
    ``S_xy / S_xx`` around the means), so no numerical library is needed.

    Used to check the measured shape of the explicit-search blow-up
    (rather than its absolute values, which depend on the protocol).
    """
    if len(ns) != len(counts) or len(ns) < 2:
        raise ValueError("need at least two (n, count) pairs")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive for a log fit")
    x = [float(n) for n in ns]
    y = [math.log(c) for c in counts]
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    s_xx = math.fsum((xi - mean_x) ** 2 for xi in x)
    if s_xx == 0:
        raise ValueError("need at least two distinct n values")
    s_xy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = s_xy / s_xx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = math.fsum((yi - mean_y) ** 2 for yi in y)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return GrowthFit(
        base=math.exp(slope),
        prefactor=math.exp(intercept),
        r_squared=r_squared,
    )
