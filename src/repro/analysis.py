"""Scaling-law analysis helpers for the benchmark harness.

The paper's claims are growth laws: O(log P) rounds, O(l/w) words,
O(Q/P) IO time.  These helpers fit measured series against candidate
laws and report which fits best, so EXPERIMENTS.md statements like
"rounds grow logarithmically in P" are backed by a regression rather
than eyeballing.

All fits are least-squares over the design matrix [1, f(x)]; quality is
the coefficient of determination R².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["FitResult", "fit_law", "best_law", "doubling_deltas", "LAWS"]


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of y ~ a + b * f(x)."""

    law: str
    a: float
    b: float
    r2: float

    def __repr__(self) -> str:
        return f"FitResult({self.law}: y = {self.a:.3g} + {self.b:.3g}*f, R2={self.r2:.3f})"


#: candidate growth laws
LAWS: dict[str, Callable[[float], float]] = {
    "constant": lambda x: 0.0,
    "log": lambda x: math.log2(max(x, 1.0)),
    "linear": lambda x: float(x),
    "nlogn": lambda x: float(x) * math.log2(max(x, 2.0)),
    "quadratic": lambda x: float(x) ** 2,
    "sqrt": lambda x: math.sqrt(max(x, 0.0)),
}


def fit_law(
    xs: Sequence[float], ys: Sequence[float], law: str
) -> FitResult:
    """Fit y ~ a + b*f(x) for the named law; returns the fit + R²."""
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}; choose from {sorted(LAWS)}")
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two aligned samples")
    f = LAWS[law]
    x = np.asarray([f(v) for v in xs], dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if law == "constant":
        a = float(y.mean())
        resid = float(((y - a) ** 2).sum())
        total = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 if total == 0 else max(0.0, 1 - resid / total)
        return FitResult("constant", a, 0.0, r2)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    total = float(((y - y.mean()) ** 2).sum())
    resid = float(((y - pred) ** 2).sum())
    r2 = 1.0 if total == 0 else max(0.0, 1 - resid / total)
    return FitResult(law, float(coef[0]), float(coef[1]), r2)


def best_law(
    xs: Sequence[float],
    ys: Sequence[float],
    candidates: Sequence[str] = ("constant", "log", "sqrt", "linear"),
) -> FitResult:
    """The candidate law with the highest R², with a flatness guard:
    if the series varies by < 20% of its mean, 'constant' wins outright
    (R² comparisons are meaningless for near-flat data)."""
    y = np.asarray(ys, dtype=np.float64)
    if y.mean() > 0 and (y.max() - y.min()) < 0.2 * y.mean():
        return fit_law(xs, ys, "constant")
    fits = [fit_law(xs, ys, c) for c in candidates]
    return max(fits, key=lambda f: f.r2)


def doubling_deltas(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """y-increments between consecutive x-doublings (xs must be an
    increasing geometric series with ratio 2) — O(log) growth shows as
    bounded constant deltas."""
    for a, b in zip(xs, xs[1:]):
        if b != 2 * a:
            raise ValueError("xs must double at each step")
    return [float(b - a) for a, b in zip(ys, ys[1:])]
