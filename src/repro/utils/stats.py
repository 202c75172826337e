"""Statistics helpers: means, win rates, bootstrap CIs, length-control fit.

Everything here operates on plain Python sequences or numpy arrays and is
deterministic given an explicit ``rng``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import ceil

import numpy as np

__all__ = [
    "mean",
    "nearest_rank",
    "win_rate",
    "bootstrap_ci",
    "length_controlled_win_rate",
    "logistic",
    "Summary",
    "summarize",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (explicitly documented)."""
    vals = list(values)
    if not vals:
        return 0.0
    return float(np.mean(vals))


def nearest_rank(values: Sequence[float], q: float, *, ordered: bool = False) -> float:
    """Nearest-rank ``q``-th percentile (no interpolation); 0.0 for no values.

    ``ordered=True`` reads ``values`` as already ascending and skips the
    sort, for callers that keep a sorted copy up to date incrementally.

    >>> nearest_rank([5, 1, 3, 2, 4], 50.0)
    3.0
    """
    if not values:
        return 0.0
    if not ordered:
        values = sorted(values)
    return float(values[max(1, ceil(q / 100.0 * len(values))) - 1])


def win_rate(outcomes: Sequence[float]) -> float:
    """Win rate in percent from outcomes coded 1.0 win / 0.5 tie / 0.0 loss."""
    if len(outcomes) == 0:
        return 0.0
    return 100.0 * mean(outcomes)


def logistic(x: float) -> float:
    """Numerically stable logistic sigmoid."""
    if x >= 0:
        z = np.exp(-x)
        return float(1.0 / (1.0 + z))
    z = np.exp(x)
    return float(z / (1.0 + z))


def bootstrap_ci(
    values: Sequence[float],
    rng: np.random.Generator,
    n_resamples: int = 1000,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean.

    Returns ``(lo, hi)``; degenerates to ``(v, v)`` for a single value and
    ``(0, 0)`` for no values.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (0.0, 0.0)
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return (float(lo), float(hi))


def length_controlled_win_rate(
    outcomes: Sequence[float],
    length_deltas: Sequence[float],
) -> float:
    """Length-controlled win rate in percent, AlpacaEval-2.0-LC style.

    Fits a logistic regression of the pairwise outcome on the (standardised)
    log-length difference between candidate and reference responses, then
    reports the predicted win probability at *zero* length difference.  This
    removes the judge's verbosity bias from the headline number, which is the
    defining feature of the LC variant of AlpacaEval 2.0.

    The regression is a two-parameter Newton fit — tiny, dependency-free,
    and convex, so it converges in a handful of iterations.
    """
    y = np.asarray(list(outcomes), dtype=float)
    d = np.asarray(list(length_deltas), dtype=float)
    if y.size == 0:
        return 0.0
    if y.size != d.size:
        raise ValueError(f"outcomes ({y.size}) and deltas ({d.size}) differ in length")
    scale = float(np.std(d))
    if scale < 1e-12:
        return win_rate(y)
    x = d / scale
    # Newton-Raphson on logistic log-likelihood with features [1, x].
    beta = np.zeros(2)
    design = np.column_stack([np.ones_like(x), x])
    for _ in range(25):
        logits = np.clip(design @ beta, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-logits))
        grad = design.T @ (y - p)
        w = np.clip(p * (1 - p), 1e-6, None)
        hess = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        beta += step
        if float(np.abs(step).max()) < 1e-10:
            break
    return 100.0 * logistic(float(beta[0]))


@dataclass(frozen=True)
class Summary:
    """Five-number summary of a metric sample."""

    n: int
    mean: float
    std: float
    min: float
    max: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; zeros when the sample is empty."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return Summary(n=0, mean=0.0, std=0.0, min=0.0, max=0.0)
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        min=float(arr.min()),
        max=float(arr.max()),
    )
