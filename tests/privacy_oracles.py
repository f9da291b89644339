"""Numeric oracles for the privacy guarantee, used by the tests only."""

import math

import numpy as np


def ddp_check(f1: tuple[float, float], f2: tuple[float, float], gamma: float = 4.0,
              grid_points: int = 4001, budget: float | None = None) -> float:
    """Largest absolute log-density ratio between a1 + c1*eta and a2 + c2*eta.

    Maximizes over a wide tan-spaced grid around both centers plus the exact
    |y| -> inf limit; used as a test oracle against epsilon * distance.  When
    a budget is given, exceeding it (beyond a 1e-6 relative slack) raises.
    """
    a1, c1 = f1
    a2, c2 = f2
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("noise scales must be positive")
    base = np.tan(np.linspace(-0.5 * math.pi, 0.5 * math.pi, grid_points)[1:-1] * 0.9999)
    ys = np.concatenate([a1 + c1 * base, a2 + c2 * base])

    def logpdf(y, a, c):
        v = np.abs((y - a) / c)
        return -np.log1p(v**gamma) - math.log(c)

    ratios = np.abs(logpdf(ys, a1, c1) - logpdf(ys, a2, c2))
    if not np.all(np.isfinite(ratios)):
        raise ValueError("log-density underflowed on the grid")
    limit = abs((gamma - 1.0) * math.log(c1 / c2))
    out = float(max(ratios.max(), limit))
    if budget is not None and out > budget * (1.0 + 1e-6):
        raise AssertionError(
            f"privacy loss {out:.6g} exceeds the budget {budget:.6g}"
        )
    return out


def guessing_posterior_bound(epsilon: float, a: float, prior_correct: float,
                             prior_near: float) -> float:
    """Upper bound on the attacker's posterior probability of a correct guess,
    given the prior mass of the correct set and of the set within distance a."""
    if not 0.0 <= prior_correct <= 1.0 or not 0.0 <= prior_near <= 1.0:
        raise ValueError("priors must lie in [0, 1]")
    if prior_correct == 0.0:
        raise ValueError("prior of the correct set must be positive")
    if a <= 0.0:
        raise ValueError("distance bound must be positive")
    return 1.0 / (1.0 + math.exp(-epsilon * a) * (1.0 - prior_near) / prior_correct)
