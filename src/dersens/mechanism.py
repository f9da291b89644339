"""Generalized-Cauchy noise: parameter derivation, seeded sampling and
private release.

The noise density is proportional to 1/(1+|x|^gamma).  A release adds
(c(x)/b) * eta to the query value, where c(x) is a beta-smooth upper bound
on the derivative sensitivity and epsilon = (gamma+1) * (b + beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GenCauchy",
    "InfeasibleParams",
    "NoiseParams",
    "Release",
    "derive_b",
    "privatize",
    "sample",
]


class InfeasibleParams(ValueError):
    def __init__(self, message: str, min_epsilon: float | None = None):
        super().__init__(message)
        self.min_epsilon = min_epsilon


def derive_b(epsilon: float, beta: float, gamma: float) -> float:
    """Noise scale parameter b = epsilon/(gamma+1) - beta; must be positive.
    Every parameter must be finite: an infinite epsilon would release the
    exact value, and a NaN passes every `<=` check."""
    if not 1.0 < gamma < math.inf:
        raise InfeasibleParams(f"gamma must be finite and exceed 1, got {gamma}")
    if not 0.0 < epsilon < math.inf:
        raise InfeasibleParams(f"epsilon must be finite and positive, got {epsilon}")
    if not 0.0 < beta < math.inf:
        raise InfeasibleParams(f"beta must be finite and positive, got {beta}")
    b = epsilon / (gamma + 1.0) - beta
    if b <= 0.0:
        need = (gamma + 1.0) * beta
        raise InfeasibleParams(
            f"epsilon={epsilon} leaves no noise budget at beta={beta}, gamma={gamma}; "
            f"epsilon must exceed {need}",
            min_epsilon=need,
        )
    return b


@dataclass(frozen=True)
class NoiseParams:
    epsilon: float
    beta: float
    gamma: float = 4.0
    b: float = field(init=False)  # always derive_b(epsilon, beta, gamma)

    def __post_init__(self):
        object.__setattr__(self, "b", derive_b(self.epsilon, self.beta, self.gamma))


class GenCauchy:
    """Density 1/(Z (1+|x|^gamma)), sampled exactly by rejection.

    The proposal g(x) = min(1, |x|^-gamma) lies above h(x) = 1/(1+|x|^gamma);
    its half-line mass is gamma/(gamma-1): 1 on [0, 1] and 1/(gamma-1) on the
    Pareto tail beyond.  A candidate is accepted with probability h/g, which
    is at least 1/2, so no clamp or table bounds the tail.
    """

    def __init__(self, gamma: float):
        if not 1.0 < gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
        self.gamma = float(gamma)
        self.z = (2.0 / gamma) * math.pi / math.sin(math.pi / gamma)

    def pdf(self, x):
        # numpy is imported by the methods that use it, not with the module:
        # derive_b and NoiseParams, which the analysis path uses, need none
        import numpy as np

        return 1.0 / (self.z * (1.0 + np.abs(x) ** self.gamma))

    def sample(self, seed: int, n: int = 1) -> np.ndarray:
        """n draws from the counter-based Philox stream of `seed`.

        Candidate k reads uniforms 4k..4k+3 (branch, position, acceptance,
        sign) whatever the batch size, so the draws for n are the first n of
        the draws for any larger n."""
        import numpy as np

        g = self.gamma
        rng = np.random.Generator(np.random.Philox(seed))
        out = np.empty(0)
        while len(out) < n:
            branch, pos, accept, sign = rng.random(((n - len(out)) * 3 // 2 + 16, 4)).T
            # min(x, 1/x)^gamma gives h/g as 1/(1+x^gamma) for x <= 1 and as
            # 1/(1+x^-gamma) above, never inf/inf: a tail draw that overflows
            # to inf, or x = 0 with 1/x = inf, still gets a ratio in [1/2, 1]
            with np.errstate(over="ignore", divide="ignore"):
                x = np.where(branch < (g - 1.0) / g, pos, (1.0 - pos) ** (-1.0 / (g - 1.0)))
                keep = accept < 1.0 / (1.0 + np.minimum(x, 1.0 / x) ** g)
            out = np.concatenate([out, np.where(sign[keep] < 0.5, -x[keep], x[keep])])
        return out[:n]


def sample(gamma: float, seed: int, n: int = 1) -> float | np.ndarray:
    """Draw from the generalized Cauchy distribution; scalar for n=1."""
    out = GenCauchy(gamma).sample(seed, n)
    return float(out[0]) if n == 1 else out


@dataclass(frozen=True)
class Release:
    """A private release with full provenance: noised = raw + (c/b) * eta."""

    raw: float
    sensitivity: float
    params: NoiseParams
    noise: float
    noised: float
    seed: int


def privatize(raw: float, c: float, params: NoiseParams, seed: int) -> Release:
    """Add generalized-Cauchy noise scaled by the smooth sensitivity bound.

    Raises InfeasibleParams when the noised value is not finite, as when a
    tail draw overflows at gamma close to 1."""
    if not math.isfinite(c) or c < 0.0:
        raise ValueError(f"sensitivity must be finite and non-negative, got {c}")
    eta = sample(params.gamma, seed)
    noise = (c / params.b) * eta
    noised = raw + noise
    if not math.isfinite(noised):
        raise InfeasibleParams(f"the noised value is not finite at gamma={params.gamma}")
    return Release(raw=raw, sensitivity=c, params=params, noise=noise, noised=noised,
                   seed=seed)
