"""Generalized-Cauchy noise: parameter derivation, seeded sampling and
private release.

The noise density is proportional to 1/(1+|x|^gamma).  A release adds
(c(x)/b) * eta to the query value, where c(x) is a beta-smooth upper bound
on the derivative sensitivity and epsilon = (gamma+1) * (b + beta).
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

__all__ = [
    "GenCauchy",
    "InfeasibleParams",
    "NoiseParams",
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


_WORDS = struct.Struct(">4Q")  # a 32-byte digest as four big-endian 64-bit words


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
        """The first n draws of the BLAKE2b stream of `seed`, as an array
        (the stream is described at `_draws`)."""
        import numpy as np

        return np.fromiter(itertools.islice(self._draws(seed), n), dtype=float, count=n)

    def _draws(self, seed: int) -> Iterator[float]:
        """The draws of `seed`, endlessly, one per accepted candidate.

        Candidate k reads the four big-endian 64-bit words of BLAKE2b-256(s || k),
        where s is the seed's shortest big-endian byte string (empty for 0)
        and k is 8 bytes big-endian; k has a fixed width, so (seed, k) is
        recovered from the message.  Each word w gives the uniform
        (w >> 11) * 2^-53; the four are branch, position, acceptance and
        sign.  Candidate k reads no other bits, so the draws for n are the
        first n of the draws for any larger n."""
        # hashlib.blake2b is this very function, but `import hashlib` also
        # loads OpenSSL (about 3.5 MB resident) for hashes no draw uses;
        # imported here, not with the module, as an analysis draws nothing
        from _blake2 import blake2b

        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        g = self.gamma
        body = (g - 1.0) / g  # the share of the envelope's mass on [0, 1]
        tail = -1.0 / (g - 1.0)
        key = blake2b(seed.to_bytes((seed.bit_length() + 7) // 8, "big"), digest_size=32)
        for k in itertools.count():
            h = key.copy()
            h.update(k.to_bytes(8, "big"))
            branch, pos, accept, sign = [(w >> 11) * 2.0**-53 for w in _WORDS.unpack(h.digest())]
            if branch < body:
                x = pos
            else:
                try:
                    x = (1.0 - pos) ** tail  # 1 - pos is at least 2^-53
                except OverflowError:
                    x = math.inf  # as IEEE arithmetic gives
            # min(x, 1/x)^gamma gives h/g as 1/(1+x^gamma) for x <= 1 and as
            # 1/(1+x^-gamma) above, never inf/inf: a tail draw that overflows
            # to inf, or x = 0, still gets a ratio in [1/2, 1]
            if accept < 1.0 / (1.0 + (x if x <= 1.0 else 1.0 / x) ** g):
                yield -x if sign < 0.5 else x


def sample(gamma: float, seed: int, n: int = 1) -> float | np.ndarray:
    """Draw from the generalized Cauchy distribution; scalar for n=1, which
    imports no numpy."""
    g = GenCauchy(gamma)
    return next(g._draws(seed)) if n == 1 else g.sample(seed, n)


def privatize(raw: float, c: float, params: NoiseParams, seed: int) -> float:
    """The noised value raw + (c/b) * eta: generalized-Cauchy noise scaled
    by the smooth sensitivity bound.

    Raises InfeasibleParams when the noised value is not finite, as when a
    tail draw overflows at gamma close to 1."""
    if not math.isfinite(c) or c < 0.0:
        raise ValueError(f"sensitivity must be finite and non-negative, got {c}")
    noised = raw + (c / params.b) * sample(params.gamma, seed)
    if not math.isfinite(noised):
        raise InfeasibleParams(f"the noised value is not finite at gamma={params.gamma}")
    return noised
