"""Random-variate helpers for the environment generator.

The paper pins down three distributions (Section 3.1):

* node performance — "random integer variable in the interval [2; 10] with
  a uniform distribution";
* resource usage cost — "proportionally to their performance with an
  element of normally distributed deviation";
* initial load level — "generated by the hyper-geometric distribution in
  the range from 10% to 50% for each CPU node".

The hypergeometric family is parameterized here as a symmetric urn draw
whose outcome is affinely mapped onto the requested range; the paper gives
only the family and the range, so the urn sizes are free (documented)
parameters that control the spread around the range's midpoint.
"""

from __future__ import annotations

import numpy as np

from repro.model.errors import ConfigurationError
from repro.model.window import left_sum

#: Default urn for the load-level draw: 50 "good" and 50 "bad" marbles,
#: 40 draws.  The mapped variate then has mean at the midpoint of the range
#: and a gentle bell shape, which matches the paper's use of the
#: distribution as a "typical load level around 30%" generator.
DEFAULT_URN_GOOD = 50
DEFAULT_URN_BAD = 50
DEFAULT_URN_DRAWS = 40


def uniform_int(rng: np.random.Generator, low: int, high: int) -> int:
    """A uniform integer in the inclusive interval ``[low, high]``."""
    if low > high:
        raise ConfigurationError(f"empty integer range [{low}, {high}]")
    return int(rng.integers(low, high + 1))


def hypergeometric_fraction(
    rng: np.random.Generator,
    low: float,
    high: float,
    *,
    ngood: int = DEFAULT_URN_GOOD,
    nbad: int = DEFAULT_URN_BAD,
    nsample: int = DEFAULT_URN_DRAWS,
) -> float:
    """A hypergeometric variate affinely mapped into ``[low, high]``.

    The raw draw ``h ~ Hypergeometric(ngood, nbad, nsample)`` takes values
    in ``[max(0, nsample-nbad), min(nsample, ngood)]``; dividing by
    ``nsample`` gives a fraction in ``[0, 1]`` which is then mapped onto
    ``[low, high]``.
    """
    if not 0.0 <= low <= high:
        raise ConfigurationError(f"invalid fraction range [{low}, {high}]")
    if nsample <= 0 or ngood < 0 or nbad < 0 or nsample > ngood + nbad:
        raise ConfigurationError(
            f"invalid hypergeometric urn: ngood={ngood}, nbad={nbad}, nsample={nsample}"
        )
    draw = int(rng.hypergeometric(ngood, nbad, nsample))
    return low + (high - low) * draw / nsample


def positive_normal(
    rng: np.random.Generator, mean: float, sigma: float, floor: float
) -> float:
    """A normal variate clipped from below at ``floor``.

    Used for market prices, which must stay positive even when the
    deviation is large and negative.
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    return max(floor, float(rng.normal(mean, sigma)))


def partition_total(
    rng: np.random.Generator, total: float, parts: int, minimum: float
) -> list[float]:
    """Split ``total`` into ``parts`` random chunks, each >= ``minimum``.

    Used to break a node's total busy time into individual local jobs and
    its total free time into inter-job gaps.  The split is a Dirichlet-like
    stick-breaking over the excess above the per-part minimum, so it is
    exact (the chunks sum to ``total``) and unbiased across positions.
    """
    if parts <= 0:
        raise ConfigurationError(f"parts must be >= 1, got {parts}")
    if total < parts * minimum - 1e-9:
        raise ConfigurationError(
            f"cannot split {total} into {parts} parts of at least {minimum}"
        )
    excess = max(0.0, total - parts * minimum)
    if excess == 0.0:
        return [minimum] * parts
    weights = rng.random(parts)
    weights_sum = float(weights.sum())
    if weights_sum == 0.0:  # pragma: no cover - astronomically unlikely
        weights = np.ones(parts)
        weights_sum = float(parts)
    chunks = [minimum + excess * float(w) / weights_sum for w in weights]
    # Compensate float drift so the chunks sum to the exact total.
    drift = total - left_sum(chunks)
    chunks[-1] += drift
    return chunks
