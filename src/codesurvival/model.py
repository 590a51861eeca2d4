"""Exponential saturation model of code revision.

One family of curves captures how much of a baseline version's code has
been altered after ``n`` subsequent releases:

    cumulative_change(n)   = A * (1 - exp(-lambda * n))
    instantaneous_rate(n)  = A * lambda * exp(-lambda * n)
    base_rate              = A * lambda

``A`` is the saturation level, the fraction of code that will eventually
be changed; ``lambda`` is the per-version rate at which the changeable
code is altered.  The base rate is the initial per-version change rate,
which the exponential factor then progressively rescales as the code
ages.  Fits in a near-linear regime can report A above 1; the functions
here never clamp, interpretation belongs to the fitting and reporting
layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SaturationParams",
    "cumulative_change",
    "instantaneous_rate",
    "base_rate",
]


@dataclass(frozen=True)
class SaturationParams:
    """Model parameter pair (saturation level, rate parameter).

    The base rate is always derived as ``A * lam``, never stored, so the
    identity cannot drift.
    """

    A: float
    lam: float

    def __post_init__(self) -> None:
        if not 0 < self.A < math.inf:
            raise ValueError(f"saturation level must be positive and finite, got {self.A}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"rate parameter must be positive and finite, got {self.lam}")

    @property
    def base_rate(self) -> float:
        return self.A * self.lam


def cumulative_change(params: SaturationParams, n: float) -> float:
    """Fraction of baseline code changed after ``n`` subsequent versions.

    ``n`` is treated as continuous.  The value is not clamped; with A > 1
    it can exceed 1 and downstream layers flag that as the linear regime.
    """
    if n < 0:
        raise ValueError(f"version offset must be >= 0, got {n}")
    return params.A * -math.expm1(-params.lam * n)


def instantaneous_rate(params: SaturationParams, n: float) -> float:
    """Fraction of code altered in the single revision at offset ``n``.

    Derivative of :func:`cumulative_change` with respect to ``n``.
    """
    if n < 0:
        raise ValueError(f"version offset must be >= 0, got {n}")
    return params.A * params.lam * math.exp(-params.lam * n)


def base_rate(params: SaturationParams) -> float:
    """Initial per-version change rate, ``A * lambda``."""
    return params.base_rate
