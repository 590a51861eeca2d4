"""Discovery-probability bounds for in-code zero days.

A vulnerability woven into existing lines is treated as discoverable
only when one of its lines is edited, so the uLOC-metric fit gives the
lower (subtle) bound; a crude insertion is discoverable when anything
in its file changes, so the file-metric fit gives the upper (obvious)
bound.  Real attacks fall between the two curves.

Reported probabilities are clamped to [0, 1]; clamping is never silent
(scalar calls log a warning, curve containers carry a flag).  The model
itself is in linear regime above A = 1, where clamped probabilities are
only an extrapolation cap.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError
from .fitting import FitResult
from .model import SaturationParams, cumulative_change

__all__ = [
    "DiscoverabilityBounds",
    "PersistenceSummary",
    "discovery_probability",
    "bounds",
    "persistence_summary",
    "write_bounds_csv",
]

logger = logging.getLogger(__name__)

#: Checkpoints reported by persistence_summary (plus the horizon).
CHECKPOINT_OFFSETS = (1, 2, 5, 10)


def _params(fit: FitResult | SaturationParams) -> SaturationParams:
    return fit.params if isinstance(fit, FitResult) else fit


def _clamped(params: SaturationParams, n: float) -> tuple[float, bool]:
    raw = cumulative_change(params, n)
    return (1.0, True) if raw > 1.0 else (raw, False)


def discovery_probability(fit: FitResult | SaturationParams, n: float) -> float:
    """Probability that an in-code vulnerability is hit within n versions.

    Evaluates the fitted cumulative curve and caps it at 1; a cap means
    the fit is in linear regime and the value is an extrapolation bound,
    which is logged as a warning.
    """
    value, clamped = _clamped(_params(fit), n)
    if clamped:
        logger.warning("discovery probability clamped to 1 at offset %s (A=%.3g)", n, _params(fit).A)
    return value


@dataclass(frozen=True)
class DiscoverabilityBounds:
    """Paired subtle/obvious discovery curves over offsets 0..horizon."""

    group: str
    horizon: int
    subtle: tuple[tuple[int, float], ...]
    obvious: tuple[tuple[int, float], ...]
    subtle_label: str = "uloc"
    obvious_label: str = "file"
    clamped: bool = False
    #: Offsets where the obvious curve dips below the subtle one.  The
    #: two fits are independent, so this ordering is checked, not assumed.
    ordering_violations: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        offsets = tuple(n for n, _ in self.subtle)
        if offsets != tuple(n for n, _ in self.obvious):
            raise ValueError("subtle and obvious curves must share offsets")
        if offsets != tuple(range(self.horizon + 1)):
            raise ValueError("curves must cover offsets 0..horizon")

    def summary(self) -> dict:
        return {
            "group": self.group,
            "horizon": self.horizon,
            "subtle_label": self.subtle_label,
            "obvious_label": self.obvious_label,
            "subtle_at_horizon": self.subtle[-1][1],
            "obvious_at_horizon": self.obvious[-1][1],
            "clamped": self.clamped,
            "ordering_violations": list(self.ordering_violations),
        }


@dataclass(frozen=True)
class PersistenceSummary:
    """How long a vulnerability is expected to persist under one fit."""

    metric: str
    horizon: int
    checkpoints: tuple[tuple[int, float], ...]
    median_crossing: int | None
    undiscovered_mass: float


def bounds(
    subtle_fit: FitResult | SaturationParams,
    obvious_fit: FitResult | SaturationParams,
    horizon: int,
) -> DiscoverabilityBounds:
    """Evaluate both regime curves on offsets 0..horizon.

    The fits must describe the same extension group.  Horizon 0 is the
    degenerate single point (0, 0).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    groups = [f.group for f in (subtle_fit, obvious_fit) if isinstance(f, FitResult)]
    if len(set(groups)) > 1:
        raise UsageError(f"fits describe different groups: {groups[0]!r} vs {groups[1]!r}")

    def metric_label(fit: FitResult | SaturationParams, default: str) -> str:
        return fit.metric if isinstance(fit, FitResult) and fit.metric else default

    clamped_any = False
    curves: list[tuple[tuple[int, float], ...]] = []
    violations: list[int] = []
    sp, op = _params(subtle_fit), _params(obvious_fit)
    for params in (sp, op):
        points = []
        for n in range(horizon + 1):
            value, clamped = _clamped(params, n)
            clamped_any = clamped_any or clamped
            points.append((n, value))
        curves.append(tuple(points))
    for (n, subtle_p), (_, obvious_p) in zip(*curves):
        if obvious_p < subtle_p - 1e-12:
            violations.append(n)
    return DiscoverabilityBounds(
        group=groups[0] if groups else "",
        horizon=horizon,
        subtle=curves[0],
        obvious=curves[1],
        subtle_label=metric_label(subtle_fit, "uloc"),
        obvious_label=metric_label(obvious_fit, "file"),
        clamped=clamped_any,
        ordering_violations=tuple(violations),
    )


def persistence_summary(fit: FitResult | SaturationParams, horizon: int) -> PersistenceSummary:
    """Checkpoint probabilities, median crossing, and undiscovered mass.

    The median crossing is the smallest integer offset with P >= 0.5;
    it does not exist when the clamped saturation level is at or below
    0.5 (the curve approaches that level but never attains it).  Means
    are not reported: the lifetime mean is infinite whenever A < 1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    params = _params(fit)
    metric = fit.metric if isinstance(fit, FitResult) else ""
    offsets = sorted({c for c in (*CHECKPOINT_OFFSETS, horizon) if c <= horizon})
    checkpoints = tuple((n, _clamped(params, n)[0]) for n in offsets)

    a_eff = min(params.A, 1.0)
    crossing: int | None = None
    if a_eff > 0.5:
        # P(n) >= 0.5 first holds near n* = -ln(1 - 0.5/A)/lambda; scan a
        # small integer window around it to absorb rounding.
        n_star = -math.log1p(-0.5 / params.A) / params.lam
        for n in range(max(1, math.floor(n_star)), math.floor(n_star) + 3):
            if _clamped(params, n)[0] >= 0.5:
                crossing = n
                break
    return PersistenceSummary(
        metric=metric,
        horizon=horizon,
        checkpoints=checkpoints,
        median_crossing=crossing,
        undiscovered_mass=max(0.0, 1.0 - a_eff),
    )


def write_bounds_csv(result: DiscoverabilityBounds, path: Path | str) -> None:
    """Write the paired curves as CSV rows (n, subtle_P, obvious_P)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("n", "subtle_P", "obvious_P"))
        for (n, subtle_p), (_, obvious_p) in zip(result.subtle, result.obvious):
            writer.writerow((n, repr(subtle_p), repr(obvious_p)))
