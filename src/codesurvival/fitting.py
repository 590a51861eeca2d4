"""Maximum-likelihood fitting of the saturation model.

The observed changed fractions are modeled as the saturation curve plus
Gaussian noise whose variance is profiled at its own MLE (the mean
squared residual), so maximizing the log-likelihood coincides with
least squares.

The fit is a variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
1973).  The points are grouped by offset n into a count c_n and a mean
m_n, so the sum of squared residuals is the within-offset scatter, a
constant, plus sum c_n (m_n - A g_n)^2 with g_n = 1 - exp(-lambda n).
Working on the means, not on raw sums of squares, keeps the profile
free of cancellation.  For a fixed lambda that is a convex quadratic in
A, minimized by A(lambda) = sum c_n m_n g_n / sum c_n g_n^2 clipped
into (0, A_MAX).  What is left is a 1-D profile over ln lambda,
searched on a fixed grid over [LAMBDA_MIN, LAMBDA_MAX] and refined by
golden-section search around the best grid point.  The fit is
deterministic and needs at most V - 1 terms per profile evaluation,
whatever the number of points; it uses only the standard library.

NotConverged means the minimum lies on the edge of the lambda range, so
the data do not pin lambda down inside it; lambda is then reported as
that edge.  Fits in a near-linear regime (A above 1, or so little
curvature that lambda * n_max < 0.2) carry the LinearRegime warning;
for those the base rate A*lambda should be read as the constant
per-version rate of change over the observed range, not as a rate that
decays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul
from typing import Iterable

from .errors import DataError, TooFewPointsError
from .model import SaturationParams
from .screening import FitPointSet

__all__ = [
    "LINEAR_REGIME",
    "NEAR_BOUNDARY",
    "NOT_CONVERGED",
    "FitResult",
    "log_likelihood",
    "fit_saturation",
]

LINEAR_REGIME = "LinearRegime"
NEAR_BOUNDARY = "NearBoundary"
NOT_CONVERGED = "NotConverged"

#: Variance floor for the profiled Gaussian likelihood; keeps the
#: log-likelihood finite on noiseless data.
SIGMA2_FLOOR = 1e-12

#: Upper bound on the fitted saturation level A.
A_MAX = 3.0

#: A is flagged NearBoundary above this fraction of A_MAX.
BOUNDARY_FRACTION = 0.95

#: Curvature threshold: lambda * n_max below this means the exponential
#: never bends over the observed range.
LINEAR_CURVATURE = 0.2

#: The range of the rate parameter searched.
LAMBDA_MIN = 1e-6
LAMBDA_MAX = 50.0

#: Points of the ln(lambda) grid, evenly spaced over the range.
GRID_POINTS = 401

#: Golden-section search stops once its bracket is this narrow in
#: ln(lambda); a result this close to either end lies on the edge.
LOG_LAMBDA_TOL = 1e-10

# A stays strictly inside (0, A_MAX): SaturationParams needs A > 0, and a
# capped level still reads as below its bound.
_A_LOW = A_MAX * 1e-12
_A_HIGH = A_MAX * (1.0 - 1e-12)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# A regime ("all", or "vA-vB" from a plan) names its bounds files, so it takes a group name's characters.
_REGIME_RE = re.compile(r"[A-Za-z0-9_+.-]+")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus diagnostics for one point set."""

    params: SaturationParams
    log_likelihood: float
    residual_rms: float
    points_used: int
    converged: bool
    warnings: frozenset[str] = field(default_factory=frozenset)
    regime: str = "all"
    group: str = ""
    metric: str = ""

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "group": self.group,
            "metric": self.metric,
            "A": self.params.A,
            "lambda": self.params.lam,
            "base_rate": self.params.base_rate,
            "loglik": self.log_likelihood,
            "rms": self.residual_rms,
            "n_points": self.points_used,
            "converged": self.converged,
            "warnings": sorted(self.warnings),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FitResult":
        """A fit as ``to_dict`` gives it; ``ValueError`` unless its labels are strings and its regime a name."""
        params = SaturationParams(A=raw["A"], lam=raw["lambda"])
        labels = {"regime": raw.get("regime", "all"), "group": raw.get("group", ""), "metric": raw.get("metric", "")}
        for name, value in labels.items():
            if not isinstance(value, str):
                raise ValueError(f"field {name!r} is {value!r}, not a string")
        if not _REGIME_RE.fullmatch(labels["regime"]):
            raise ValueError(f"regime {labels['regime']!r} is not a name of letters, digits and _+.-")
        return cls(
            params=params,
            log_likelihood=raw["loglik"],
            residual_rms=raw["rms"],
            points_used=raw["n_points"],
            converged=raw["converged"],
            warnings=frozenset(raw.get("warnings", ())),
            **labels,
        )


def _pairs(points: FitPointSet | Iterable[tuple[int, float]]) -> list[tuple[int, float]]:
    if isinstance(points, FitPointSet):
        points = points.points
    return [(int(n), float(p)) for n, p in points]


def _sse(params: SaturationParams, pairs: list[tuple[int, float]]) -> float:
    A, lam = params.A, params.lam
    return math.fsum((p - A * -math.expm1(-lam * n)) ** 2 for n, p in pairs)


def _log_likelihood(sse: float, m: int) -> float:
    sigma2 = max(sse / m, SIGMA2_FLOOR)
    return -0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)


def log_likelihood(params: SaturationParams, points: FitPointSet | Iterable[tuple[int, float]]) -> float:
    """Profiled Gaussian log-likelihood of a point set under the model.

    With sigma^2 set to the mean squared residual (floored at 1e-12),
    this equals -(m/2) * (ln(2 pi sigma^2) + 1); larger is better and
    the maximizer coincides with the least-squares parameters.
    """
    pairs = _pairs(points)
    if len(pairs) < 2:
        raise TooFewPointsError(f"log-likelihood needs >= 2 points, got {len(pairs)}")
    return _log_likelihood(_sse(params, pairs), len(pairs))


def _golden_section(f, a: float, b: float) -> float:
    """A minimizer of ``f`` on [a, b]; ties move the bracket up."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > LOG_LAMBDA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_saturation(points: FitPointSet | Iterable[tuple[int, float]]) -> FitResult:
    """Fit (A, lambda) to pooled change points by maximum likelihood.

    A is solved in closed form for each lambda, and ln lambda by a grid
    then golden-section search over the profile (see the module
    docstring).  Never fails silently: a minimum on the edge of the
    lambda range is reported through the NotConverged warning.
    """
    regime = points.regime if isinstance(points, FitPointSet) else "all"
    pairs = _pairs(points)
    by_offset: dict[int, list[float]] = {}
    for n, p in pairs:
        by_offset.setdefault(n, []).append(p)
    if len(pairs) < 3 or len(by_offset) < 2:
        raise TooFewPointsError(
            f"fit needs >= 3 points spanning >= 2 distinct offsets, got {len(pairs)} points "
            f"on {len(by_offset)} offset(s)"
        )
    if not all(math.isfinite(p) for _, p in pairs):
        raise DataError("a changed fraction is not finite")
    if max(p for _, p in pairs) == 0.0:
        raise DataError("every observed changed fraction is zero")

    offsets = sorted(by_offset)
    counts = [len(by_offset[n]) for n in offsets]
    means = [math.fsum(by_offset[n]) / c for n, c in zip(offsets, counts)]
    weighted = list(map(mul, counts, means))
    negated = [-float(n) for n in offsets]

    # Both work on h_n = -g_n = expm1(-lambda n), so m_n - A g_n = m_n + A h_n.
    # A's sums have terms of one sign, so plain sums lose nothing to
    # cancellation, and the profile is stationary in A anyway.
    def amplitude(lam: float) -> tuple[float, list[float]]:
        h = list(map(math.expm1, map(mul, negated, repeat(lam))))
        A = -sum(map(mul, weighted, h)) / sum(map(mul, counts, map(mul, h, h)))
        return min(max(A, _A_LOW), _A_HIGH), h

    def profile(log_lam: float) -> float:
        A, h = amplitude(math.exp(log_lam))
        resid = list(map(add, means, map(mul, h, repeat(A))))
        return math.fsum(map(mul, counts, map(mul, resid, resid)))

    lo, hi = math.log(LAMBDA_MIN), math.log(LAMBDA_MAX)
    step = (hi - lo) / (GRID_POINTS - 1)
    grid = [lo + k * step for k in range(GRID_POINTS - 1)] + [hi]
    values = [profile(u) for u in grid]
    # Ties go to the larger lambda: once every g_n rounds to 1 the profile
    # is flat, and its minimum then runs out to the upper edge.
    best = min(range(GRID_POINTS), key=lambda k: (values[k], -k))
    log_lam = _golden_section(profile, grid[max(best - 1, 0)], grid[min(best + 1, GRID_POINTS - 1)])
    converged = lo + LOG_LAMBDA_TOL < log_lam < hi - LOG_LAMBDA_TOL
    if converged:
        lam = math.exp(log_lam)
    else:
        lam = LAMBDA_MIN if log_lam - lo < hi - log_lam else LAMBDA_MAX
    params = SaturationParams(A=amplitude(lam)[0], lam=lam)
    sse = _sse(params, pairs)

    warnings = set()
    if params.A > 1.0 or params.lam * offsets[-1] < LINEAR_CURVATURE:
        warnings.add(LINEAR_REGIME)
    if params.A >= BOUNDARY_FRACTION * A_MAX:
        warnings.add(NEAR_BOUNDARY)
    if not converged:
        warnings.add(NOT_CONVERGED)

    return FitResult(
        params=params,
        log_likelihood=_log_likelihood(sse, len(pairs)),
        residual_rms=math.sqrt(sse / len(pairs)),
        points_used=len(pairs),
        converged=converged,
        warnings=frozenset(warnings),
        regime=regime,
    )
