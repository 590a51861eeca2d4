"""Maximum-likelihood fitting of the saturation model.

The observed changed fractions are modeled as the saturation curve plus
Gaussian noise whose variance is profiled at its own MLE (the mean
squared residual), so maximizing the log-likelihood coincides with
least squares.  Optimization runs over unconstrained coordinates
(a, l) with A = A_MAX * sigmoid(a) and lambda = exp(l), which keeps the
parameters inside their bounds without penalty terms, and uses a
self-contained Nelder-Mead downhill simplex that stops after
MAX_ITERATIONS steps.  A_MAX = 3.0 and MAX_ITERATIONS = 500 suit pooled
change curves; the restart seed is the only setting a caller passes.

Fits in a near-linear regime (A above 1, or so little curvature that
lambda * n_max < 0.2) carry the LinearRegime warning; for those the
base rate A*lambda should be read as the constant per-version rate of
change over the observed range, not as a rate that decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, TooFewPointsError
from .model import SaturationParams
from .screening import FitPointSet

__all__ = [
    "LINEAR_REGIME",
    "NEAR_BOUNDARY",
    "NOT_CONVERGED",
    "FitResult",
    "log_likelihood",
    "neldermead_minimize",
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

#: Simplex diameter guard on convergence.  The objective spread alone is
#: blind to a simplex straddling a symmetric minimum (equal values at
#: equal distance on both sides), so vertices must also have collapsed.
DIAMETER_TOL = 1e-7

#: Standard Nelder-Mead simplex coefficients.
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5

#: The simplex has converged once its objective values spread less than
#: this (and its diameter is below DIAMETER_TOL).
CONVERGENCE_TOL = 1e-10

#: Simplex steps before a run stops and reports non-convergence.
MAX_ITERATIONS = 500

#: Jittered starts tried after the data-driven one.
RESTARTS = 3


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
        return cls(
            params=SaturationParams(A=raw["A"], lam=raw["lambda"]),
            log_likelihood=raw["loglik"],
            residual_rms=raw["rms"],
            points_used=raw["n_points"],
            converged=raw["converged"],
            warnings=frozenset(raw.get("warnings", ())),
            regime=raw.get("regime", "all"),
            group=raw.get("group", ""),
            metric=raw.get("metric", ""),
        )


def _point_arrays(points: FitPointSet | Iterable[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(points, FitPointSet):
        points = points.points
    pairs = list(points)
    ns = np.array([n for n, _ in pairs], dtype=float)
    ps = np.array([p for _, p in pairs], dtype=float)
    return ns, ps


def log_likelihood(params: SaturationParams, points: FitPointSet | Iterable[tuple[int, float]]) -> float:
    """Profiled Gaussian log-likelihood of a point set under the model.

    With sigma^2 set to the mean squared residual (floored at 1e-12),
    this equals -(m/2) * (ln(2 pi sigma^2) + 1); larger is better and
    the maximizer coincides with the least-squares parameters.
    """
    ns, ps = _point_arrays(points)
    if ns.size < 2:
        raise TooFewPointsError(f"log-likelihood needs >= 2 points, got {ns.size}")
    resid = ps - params.A * -np.expm1(-params.lam * ns)
    sigma2 = max(float(np.mean(resid**2)), SIGMA2_FLOOR)
    return -0.5 * ns.size * (math.log(2.0 * math.pi * sigma2) + 1.0)


def neldermead_minimize(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    *,
    initial_step: float = 0.25,
) -> tuple[np.ndarray, float, bool]:
    """Standard downhill-simplex minimization of a d-dimensional objective.

    Iterates order / reflect / expand / contract / shrink with the
    standard coefficients until the spread of objective values across
    the simplex drops below ``CONVERGENCE_TOL`` or ``MAX_ITERATIONS`` is
    hit.  A small diameter guard keeps a simplex that straddles a
    symmetric minimum from stopping early on equal values.  Deterministic
    given start and step.  Returns (argmin, value, converged).
    """

    def f(x: np.ndarray) -> float:
        value = float(objective(x))
        return value if math.isfinite(value) else math.inf

    x0 = np.asarray(start, dtype=float)
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise DataError(f"objective is non-finite at start {x0.tolist()}")
    dim = x0.size
    simplex: list[tuple[np.ndarray, float]] = [(x0, f0)]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] += initial_step
        simplex.append((vertex, f(vertex)))

    converged = False
    for _ in range(MAX_ITERATIONS):
        simplex.sort(key=lambda vf: vf[1])
        spread = simplex[-1][1] - simplex[0][1]
        diameter = max(float(np.max(np.abs(v - simplex[0][0]))) for v, _ in simplex[1:])
        if spread < CONVERGENCE_TOL and diameter < DIAMETER_TOL:
            converged = True
            break
        best, second_worst, worst = simplex[0], simplex[-2], simplex[-1]
        centroid = np.mean([v for v, _ in simplex[:-1]], axis=0)

        xr = centroid + REFLECTION * (centroid - worst[0])
        fr = f(xr)
        if best[1] <= fr < second_worst[1]:
            simplex[-1] = (xr, fr)
            continue
        if fr < best[1]:
            xe = centroid + EXPANSION * (xr - centroid)
            fe = f(xe)
            simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        if fr < worst[1]:
            xc = centroid + CONTRACTION * (xr - centroid)
            fc = f(xc)
            if fc <= fr:
                simplex[-1] = (xc, fc)
                continue
        else:
            xc = centroid + CONTRACTION * (worst[0] - centroid)
            fc = f(xc)
            if fc < worst[1]:
                simplex[-1] = (xc, fc)
                continue
        anchor = simplex[0][0]
        simplex = [simplex[0]] + [
            (anchor + SHRINK * (v - anchor), f(anchor + SHRINK * (v - anchor)))
            for v, _ in simplex[1:]
        ]

    simplex.sort(key=lambda vf: vf[1])
    return simplex[0][0], simplex[0][1], converged


def _sigmoid(a: float | np.ndarray) -> float | np.ndarray:
    return np.where(
        np.asarray(a) >= 0,
        1.0 / (1.0 + np.exp(-np.abs(a))),
        np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))),
    )


def _decode(theta: np.ndarray) -> SaturationParams:
    # Clamp so the amplitude stays strictly inside (0, A_MAX) even when the
    # optimizer pushes the logistic into its rounded-to-1.0 tail.
    fraction = min(max(float(_sigmoid(theta[0])), 1e-12), 1.0 - 1e-12)
    return SaturationParams(A=A_MAX * fraction, lam=math.exp(theta[1]))


def fit_saturation(
    points: FitPointSet | Iterable[tuple[int, float]],
    *,
    seed: int = 0,
) -> FitResult:
    """Fit (A, lambda) to pooled change points by maximum likelihood.

    Runs the simplex from a data-driven start plus ``RESTARTS`` jittered
    starts (seeded, deterministic), keeps the best objective (ties break
    to the earliest run), then polishes with one small-step run.  Never
    fails silently: non-convergence is reported through the NotConverged
    warning on the result.
    """
    regime = points.regime if isinstance(points, FitPointSet) else "all"
    ns, ps = _point_arrays(points)
    if ns.size < 3 or np.unique(ns).size < 2:
        raise TooFewPointsError(
            f"fit needs >= 3 points spanning >= 2 distinct offsets, got {ns.size} points "
            f"on {np.unique(ns).size} offset(s)"
        )
    max_p = float(ps.max())
    if max_p == 0.0:
        raise DataError("every observed changed fraction is zero")

    m = ns.size

    def objective(theta: np.ndarray) -> float:
        params = _decode(theta)
        resid = ps - params.A * -np.expm1(-params.lam * ns)
        sigma2 = max(float(np.mean(resid**2)), SIGMA2_FLOOR)
        return 0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)

    a0_value = min(1.2 * max_p, BOUNDARY_FRACTION * A_MAX)
    ratio = a0_value / A_MAX
    a0 = math.log(ratio / (1.0 - ratio))
    n1 = float(ns.min())
    p1 = float(ps[ns == n1].mean())
    lam0 = max(-math.log1p(-p1 / a0_value) / n1, 1e-4)
    start = np.array([a0, math.log(lam0)])

    rng = np.random.default_rng(seed)
    starts = [start] + [start + rng.normal(0.0, 0.5, size=2) for _ in range(RESTARTS)]
    best: tuple[float, int, np.ndarray, bool] | None = None
    for k, theta in enumerate(starts):
        x, fx, conv = neldermead_minimize(objective, theta)
        if best is None or fx < best[0]:
            best = (fx, k, x, conv)
    assert best is not None
    x, _, converged = neldermead_minimize(objective, best[2], initial_step=0.05)

    params = _decode(x)
    resid = ps - params.A * -np.expm1(-params.lam * ns)
    rms = math.sqrt(float(np.mean(resid**2)))
    n_max = float(ns.max())

    warnings = set()
    if params.A > 1.0 or params.lam * n_max < LINEAR_CURVATURE:
        warnings.add(LINEAR_REGIME)
    if params.A >= BOUNDARY_FRACTION * A_MAX:
        warnings.add(NEAR_BOUNDARY)
    if not converged:
        warnings.add(NOT_CONVERGED)

    return FitResult(
        params=params,
        log_likelihood=log_likelihood(params, zip(ns.astype(int), ps)),
        residual_rms=rms,
        points_used=m,
        converged=converged,
        warnings=frozenset(warnings),
        regime=regime,
    )
