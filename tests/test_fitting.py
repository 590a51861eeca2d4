"""Simplex optimizer and maximum-likelihood fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from codesurvival import (
    FitPointSet,
    SaturationParams,
    cumulative_change,
    fit_saturation,
    log_likelihood,
    neldermead_minimize,
)
from codesurvival.errors import DataError, TooFewPointsError
from codesurvival import fitting
from codesurvival.fitting import A_MAX, LINEAR_REGIME, NEAR_BOUNDARY


def model_points(A: float, lam: float, n_max: int) -> list[tuple[int, float]]:
    params = SaturationParams(A=A, lam=lam)
    return [(n, cumulative_change(params, n)) for n in range(1, n_max + 1)]


# --- neldermead_minimize ---------------------------------------------------


def test_simplex_minimizes_shifted_quadratic():
    x, value, converged = neldermead_minimize(
        lambda v: (v[0] - 3.0) ** 2 + (v[1] + 1.0) ** 2, [0.0, 0.0]
    )
    assert converged
    assert value < 1e-9
    assert x == pytest.approx([3.0, -1.0], abs=1e-6)


def test_simplex_minimizes_rosenbrock():
    def rosenbrock(v):
        return 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2

    x, value, converged = neldermead_minimize(rosenbrock, [-1.2, 1.0])
    assert converged
    assert value < 1e-9
    assert x == pytest.approx([1.0, 1.0], abs=1e-3)


def test_simplex_one_dimensional():
    x, value, converged = neldermead_minimize(lambda v: (v[0] - 7.0) ** 4, [0.0])
    assert converged
    assert x[0] == pytest.approx(7.0, abs=1e-2)


def test_simplex_is_deterministic():
    objective = lambda v: (v[0] - 1.0) ** 2 + 0.5 * (v[1] - 2.0) ** 2  # noqa: E731
    first = neldermead_minimize(objective, [5.0, 5.0])
    second = neldermead_minimize(objective, [5.0, 5.0])
    assert first[0].tolist() == second[0].tolist()
    assert first[1:] == second[1:]


def test_simplex_rejects_non_finite_start():
    with pytest.raises(DataError, match="non-finite at start"):
        neldermead_minimize(lambda v: float(v[0] ** 2), [math.nan])
    with pytest.raises(DataError, match="non-finite at start"):
        neldermead_minimize(lambda v: math.inf if v[0] == 0.0 else 1.0 / v[0], [0.0])


def test_simplex_survives_non_finite_regions():
    # Objective blows up away from the minimum; treated as +inf, not an error.
    def objective(v):
        if abs(v[0]) > 10.0:
            return math.inf
        return (v[0] - 2.0) ** 2

    x, value, converged = neldermead_minimize(objective, [9.5])
    assert converged
    assert x[0] == pytest.approx(2.0, abs=1e-3)


def test_simplex_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 3)
    _, _, converged = neldermead_minimize(
        lambda v: (v[0] - 3.0) ** 2 + (v[1] + 1.0) ** 2, [50.0, 50.0]
    )
    assert not converged


# --- log_likelihood --------------------------------------------------------


def test_log_likelihood_noiseless_hits_variance_floor():
    params = SaturationParams(A=1.0, lam=math.log(2.0))
    points = [(1, 0.5), (2, 0.75)]
    assert log_likelihood(params, points) == pytest.approx(24.7931440495, rel=1e-10)


def test_log_likelihood_with_residuals():
    params = SaturationParams(A=1.0, lam=math.log(2.0))
    # residuals 0.1 and -0.05, sigma^2 = 0.00625
    points = [(1, 0.6), (2, 0.7)]
    assert log_likelihood(params, points) == pytest.approx(2.2372967488, rel=1e-9)


def test_log_likelihood_prefers_better_parameters():
    truth = SaturationParams(A=0.5, lam=0.3)
    points = model_points(0.5, 0.3, 20)
    worse = SaturationParams(A=0.4, lam=0.5)
    assert log_likelihood(truth, points) > log_likelihood(worse, points)


def test_log_likelihood_needs_two_points():
    with pytest.raises(TooFewPointsError):
        log_likelihood(SaturationParams(A=0.5, lam=0.1), [(1, 0.1)])


# --- fit_saturation --------------------------------------------------------


def test_fit_recovers_noiseless_parameters():
    result = fit_saturation(model_points(0.3, 0.2, 25))
    assert result.params.A == pytest.approx(0.3, rel=1e-3)
    assert result.params.lam == pytest.approx(0.2, rel=1e-3)
    assert result.converged
    assert result.warnings == frozenset()
    assert result.residual_rms < 1e-5


def test_fit_accepts_point_set_and_keeps_regime_label():
    points = FitPointSet(
        regime="v3-v20",
        points=tuple(model_points(0.4, 0.15, 15)),
        curves_used=3,
        points_dropped=0,
    )
    result = fit_saturation(points)
    assert result.regime == "v3-v20"
    assert result.params.A == pytest.approx(0.4, rel=1e-3)


def test_fit_loglik_matches_function():
    points = model_points(0.6, 0.1, 20)
    result = fit_saturation(points)
    assert result.log_likelihood == log_likelihood(result.params, points)
    assert result.points_used == 20


def test_fit_is_deterministic_per_seed():
    points = model_points(0.5, 0.08, 30)
    first = fit_saturation(points, seed=5)
    second = fit_saturation(points, seed=5)
    assert first == second


def test_fit_flags_linear_regime_for_flat_curvature():
    # lambda * n_max = 0.04: the exponential never bends over the data.
    result = fit_saturation(model_points(2.5, 0.004, 10))
    assert LINEAR_REGIME in result.warnings
    # Only the product A*lambda is identified there; it must still be right.
    assert result.params.base_rate == pytest.approx(0.01, rel=0.05)


def test_fit_flags_saturation_at_bound():
    # Data saturates at 3.5 but A_MAX caps the level at 3.0.
    result = fit_saturation(model_points(3.5, 0.5, 20))
    assert NEAR_BOUNDARY in result.warnings
    assert result.params.A < A_MAX
    assert result.params.A == pytest.approx(A_MAX, rel=1e-3)


def test_fit_never_exceeds_a_max():
    result = fit_saturation(model_points(2.5, 0.3, 20))
    assert result.params.A < A_MAX
    assert result.params.A == pytest.approx(2.5, rel=1e-3)


def test_fit_rejects_all_zero_data():
    with pytest.raises(DataError, match="every observed changed fraction is zero"):
        fit_saturation([(1, 0.0), (2, 0.0), (3, 0.0)])


def test_fit_rejects_too_few_points():
    with pytest.raises(TooFewPointsError):
        fit_saturation([(1, 0.1), (2, 0.15)])
    with pytest.raises(TooFewPointsError):
        fit_saturation([(3, 0.1), (3, 0.11), (3, 0.09)])


def test_fit_handles_pooled_noisy_points():
    rng = np.random.default_rng(42)
    truth = SaturationParams(A=0.7, lam=0.12)
    points = []
    for _ in range(8):
        for n in range(1, 25):
            noisy = cumulative_change(truth, n) + rng.normal(0.0, 0.004)
            points.append((n, min(max(noisy, 0.0), 1.0)))
    result = fit_saturation(points)
    assert result.params.A == pytest.approx(0.7, abs=0.02)
    assert result.params.lam == pytest.approx(0.12, rel=0.05)


def test_fit_result_dict_round_trip():
    result = fit_saturation(model_points(0.3, 0.2, 25))
    raw = result.to_dict()
    assert raw["base_rate"] == raw["A"] * raw["lambda"]
    from codesurvival.fitting import FitResult

    assert FitResult.from_dict(raw) == result

