"""Maximum-likelihood fitting by variable projection."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from codesurvival.errors import DataError, TooFewPointsError
from codesurvival.fitting import (
    A_MAX,
    LAMBDA_MAX,
    LAMBDA_MIN,
    LINEAR_REGIME,
    NEAR_BOUNDARY,
    NOT_CONVERGED,
    FitResult,
    fit_saturation,
    log_likelihood,
)
from codesurvival.model import SaturationParams, cumulative_change
from codesurvival.screening import FitPointSet


def model_points(A: float, lam: float, n_max: int) -> list[tuple[int, float]]:
    params = SaturationParams(A=A, lam=lam)
    return [(n, cumulative_change(params, n)) for n in range(1, n_max + 1)]


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


def test_fit_rejects_non_finite_data():
    with pytest.raises(DataError, match="not finite"):
        fit_saturation([(1, 0.1), (2, math.nan), (3, 0.2)])


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
    assert FitResult.from_dict(raw) == result


# --- against the simplex, and the edges of the lambda range ------------------


def all_pairs_points(A, lam, versions, noise, seed):
    """Every (baseline, later) pair of a history, as ``apply_plan`` pools them."""
    rng = random.Random(seed)
    params = SaturationParams(A=A, lam=lam)
    points = []
    for baseline in range(versions - 1):
        for n in range(1, versions - baseline):
            p = cumulative_change(params, n) + rng.gauss(0.0, noise)
            points.append((n, min(max(p, 0.0), 1.0)))
    return points


def sse(A, lam, points):
    return math.fsum((p - A * -math.expm1(-lam * n)) ** 2 for n, p in points)


# (A, lambda, versions, noise, seed) of a point set, and the (A, lambda)
# that a four-start Nelder-Mead simplex over (logit A/A_MAX, ln lambda),
# the fit this module used before variable projection, found on it.
SIMPLEX_FITS = [
    ((0.288, 0.0043, 7, 0.0, 0), 0.26868992030177175, 0.0046118716819345635),
    ((0.777, 0.0369, 44, 0.0, 0), 0.777010292746434, 0.036899286656071374),
    ((0.3, 0.2, 25, 0.0, 0), 0.30000143646621236, 0.19999732677359217),
    ((0.05, 2.5, 12, 0.0, 0), 0.05000084456697293, 2.4995262085216754),
    ((1.1, 0.01, 30, 0.0, 0), 1.0998681364656573, 0.010001376649975595),
    ((0.19, 0.0031, 7, 0.0, 0), 0.15275503923021477, 0.003862287382020765),
    ((0.777, 0.0369, 44, 0.01, 1), 0.7820665895854845, 0.036534460925551925),
    ((0.5, 0.3, 20, 0.03, 2), 0.49050237511185346, 0.3140493621794062),
    ((0.1, 0.005, 31, 0.002, 3), 0.0376087175400497, 0.014232687473658672),
    ((0.9, 1.5, 15, 0.05, 4), 0.9069401641348613, 1.3790866442149659),
    ((0.27, 0.0202, 7, 0.027, 5), 0.01989479226336255, 0.9863717641623907),
    ((0.6, 0.08, 60, 0.02, 6), 0.6005995559822186, 0.08019694253867664),
]


@pytest.mark.parametrize("case, simplex_A, simplex_lam", SIMPLEX_FITS)
def test_fit_residual_never_above_the_simplex(case, simplex_A, simplex_lam):
    points = all_pairs_points(*case)
    result = fit_saturation(points)
    # Equal minima may differ in their last bits of summation.
    assert sse(result.params.A, result.params.lam, points) <= sse(simplex_A, simplex_lam, points) * (1 + 1e-12)
    assert result.residual_rms == pytest.approx(
        math.sqrt(sse(result.params.A, result.params.lam, points) / len(points)), rel=1e-12
    )


def test_fit_recovers_a_nearly_linear_noiseless_history():
    # The simplex stopped 6.7% short of A here, at a residual below the
    # variance floor; the profile still has its minimum at the truth.
    result = fit_saturation(all_pairs_points(0.288, 0.0043, 7, 0.0, 0))
    assert result.converged
    assert result.params.A == pytest.approx(0.288, rel=1e-3)
    assert result.params.lam == pytest.approx(0.0043, rel=1e-3)


def test_fit_flags_a_rate_past_the_upper_edge():
    # Every version changes the same share at once: the curve is flat from
    # offset 1, so no lambda inside the range is best.
    result = fit_saturation([(n, 0.4) for n in range(1, 11)] * 3)
    assert NOT_CONVERGED in result.warnings
    assert not result.converged
    assert result.params.lam == LAMBDA_MAX
    assert result.params.A == pytest.approx(0.4, rel=1e-12)


def test_fit_flags_a_rate_past_the_lower_edge():
    # A straight line this shallow needs lambda = 1e-7 / A_MAX at the capped A.
    result = fit_saturation([(n, 1e-7 * n) for n in range(1, 11)])
    assert NOT_CONVERGED in result.warnings
    assert result.params.lam == LAMBDA_MIN


@pytest.mark.parametrize("lam", [1e-3, 5.0])
def test_fit_is_converged_inside_the_range(lam):
    result = fit_saturation(model_points(0.5, lam, 10))
    assert result.converged
    assert result.params.lam == pytest.approx(lam, rel=1e-6)
