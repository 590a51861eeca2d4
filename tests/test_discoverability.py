"""Discovery-probability bounds and persistence summaries."""

from __future__ import annotations

import csv
import logging
import math

import pytest

from codesurvival.discoverability import (
    DiscoverabilityBounds,
    bounds,
    discovery_probability,
    persistence_summary,
    write_bounds_csv,
)
from codesurvival.errors import UsageError
from codesurvival.fitting import FitResult
from codesurvival.model import SaturationParams, cumulative_change, instantaneous_rate
from codesurvival.reference import reference_fit


def fit_result(lam, A, group="g", metric="uloc", regime="all"):
    params = SaturationParams(A=A, lam=lam)
    return FitResult(
        params=params,
        log_likelihood=0.0,
        residual_rms=0.0,
        points_used=10,
        converged=True,
        warnings=frozenset(),
        regime=regime,
        group=group,
        metric=metric,
    )


# --- discovery_probability ----------------------------------------------------


def test_probability_evaluates_the_fitted_curve():
    row = reference_fit("gnu", "c", "file")
    assert discovery_probability(row.params, 2) == pytest.approx(0.8215234559040447, rel=1e-12)
    assert discovery_probability(fit_result(0.0369, 0.777), 10) == pytest.approx(
        0.23976245608011032, rel=1e-12
    )


def test_probability_clamps_and_warns(caplog):
    linear = SaturationParams(A=2.158, lam=0.00494)  # saturation level above 1
    with caplog.at_level(logging.WARNING, logger="codesurvival.discoverability"):
        assert discovery_probability(linear, 2000) == 1.0
    assert any("clamped" in record.message for record in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="codesurvival.discoverability"):
        assert discovery_probability(linear, 1) < 1.0
    assert not caplog.records


# --- bounds ---------------------------------------------------------------------


def test_bounds_pair_the_two_metrics():
    subtle = fit_result(0.0369, 0.777, group="cpp", metric="uloc")
    obvious = fit_result(0.302, 0.869, group="cpp", metric="file")
    result = bounds(subtle, obvious, 10)
    assert result.group == "cpp"
    assert result.subtle_label == "uloc"
    assert result.obvious_label == "file"
    assert result.subtle[0] == (0, 0.0)
    assert result.obvious[0] == (0, 0.0)
    assert result.subtle[-1][1] == pytest.approx(0.23976245608011032, rel=1e-12)
    assert result.obvious[-1][1] == pytest.approx(0.8265917412434107, rel=1e-12)
    assert not result.clamped
    assert result.ordering_violations == ()
    summary = result.summary()
    assert summary["horizon"] == 10
    assert summary["obvious_at_horizon"] == pytest.approx(0.8265917412434107, rel=1e-12)


def test_bounds_every_offset_matches_the_model():
    subtle = SaturationParams(A=0.5, lam=0.1)
    obvious = SaturationParams(A=0.9, lam=0.4)
    result = bounds(subtle, obvious, 8)
    for n, p in result.subtle:
        assert p == cumulative_change(subtle, n)
    for n, p in result.obvious:
        assert p == cumulative_change(obvious, n)


def test_bounds_identical_fits_coincide():
    params = SaturationParams(A=0.6, lam=0.2)
    result = bounds(params, params, 5)
    assert result.subtle == result.obvious
    assert result.ordering_violations == ()


def test_bounds_horizon_zero_is_a_single_point():
    result = bounds(SaturationParams(A=0.5, lam=0.1), SaturationParams(A=0.9, lam=0.4), 0)
    assert result.subtle == ((0, 0.0),)
    assert result.obvious == ((0, 0.0),)
    with pytest.raises(ValueError):
        bounds(SaturationParams(A=0.5, lam=0.1), SaturationParams(A=0.9, lam=0.4), -1)


def test_bounds_reject_mixed_groups():
    with pytest.raises(UsageError, match="fits describe different groups: 'cpp' vs 'js'"):
        bounds(fit_result(0.1, 0.5, group="cpp"), fit_result(0.3, 0.9, group="js"), 5)
    # Bare parameter sets carry no group, so nothing to conflict.
    assert bounds(fit_result(0.1, 0.5, group="cpp"), SaturationParams(A=0.9, lam=0.3), 5)


def test_bounds_record_ordering_violations():
    # An "obvious" curve below the subtle one is suspicious and flagged.
    subtle = SaturationParams(A=0.9, lam=0.5)
    obvious = SaturationParams(A=0.2, lam=0.1)
    result = bounds(subtle, obvious, 4)
    assert result.ordering_violations == (1, 2, 3, 4)
    assert result.summary()["ordering_violations"] == [1, 2, 3, 4]


def test_bounds_clamp_linear_regime_curves():
    linear = SaturationParams(A=2.0, lam=0.1)
    result = bounds(SaturationParams(A=0.5, lam=0.05), linear, 30)
    assert result.clamped
    assert result.obvious[-1][1] == 1.0


def test_bounds_offset_validation():
    good = tuple((n, 0.1 * n) for n in range(3))
    with pytest.raises(ValueError, match="share"):
        DiscoverabilityBounds(group="g", horizon=2, subtle=good, obvious=good[:-1])
    with pytest.raises(ValueError, match="0..horizon"):
        DiscoverabilityBounds(group="g", horizon=3, subtle=good, obvious=good)


# --- persistence_summary ----------------------------------------------------------


def test_persistence_half_life_crossing():
    summary = persistence_summary(SaturationParams(A=1.0, lam=math.log(2.0)), 10)
    assert summary.median_crossing == 1
    assert summary.undiscovered_mass == 0.0
    assert dict(summary.checkpoints)[2] == 0.75


def test_persistence_crossing_scans_past_rounding():
    assert persistence_summary(SaturationParams(A=0.6, lam=0.5), 20).median_crossing == 4
    assert persistence_summary(SaturationParams(A=2.0, lam=0.1), 20).median_crossing == 3


def test_persistence_without_crossing():
    row = reference_fit("firefox", "js", "uloc")  # saturates at 0.318
    summary = persistence_summary(row.params, 50)
    assert summary.median_crossing is None
    assert summary.undiscovered_mass == pytest.approx(0.682)


def test_persistence_subtle_code_outlives_the_horizon():
    row = reference_fit("glibc", "h", "uloc")
    summary = persistence_summary(row.params, 10)
    assert dict(summary.checkpoints)[10] == pytest.approx(0.061193379909853914, rel=1e-12)
    assert dict(summary.checkpoints)[10] <= 0.20


def test_persistence_checkpoints_respect_horizon():
    summary = persistence_summary(SaturationParams(A=0.5, lam=0.1), 3)
    assert [n for n, _ in summary.checkpoints] == [1, 2, 3]
    summary = persistence_summary(SaturationParams(A=0.5, lam=0.1), 30)
    assert [n for n, _ in summary.checkpoints] == [1, 2, 5, 10, 30]
    summary = persistence_summary(SaturationParams(A=0.5, lam=0.1), 10)
    assert [n for n, _ in summary.checkpoints] == [1, 2, 5, 10]


def test_persistence_metric_comes_from_the_fit():
    summary = persistence_summary(fit_result(0.1, 0.5, metric="file"), 5)
    assert summary.metric == "file"
    assert summary.horizon == 5


def test_persistence_horizon_validation():
    with pytest.raises(ValueError):
        persistence_summary(SaturationParams(A=0.5, lam=0.1), 0)


def test_hazard_declines_for_saturating_fits():
    # With A < 1 the conditional discovery rate p(n)/(1 - P(n)) falls
    # with age: surviving code is increasingly the settled kind.
    for A, lam in ((0.777, 0.0369), (0.318, 0.0541), (0.869, 0.302)):
        params = SaturationParams(A=A, lam=lam)
        hazards = [
            instantaneous_rate(params, n) / (1.0 - cumulative_change(params, n))
            for n in range(0, 40)
        ]
        assert all(a > b for a, b in zip(hazards, hazards[1:]))


# --- CSV emission ------------------------------------------------------------------


def test_bounds_csv_round_trips(tmp_path):
    result = bounds(SaturationParams(A=0.5, lam=0.1), SaturationParams(A=0.9, lam=0.4), 6)
    path = tmp_path / "bounds.csv"
    write_bounds_csv(result, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "subtle_P", "obvious_P"]
    assert len(rows) == 8
    for row, (n, subtle_p), (_, obvious_p) in zip(rows[1:], result.subtle, result.obvious):
        assert int(row[0]) == n
        assert float(row[1]) == subtle_p  # repr emission is lossless
        assert float(row[2]) == obvious_p
