"""Saturation-model arithmetic against hand-derived values."""

from __future__ import annotations

import math
import random

import pytest

from codesurvival.model import SaturationParams, base_rate, cumulative_change, instantaneous_rate

CPP_ULOC = SaturationParams(A=0.777, lam=0.0369)


def test_cumulative_change_is_zero_at_offset_zero():
    for params in (CPP_ULOC, SaturationParams(A=2.1, lam=0.004)):
        assert cumulative_change(params, 0) == 0.0


def test_cumulative_change_known_values():
    # 0.777 * (1 - e^(-0.0369 * 44)), the ~60% reached over 44 releases
    assert cumulative_change(CPP_ULOC, 44) == pytest.approx(0.6237852778, rel=1e-9)
    # 0.276 * (1 - e^(-0.158 * 5))
    old_c_files = SaturationParams(A=0.276, lam=0.158)
    assert cumulative_change(old_c_files, 5) == pytest.approx(0.1507388365, rel=1e-8)


def test_cumulative_change_not_clamped_above_one():
    linear = SaturationParams(A=2.158, lam=0.00494)
    assert cumulative_change(linear, 500) > 1.0


def test_instantaneous_rate_known_values():
    # 0.777 * 0.0369 * e^(-0.369)
    assert instantaneous_rate(CPP_ULOC, 10) == pytest.approx(0.0198240654, rel=1e-8)
    assert instantaneous_rate(CPP_ULOC, 0) == base_rate(CPP_ULOC)


def test_instantaneous_rate_strictly_decreasing():
    rng = random.Random(11)
    for _ in range(50):
        params = SaturationParams(A=rng.uniform(0.05, 2.5), lam=rng.uniform(0.005, 2.0))
        rates = [instantaneous_rate(params, n) for n in range(30)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_cumulative_change_monotone_nondecreasing():
    rng = random.Random(12)
    for _ in range(50):
        params = SaturationParams(A=rng.uniform(0.05, 2.5), lam=rng.uniform(0.005, 2.0))
        n1 = rng.uniform(0, 40)
        n2 = n1 + rng.uniform(0, 10)
        assert cumulative_change(params, n2) >= cumulative_change(params, n1)


def test_base_rate_is_product():
    params = SaturationParams(A=0.302, lam=0.869)
    assert base_rate(params) == params.A * params.lam
    assert params.base_rate == base_rate(params)


def test_rate_decays_exponentially_from_base_rate():
    rng = random.Random(13)
    for _ in range(20):
        params = SaturationParams(A=rng.uniform(0.1, 1.5), lam=rng.uniform(0.01, 1.0))
        n = rng.uniform(0, 30)
        expected = base_rate(params) * math.exp(-params.lam * n)
        assert instantaneous_rate(params, n) == pytest.approx(expected, rel=1e-12)


def test_negative_offset_rejected():
    with pytest.raises(ValueError):
        cumulative_change(CPP_ULOC, -1)
    with pytest.raises(ValueError):
        instantaneous_rate(CPP_ULOC, -0.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SaturationParams(A=0.0, lam=0.1)
    with pytest.raises(ValueError):
        SaturationParams(A=-0.5, lam=0.1)
    with pytest.raises(ValueError):
        SaturationParams(A=0.5, lam=0.0)
    with pytest.raises(ValueError):
        SaturationParams(A=0.5, lam=-0.1)
