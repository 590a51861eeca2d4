"""The published parameter rows and their internal consistency."""

from __future__ import annotations

import pytest

from codesurvival.model import base_rate
from codesurvival.reference import REFERENCE_FITS, reference_fit


def test_nineteen_rows_across_three_corpora():
    assert len(REFERENCE_FITS) == 19
    by_software = {}
    for row in REFERENCE_FITS:
        by_software.setdefault(row.software, []).append(row)
    assert len(by_software["firefox"]) == 6
    assert len(by_software["gnu"]) == 4
    assert len(by_software["glibc"]) == 9


def test_base_rate_identity_vs_published_rounding():
    # Published base rates are rounded; the product A * lambda must agree
    # within 1.5% relative on every row.
    for row in REFERENCE_FITS:
        derived = base_rate(row.params)
        assert derived == pytest.approx(row.published_base_rate, rel=0.015), (
            row.software,
            row.group,
            row.metric,
            row.regime,
        )


def test_spot_check_products():
    assert 0.302 * 0.869 == pytest.approx(0.262, abs=5e-4)
    assert 0.917 * 0.972 == pytest.approx(0.891, abs=5e-4)
    # glibc sh recent regime is the loosest row: 1.46 * 0.915 = 1.3359 vs 1.33
    row = reference_fit("glibc", "sh", "file", "recent")
    assert row.lam * row.A == pytest.approx(1.33, rel=0.005)


def test_lookup():
    row = reference_fit("firefox", "cpp", "uloc")
    assert (row.A, row.lam) == (0.777, 0.0369)
    assert row.params.A == 0.777
    with pytest.raises(KeyError):
        reference_fit("firefox", "cpp", "file", "old")


def test_split_regimes_only_for_glibc_files():
    split_rows = [r for r in REFERENCE_FITS if r.regime != "all"]
    assert all(r.software == "glibc" and r.metric == "file" for r in split_rows)
    for group in ("c", "h", "sh"):
        assert reference_fit("glibc", group, "file", "old")
        assert reference_fit("glibc", group, "file", "recent")
