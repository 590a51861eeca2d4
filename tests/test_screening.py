"""Jump detection, stabilization detection, and screening-plan application."""

from __future__ import annotations

import json
import random

import pytest

from codesurvival.errors import DataError, NothingToFitError, PlanError
from codesurvival.screening import (
    ISOLATED,
    REGIME_CHANGE,
    FitPointSet,
    JumpEvent,
    ScreeningPlan,
    apply_plan,
    detect_jumps,
    detect_stabilization,
    load_plan,
)
from codesurvival.survival import ChangeCurve, CurveFamily, MetricKind
from codesurvival.synth import analytic_family


def curve_from_diffs(ordinal, first, diffs):
    values = [first]
    for d in diffs:
        values.append(values[-1] + d)
    return ChangeCurve(
        baseline_ordinal=ordinal,
        baseline_label=f"v{ordinal}",
        points=tuple((n + 1, v) for n, v in enumerate(values)),
        baseline_size=1000,
    )


def family_of(*curves):
    return CurveFamily(software="t", group="x", metric=MetricKind.ULOC, curves=curves)


# --- detect_jumps ------------------------------------------------------------


def test_jumps_smooth_family_is_clean():
    assert detect_jumps(analytic_family(0.5, 0.02, 30)) == []
    assert detect_jumps(analytic_family(0.8, 0.05, 25)) == []


def test_jumps_isolated_event_is_found_and_classified():
    family = analytic_family(0.5, 0.02, 30, jumps={15: 0.2})
    events = detect_jumps(family)
    assert len(events) == 1
    event = events[0]
    assert event.ordinal == 15
    assert event.classification == ISOLATED
    assert event.group == "synthetic"
    assert event.metric == "uloc"
    assert event.magnitude == pytest.approx(0.2, abs=0.02)


def test_jumps_regime_change_is_classified():
    family = analytic_family(0.25, 0.02, 30, jumps={16: 0.15}, regime=(16, 3.0))
    events = detect_jumps(family)
    assert [e.ordinal for e in events] == [16]
    assert events[0].classification == REGIME_CHANGE


def test_jumps_finds_two_isolated_events():
    family = analytic_family(0.3, 0.015, 35, jumps={15: 0.15, 25: 0.1})
    events = detect_jumps(family)
    assert [e.ordinal for e in events] == [15, 25]
    assert all(e.classification == ISOLATED for e in events)


def test_jumps_are_translation_invariant():
    base = analytic_family(0.3, 0.02, 30, jumps={15: 0.1})
    shifted = CurveFamily(
        software=base.software,
        group=base.group,
        metric=base.metric,
        curves=tuple(
            ChangeCurve(
                baseline_ordinal=c.baseline_ordinal,
                baseline_label=c.baseline_label,
                points=tuple((n, p + 0.05) for n, p in c.points),
                baseline_size=c.baseline_size,
            )
            for c in base.curves
        ),
    )
    # Only differences between consecutive points matter, so a constant
    # offset on every curve flags the same versions (magnitudes may move
    # by rounding in the shifted subtractions).
    got, want = detect_jumps(shifted), detect_jumps(base)
    assert [(e.ordinal, e.classification) for e in got] == [
        (e.ordinal, e.classification) for e in want
    ]
    for g, w in zip(got, want):
        assert g.magnitude == pytest.approx(w.magnitude, rel=1e-12)


def test_jumps_need_a_strict_majority():
    smooth = [0.01] * 5
    spiked = [0.01, 0.2, 0.01, 0.01, 0.01]  # lands at version 3 from baseline 0
    minority = family_of(curve_from_diffs(0, 0.01, spiked), curve_from_diffs(1, 0.01, smooth))
    assert detect_jumps(minority) == []

    both = family_of(
        curve_from_diffs(0, 0.01, spiked),
        curve_from_diffs(1, 0.01, [0.2, 0.01, 0.01, 0.01, 0.01]),
    )
    events = detect_jumps(both)
    assert [e.ordinal for e in events] == [3]
    assert events[0].magnitude == pytest.approx(0.19)


def test_jumps_skip_short_curves():
    # Two- and one-point curves carry too few differences to judge.
    family = analytic_family(0.6, 0.05, 3, jumps={1: 0.3})
    assert detect_jumps(family) == []


def test_jumps_threshold_validation():
    family = analytic_family(0.5, 0.02, 10)
    with pytest.raises(ValueError):
        detect_jumps(family, abs_threshold=0.0)
    with pytest.raises(ValueError):
        detect_jumps(family, rel_factor=1.0)
    with pytest.raises(ValueError, match="empty"):
        detect_jumps(CurveFamily("t", "x", MetricKind.ULOC, ()))


def test_jump_event_validation():
    with pytest.raises(ValueError, match="magnitude"):
        JumpEvent(group="x", metric="uloc", ordinal=3, magnitude=0.0, classification=ISOLATED)
    with pytest.raises(ValueError, match="classification"):
        JumpEvent(group="x", metric="uloc", ordinal=3, magnitude=0.1, classification="spooky")


# --- detect_stabilization -----------------------------------------------------


def test_stabilization_homogeneous_family_starts_at_zero():
    assert detect_stabilization(analytic_family(0.4, 0.05, 20)) == 0


def test_stabilization_finds_burn_in_end():
    assert detect_stabilization(analytic_family(0.15, 0.02, 30, burn_in=(3, 5.0))) == 3
    assert detect_stabilization(analytic_family(0.2, 0.015, 30, burn_in=(18, 3.0))) == 18


def test_stabilization_rel_factor_sets_the_bar():
    family = analytic_family(0.2, 0.02, 30, burn_in=(4, 3.0))
    assert detect_stabilization(family) == 4
    # A laxer bar accepts the 3x-elevated early curves.
    assert detect_stabilization(family, rel_factor=4.0) == 0


def test_stabilization_needs_enough_curves():
    family = analytic_family(0.4, 0.05, 7)  # 6 curves < window + 2
    with pytest.raises(DataError, match="needs at least 7 usable curves"):
        detect_stabilization(family)
    assert detect_stabilization(family, trailing_window=3) == 0


# --- apply_plan ---------------------------------------------------------------


def family_points(family):
    return {
        (c.baseline_ordinal, n): p for c in family.curves for n, p in c.points
    }


def brute_force_plan(version_count, points, plan):
    """Independent pair-by-pair replay of the selection rules."""
    boundaries = [plan.stabilization_cut, *plan.regime_splits, version_count]
    out = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        label = "all" if not plan.regime_splits else f"v{lo}-v{hi - 1}"
        kept, dropped = [], 0
        for (i, n), p in sorted(points.items()):
            if not lo <= i < hi:
                continue
            j = i + n
            if j >= hi or any(i < e <= j for e in plan.excluded_ordinals):
                dropped += 1
            else:
                kept.append((n, p))
        if kept:
            out.append((label, sorted(kept), len({i for (i, n) in points if lo <= i < hi}), dropped))
    return out


def check_against_brute_force(family, plan):
    expected = brute_force_plan(
        max(c.baseline_ordinal + len(c.points) for c in family.curves) + 1,
        family_points(family),
        plan,
    )
    got = apply_plan(family, plan)
    assert [(s.regime, sorted(s.points), s.points_dropped) for s in got] == [
        (label, kept, dropped) for label, kept, _, dropped in expected
    ]
    return got


def test_plan_empty_is_identity():
    family = analytic_family(0.4, 0.05, 8)
    sets = apply_plan(family, ScreeningPlan())
    assert len(sets) == 1
    assert sets[0].regime == "all"
    assert sets[0].curves_used == 7
    assert sets[0].points_dropped == 0
    assert sorted(sets[0].points) == sorted(
        (n, p) for c in family.curves for n, p in c.points
    )


def test_plan_cut_drops_early_baselines():
    family = analytic_family(0.4, 0.05, 10)
    sets = apply_plan(family, ScreeningPlan(stabilization_cut=3))
    assert len(sets) == 1
    assert {i for i, _ in family_points(family)} == set(range(9))
    assert sets[0].curves_used == 6  # baselines 3..8
    assert len(sets[0].points) == sum(9 - i for i in range(3, 9))
    assert sets[0].points_dropped == 0


def test_plan_exclusion_drops_spanning_pairs():
    family = analytic_family(0.4, 0.05, 10)
    plan = ScreeningPlan(excluded_ordinals=(5,))
    sets = check_against_brute_force(family, plan)
    # Pairs (i, j) with i < 5 <= j are gone; each baseline below 5 keeps
    # only its offsets up to version 4.
    assert len(sets[0].points) == sum(4 - i for i in range(5)) + sum(9 - i for i in range(5, 9))
    assert sets[0].points_dropped == 45 - len(sets[0].points)


def test_plan_splits_partition_versions():
    family = analytic_family(0.4, 0.05, 12)
    plan = ScreeningPlan(stabilization_cut=2, excluded_ordinals=(5,), regime_splits=(8,))
    sets = check_against_brute_force(family, plan)
    assert [s.regime for s in sets] == ["v2-v7", "v8-v11"]


def test_plan_random_cross_check():
    rng = random.Random(1183)
    for _ in range(25):
        versions = rng.randint(6, 14)
        family = analytic_family(0.4, 0.05, versions)
        cut = rng.randint(0, 2)
        splits = (rng.randint(cut + 2, versions - 2),) if rng.random() < 0.5 else ()
        exclude = tuple(sorted(rng.sample(range(versions), rng.randint(0, 2))))
        plan = ScreeningPlan(
            stabilization_cut=cut, excluded_ordinals=exclude, regime_splits=splits
        )
        expected = brute_force_plan(versions, family_points(family), plan)
        if not expected:
            with pytest.raises(NothingToFitError):
                apply_plan(family, plan)
        else:
            check_against_brute_force(family, plan)


def test_plan_can_remove_everything():
    family = analytic_family(0.4, 0.05, 2)  # one curve, one point
    with pytest.raises(NothingToFitError):
        apply_plan(family, ScreeningPlan(excluded_ordinals=(1,)))
    with pytest.raises(NothingToFitError):
        apply_plan(CurveFamily("t", "x", MetricKind.ULOC, ()), ScreeningPlan())


def test_plan_scope_must_match_family():
    family = analytic_family(0.4, 0.05, 6, group="cpp")
    with pytest.raises(PlanError, match="metric"):
        apply_plan(family, ScreeningPlan(metric="file"))
    with pytest.raises(PlanError, match="group"):
        apply_plan(family, ScreeningPlan(group="js"))
    # Empty scope fields match anything.
    assert apply_plan(family, ScreeningPlan(metric="uloc", group="cpp"))


def test_plan_boundary_validation():
    family = analytic_family(0.4, 0.05, 6)
    with pytest.raises(PlanError, match="outside"):
        apply_plan(family, ScreeningPlan(excluded_ordinals=(6,)))
    with pytest.raises(PlanError, match="increasing"):
        apply_plan(family, ScreeningPlan(stabilization_cut=6))
    with pytest.raises(PlanError, match="increasing"):
        apply_plan(family, ScreeningPlan(stabilization_cut=3, regime_splits=(3,)))
    with pytest.raises(PlanError, match="increasing"):
        apply_plan(family, ScreeningPlan(regime_splits=(7,)))


def test_screening_plan_validation():
    with pytest.raises(PlanError):
        ScreeningPlan(stabilization_cut=-1)
    with pytest.raises(PlanError):
        ScreeningPlan(regime_splits=(5, 3))
    with pytest.raises(PlanError):
        ScreeningPlan(regime_splits=(3, 3))
    with pytest.raises(PlanError):
        ScreeningPlan(provenance="guesswork")


def test_fit_point_set_validation():
    with pytest.raises(ValueError, match="offset"):
        FitPointSet(regime="all", points=((0, 0.1),), curves_used=1, points_dropped=0)
    with pytest.raises(ValueError, match="range"):
        FitPointSet(regime="all", points=((1, -0.1),), curves_used=1, points_dropped=0)


# --- load_plan ----------------------------------------------------------------


def test_load_plan_reads_all_fields(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "software": "demo",
                "group": "cpp",
                "metric": "uloc",
                "cut": 3,
                "exclude": [14, 24],
                "splits": [16],
                "notes": "hand-checked",
            }
        ),
        encoding="utf-8",
    )
    plan = load_plan(path)
    assert plan.stabilization_cut == 3
    assert plan.excluded_ordinals == (14, 24)
    assert plan.regime_splits == (16,)
    assert plan.group == "cpp"
    assert plan.metric == "uloc"
    assert plan.software == "demo"
    assert plan.provenance == "manual"
    assert plan.notes == "hand-checked"


def test_load_plan_defaults(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{}", encoding="utf-8")
    assert load_plan(path) == ScreeningPlan()


def test_load_plan_errors(tmp_path):
    with pytest.raises(PlanError, match="not found"):
        load_plan(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(PlanError, match="parse"):
        load_plan(bad)
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"cut": "three"}), encoding="utf-8")
    with pytest.raises(PlanError, match="malformed"):
        load_plan(malformed)
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"cut": -2}), encoding="utf-8")
    with pytest.raises(PlanError):
        load_plan(negative)
