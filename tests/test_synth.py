"""Synthetic corpus generation and the analytic curve-family builder."""

from __future__ import annotations

import hashlib
import math

import pytest

from codesurvival.curves import MetricKind
from codesurvival.ingest import ExtensionGroup, scan_corpus, scan_version
from codesurvival.model import SaturationParams, cumulative_change
from codesurvival.screening import ISOLATED, detect_jumps, detect_stabilization
from codesurvival.survival import build_curve_family
from codesurvival.synth import (
    SynthSpec,
    analytic_family,
    derive_mutation_prob,
    expected_curve,
    generate,
    write_expected_csv,
)

SYN = ExtensionGroup(name="syn", extensions=(".txt",))


def make_spec(**overrides):
    base = dict(
        A=0.6,
        lam=0.08,
        versions=8,
        lines_per_version=2000,
        files=10,
        group=SYN,
        seed=42,
    )
    base.update(overrides)
    return SynthSpec(**base)


def measured_family(spec, out):
    """The uloc family of a corpus generated into ``out``, scanned into out/store."""
    manifest = generate(spec, out)
    list(scan_corpus(manifest, out / "store"))
    return build_curve_family(out / "store", spec.group.name, MetricKind.ULOC)


# --- derive_mutation_prob -----------------------------------------------------


def test_mutation_prob_oracles():
    assert derive_mutation_prob(math.log(2.0)) == 0.5
    assert derive_mutation_prob(0.0369) == pytest.approx(0.03622749221887035, rel=1e-15)
    # Survival over n steps composes: (1 - q)^n = e^(-lambda*n).
    q = derive_mutation_prob(0.3)
    assert (1.0 - q) ** 5 == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_mutation_prob_rejects_bad_lambda():
    with pytest.raises(ValueError):
        derive_mutation_prob(0.0)
    with pytest.raises(ValueError):
        derive_mutation_prob(-1.0)


# --- expected_curve -----------------------------------------------------------


def test_expected_curve_matches_model():
    spec = make_spec(A=0.5, lam=0.1, versions=12)
    curve = expected_curve(spec, 10)
    assert curve[0] == (0, 0.0)
    assert curve[10][1] == pytest.approx(0.31606027941427883, rel=1e-15)
    params = SaturationParams(A=0.5, lam=0.1)
    for n, p in curve:
        assert p == cumulative_change(params, n)


def test_expected_curve_horizon_bounds():
    spec = make_spec(versions=8)
    assert len(expected_curve(spec, 7)) == 8
    with pytest.raises(ValueError):
        expected_curve(spec, 8)
    with pytest.raises(ValueError):
        expected_curve(spec, -1)


def test_expected_csv_round_trips(tmp_path):
    import csv

    spec = make_spec(A=0.5, lam=0.1, versions=12)
    path = tmp_path / "expected.csv"
    write_expected_csv(spec, 10, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["offset", "expected_changed_fraction"]
    assert [int(r[0]) for r in rows[1:]] == list(range(11))
    assert [float(r[1]) for r in rows[1:]] == [p for _, p in expected_curve(spec, 10)]


# --- SynthSpec validation -------------------------------------------------------


def test_spec_validation():
    for bad in (
        dict(A=-0.1),
        dict(A=1.1),
        dict(lam=0.0),
        dict(versions=1),
        dict(lines_per_version=0),
        dict(files=0),
        dict(files=3000),
        dict(jumps=((0, 0.5),)),
        dict(jumps=((8, 0.5),)),
        dict(jumps=((3, 0.0),)),
        dict(jumps=((3, 1.5),)),
        dict(burn_in=(8, 2.0)),
        dict(burn_in=(2, 0.5)),
        # Line ids must fit 12 digits: lines x (versions + jumps) < 10**12.
        dict(lines_per_version=1_000_000, versions=1_000_000),
        dict(lines_per_version=1_000_000, versions=999_999, jumps=((3, 0.5),)),
    ):
        with pytest.raises(ValueError):
            make_spec(**bad)
    make_spec(lines_per_version=1_000_000, versions=999_999)


# --- generate -------------------------------------------------------------------


def test_generate_writes_expected_layout(tmp_path):
    spec = make_spec(versions=3, lines_per_version=100, files=7)
    manifest = generate(spec, tmp_path / "corpus")
    assert manifest.software == "synthetic"
    assert [v.label for v in manifest.versions] == ["v0", "v1", "v2"]
    assert (tmp_path / "corpus" / "v000").is_dir()
    snap = scan_version(manifest.versions[0].source, manifest.groups)
    assert snap.groups["syn"].file_count == 7
    # Every line is a unique token, so uloc equals the line budget.
    assert snap.groups["syn"].uloc_count == 100


def test_generate_is_deterministic(tmp_path):
    spec = make_spec(versions=4, lines_per_version=500)
    generate(spec, tmp_path / "one")
    generate(spec, tmp_path / "two")
    one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
    assert one == two
    for rel in one:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def _tree_digest(root):
    """blake2b-128 over every file's relative path and bytes, in sorted order."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.blake2b(path.read_bytes(), digest_size=16).digest())
    return h.hexdigest()


@pytest.mark.parametrize(
    "overrides, digest",
    [
        # 9 lines in 4 files: three files of 3 lines and an empty last file.
        (dict(lam=0.3, versions=5, lines_per_version=9, files=4), "9fb74b8ac0d5a1937c8c5653dbf34133"),
        (
            dict(A=0.5, lam=0.1, versions=7, lines_per_version=50, files=6, seed=9,
                 burn_in=(2, 3.0), jumps=((3, 0.4), (5, 0.25))),
            "af8118acfc96357531f5e7ad76efb32b",
        ),
    ],
    ids=["uneven-files", "jumps-burn-in"],
)
def test_generate_golden_bytes(tmp_path, overrides, digest):
    # Pins the corpus bytes, not just their repeatability: a faster writer
    # or a reordered random draw must not change any corpus.
    generate(make_spec(**overrides), tmp_path / "corpus")
    assert _tree_digest(tmp_path / "corpus") == digest


def test_generate_immutable_corpus_never_changes(tmp_path):
    spec = make_spec(A=0.0, versions=5, lines_per_version=200, files=4)
    family = measured_family(spec, tmp_path / "corpus")
    assert all(p == 0.0 for c in family.curves for _, p in c.points)


def test_generate_fully_mutable_half_life(tmp_path):
    # With A=1 and lambda=ln 2, half of all lines change per version.
    spec = make_spec(
        A=1.0, lam=math.log(2.0), versions=3, lines_per_version=100_000, files=20, seed=7
    )
    family = measured_family(spec, tmp_path / "corpus")
    assert family.curves[0].fraction_at(1) == pytest.approx(0.5, abs=0.005)
    assert family.curves[0].fraction_at(2) == pytest.approx(0.75, abs=0.005)
    assert family.curves[1].fraction_at(1) == pytest.approx(0.5, abs=0.005)


def test_generate_tracks_expected_curve(tmp_path):
    spec = make_spec(lines_per_version=20_000, seed=3)
    family = measured_family(spec, tmp_path / "corpus")
    expected = dict(expected_curve(spec, spec.versions - 1))
    for curve in family.curves:
        for n, p in curve.points:
            assert p == pytest.approx(expected[n], abs=0.015)
        # Replaced lines never come back, so curves are monotone.
        values = [p for _, p in curve.points]
        assert values == sorted(values)


def test_generate_jump_is_detectable(tmp_path):
    spec = make_spec(
        A=0.5, lam=0.03, versions=12, lines_per_version=20_000, jumps=((6, 0.4),), seed=11
    )
    events = detect_jumps(measured_family(spec, tmp_path / "corpus"))
    assert [e.ordinal for e in events] == [6]
    assert events[0].classification == ISOLATED
    assert events[0].magnitude > 0.3


def test_generate_burn_in_is_detectable(tmp_path):
    spec = make_spec(
        A=1.0, lam=0.05, versions=10, lines_per_version=20_000, burn_in=(2, 8.0), seed=5
    )
    family = measured_family(spec, tmp_path / "corpus")
    assert detect_stabilization(family) == 2


# --- analytic_family ------------------------------------------------------------


def test_analytic_family_matches_model():
    family = analytic_family(0.3, 0.2, 10, group="g", software="s")
    assert family.group == "g"
    assert family.software == "s"
    assert len(family.curves) == 9
    assert [len(c.points) for c in family.curves] == list(range(9, 0, -1))
    params = SaturationParams(A=0.3, lam=0.2)
    for curve in family.curves:
        for n, p in curve.points:
            assert p == pytest.approx(cumulative_change(params, n), rel=1e-12)


def test_analytic_family_jump_shifts_later_points():
    plain = analytic_family(0.3, 0.2, 8)
    jumped = analytic_family(0.3, 0.2, 8, jumps={4: 0.1})
    for c0, c1 in zip(plain.curves, jumped.curves):
        for (n, p0), (_, p1) in zip(c0.points, c1.points):
            # Only pairs spanning the jump (i < 4 <= i+n) are shifted.
            if c0.baseline_ordinal < 4 <= c0.baseline_ordinal + n:
                assert p1 == pytest.approx(p0 + 0.1, rel=1e-12)
            else:
                assert p1 == p0


def test_analytic_family_regime_scales_differences():
    plain = analytic_family(0.2, 0.1, 8)
    shifted = analytic_family(0.2, 0.1, 8, regime=(5, 3.0))

    def diffs(curve):
        values = [0.0] + [p for _, p in curve.points]
        return {curve.baseline_ordinal + k + 1: b - a for k, (a, b) in enumerate(zip(values, values[1:]))}

    for c0, c1 in zip(plain.curves, shifted.curves):
        for target, d0 in diffs(c0).items():
            d1 = diffs(c1)[target]
            factor = 3.0 if target >= 5 else 1.0
            assert d1 == pytest.approx(factor * d0, rel=1e-12)


def test_analytic_family_burn_in_scales_whole_curves():
    plain = analytic_family(0.2, 0.1, 8)
    burned = analytic_family(0.2, 0.1, 8, burn_in=(3, 2.5))
    for c0, c1 in zip(plain.curves, burned.curves):
        factor = 2.5 if c0.baseline_ordinal < 3 else 1.0
        for (n, p0), (_, p1) in zip(c0.points, c1.points):
            assert p1 == pytest.approx(factor * p0, rel=1e-12)


def test_analytic_family_stamps_metadata():
    family = analytic_family(0.2, 0.1, 4, metric=MetricKind.FILE, baseline_size=77)
    assert family.metric is MetricKind.FILE
    assert all(c.baseline_size == 77 for c in family.curves)
    assert [c.baseline_label for c in family.curves] == ["v0", "v1", "v2"]
