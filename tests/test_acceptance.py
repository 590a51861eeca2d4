"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test here is independent of the unit suites and recomputes its own
expectations; the terminal summary hook in conftest.py prints one
PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from codesurvival.cli import main as cli_main
from codesurvival.curves import MetricKind, read_curves_csv
from codesurvival.discoverability import discovery_probability
from codesurvival.fitting import fit_saturation
from codesurvival.ingest import ExtensionGroup
from codesurvival.model import SaturationParams, cumulative_change, instantaneous_rate
from codesurvival.reference import REFERENCE_FITS, reference_fit
from codesurvival.screening import (
    ISOLATED,
    REGIME_CHANGE,
    detect_jumps,
    detect_stabilization,
)
from codesurvival.survival import build_curve_family
from codesurvival.synth import SynthSpec, analytic_family, generate
from conftest import (
    random_corpus_history,
    raw_file_fraction,
    raw_uloc_fraction,
    scan_sources,
)

# Monte Carlo reference configuration: the strongest published parameter
# set, a 44-version history, and a line budget where binomial noise sits
# far inside the +-0.01 curve tolerance.
MC_A = 0.777
MC_LAM = 0.0369
MC_VERSIONS = 44
MC_LINES = 100_000
MC_FILES = 40
MC_SEED = 20260814


@pytest.fixture(scope="session")
def mc_corpus(tmp_path_factory):
    spec = SynthSpec(
        A=MC_A,
        lam=MC_LAM,
        versions=MC_VERSIONS,
        lines_per_version=MC_LINES,
        files=MC_FILES,
        group=ExtensionGroup(name="syn", extensions=(".txt",)),
        seed=MC_SEED,
    )
    corpus = tmp_path_factory.mktemp("mc") / "corpus"
    generate(spec, corpus)
    return corpus


def run_pipeline(corpus, workdir):
    """Drive the full CLI chain and return the artifact directory."""
    store = workdir / "store"
    steps = [
        ["scan", "--manifest", str(corpus / "manifest.json"), "--store", str(store)],
        ["curves", "--store", str(store), "--group", "syn", "--metric", "uloc",
         "--out", str(workdir / "curves_uloc.csv")],
        ["curves", "--store", str(store), "--group", "syn", "--metric", "file",
         "--out", str(workdir / "curves_file.csv")],
        ["fit", "--curves", str(workdir / "curves_uloc.csv"), "--group", "syn",
         "--metric", "uloc", "--out", str(workdir / "fit_uloc.json")],
        ["fit", "--curves", str(workdir / "curves_file.csv"), "--group", "syn",
         "--metric", "file", "--out", str(workdir / "fit_file.json")],
        ["bounds", "--fit-uloc", str(workdir / "fit_uloc.json"),
         "--fit-file", str(workdir / "fit_file.json"), "--horizon", "10",
         "--out", str(workdir / "bounds")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv[0]}"
    return workdir


@pytest.fixture(scope="session")
def mc_pipeline(mc_corpus, tmp_path_factory):
    return run_pipeline(mc_corpus, tmp_path_factory.mktemp("mc-run1"))


def test_criterion_1_base_rate_identity():
    assert len(REFERENCE_FITS) == 19
    for row in REFERENCE_FITS:
        derived = row.A * row.lam
        assert derived == pytest.approx(row.published_base_rate, rel=0.015), (
            f"{row.software}/{row.group}/{row.metric}/{row.regime}: "
            f"A*lambda = {derived} vs published {row.published_base_rate}"
        )


def test_criterion_2_rate_is_curve_derivative():
    h = 1e-6
    for row in REFERENCE_FITS:
        params = row.params
        checkpoints = [1.0, 2.0] + [k / row.lam for k in (0.25, 0.5, 1.0, 2.0)]
        for n in checkpoints:
            central = (
                cumulative_change(params, n + h) - cumulative_change(params, n - h)
            ) / (2.0 * h)
            rate = instantaneous_rate(params, n)
            assert rate == pytest.approx(central, rel=1e-6), (
                f"{row.software}/{row.group}/{row.metric} at n={n}"
            )


def test_criterion_3_noiseless_recovery():
    def check(A, lam, offsets):
        params = SaturationParams(A=A, lam=lam)
        points = [(n, cumulative_change(params, n)) for n in offsets]
        result = fit_saturation(points)
        assert result.converged
        assert result.params.A == pytest.approx(A, rel=1e-3)
        assert result.params.lam == pytest.approx(lam, rel=1e-3)

    check(MC_A, MC_LAM, range(1, MC_VERSIONS + 1))
    rng = np.random.default_rng(1)
    for _ in range(100):
        check(rng.uniform(0.05, 0.95), rng.uniform(0.01, 1.0), range(1, 41))


def test_criterion_4_monte_carlo_end_to_end(mc_pipeline):
    family = read_curves_csv(mc_pipeline / "curves_uloc.csv", group="syn")
    assert len(family.curves) == MC_VERSIONS - 1
    n_points = 0
    for curve in family.curves:
        for n, p in curve.points:
            expected = MC_A * -math.expm1(-MC_LAM * n)
            assert p == pytest.approx(expected, abs=0.01), (
                f"baseline {curve.baseline_ordinal} offset {n}"
            )
            n_points += 1
    assert n_points == MC_VERSIONS * (MC_VERSIONS - 1) // 2

    import json

    (fit,) = json.loads((mc_pipeline / "fit_uloc.json").read_text())["fits"]
    assert fit["A"] == pytest.approx(MC_A, abs=0.02)
    assert fit["lambda"] == pytest.approx(MC_LAM, rel=0.10)


def test_criterion_5_exact_oracle_equivalence(tmp_path):
    rng = random.Random(55)
    for corpus_id in range(25):
        history = random_corpus_history(rng, versions=rng.randint(3, 6))
        # One manifest per history, scanned into a store as `scan` does.
        _, _, store = scan_sources(tmp_path / f"c{corpus_id}", history, (".x", ".y"))
        for group, ext in (("x", ".x"), ("y", ".y")):
            for metric, oracle in (
                (MetricKind.ULOC, raw_uloc_fraction),
                (MetricKind.FILE, raw_file_fraction),
            ):
                family = build_curve_family(store, group, metric)
                by_ordinal = {c.baseline_ordinal: c for c in family.curves}
                for i, base in enumerate(history[:-1]):
                    expected = [oracle(base, later, ext) for later in history[i + 1 :]]
                    if expected[0] is None:
                        assert i not in by_ordinal
                    else:
                        assert [p for _, p in by_ordinal[i].points] == expected


# Labeled constructions: (family kwargs, expected jump events, expected cut).
SCREENING_CASES = (
    (dict(A=0.5, lam=0.02, versions=30), frozenset(), 0),
    (dict(A=0.8, lam=0.05, versions=25), frozenset(), 0),
    (dict(A=0.5, lam=0.02, versions=30, jumps={15: 0.2}), frozenset({(15, ISOLATED)}), 0),
    (dict(A=0.4, lam=0.03, versions=20, jumps={5: 0.1}), frozenset({(5, ISOLATED)}), 0),
    (
        dict(A=0.3, lam=0.015, versions=35, jumps={15: 0.15, 25: 0.1}),
        frozenset({(15, ISOLATED), (25, ISOLATED)}),
        0,
    ),
    (
        dict(A=0.25, lam=0.02, versions=30, jumps={16: 0.15}, regime=(16, 3.0)),
        frozenset({(16, REGIME_CHANGE)}),
        0,
    ),
    (
        dict(A=0.2, lam=0.025, versions=24, jumps={10: 0.12}, regime=(10, 4.0)),
        frozenset({(10, REGIME_CHANGE)}),
        0,
    ),
    (dict(A=0.15, lam=0.02, versions=30, burn_in=(3, 5.0)), frozenset(), 3),
    (dict(A=0.2, lam=0.015, versions=30, burn_in=(18, 3.0)), frozenset(), 18),
    (
        dict(A=0.2, lam=0.02, versions=32, burn_in=(3, 4.0), jumps={20: 0.15}),
        frozenset({(20, ISOLATED)}),
        3,
    ),
)


def test_criterion_6_screening_ground_truth():
    predicted: set[tuple[int, int, str]] = set()
    truth: set[tuple[int, int, str]] = set()
    for case_id, (kwargs, events, cut) in enumerate(SCREENING_CASES):
        family = analytic_family(**kwargs)
        for ordinal, classification in events:
            truth.add((case_id, ordinal, classification))
        for event in detect_jumps(family):
            predicted.add((case_id, event.ordinal, event.classification))
        assert detect_stabilization(family) == cut, f"case {case_id}: wrong cut"
    true_positives = len(predicted & truth)
    precision = true_positives / len(predicted) if predicted else 1.0
    recall = true_positives / len(truth) if truth else 1.0
    assert precision == 1.0, f"false detections: {sorted(predicted - truth)}"
    assert recall == 1.0, f"missed events: {sorted(truth - predicted)}"


def test_criterion_7_discoverability_narratives():
    # A crude insertion into GNU tar C files is almost surely hit within
    # two releases; a subtle insertion into glibc headers usually
    # survives ten.
    gnu = reference_fit("gnu", "c", "file")
    assert discovery_probability(gnu.params, 2) >= 0.8
    glibc = reference_fit("glibc", "h", "uloc")
    assert discovery_probability(glibc.params, 10) <= 0.20
    # Saturating fits mean surviving code is ever-safer code: the
    # conditional discovery rate declines with age.
    for row in REFERENCE_FITS:
        if row.A >= 1.0:
            continue
        hazards = [
            instantaneous_rate(row.params, n) / (1.0 - cumulative_change(row.params, n))
            for n in range(40)
        ]
        assert all(a > b for a, b in zip(hazards, hazards[1:])), (
            f"hazard not decreasing for {row.software}/{row.group}/{row.metric}"
        )


def test_criterion_8_desk_scale_boundary():
    from pathlib import Path

    from codesurvival.screening import load_plan

    repo = Path(__file__).resolve().parents[1]
    # No corpus payloads ride along with the package.
    offenders = [
        p
        for p in repo.rglob("*")
        if p.is_file()
        and ".git" not in p.parts
        and (p.stat().st_size > 1_000_000 or ".tar" in p.name or p.suffix == ".tgz")
    ]
    assert offenders == []
    # Real corpora are analyzed through the documented manual mode.
    readme = (repo / "README.md").read_text(encoding="utf-8")
    for needle in ("manifest.json", "codesurvival scan", "plans/"):
        assert needle in readme, f"README does not document {needle}"
    # The published parameter rows stand in for the corpora themselves,
    # and the shipped plans cover every published group/metric pair.
    assert len(REFERENCE_FITS) == 19
    plan_files = sorted((repo / "plans").glob("*.json"))
    plans = [load_plan(p) for p in plan_files]
    covered = {(p.software, p.group, p.metric) for p in plans}
    expected = {
        ("firefox", g, m) for g in ("cpp", "js", "h") for m in ("uloc", "file")
    } | {("gnu", g, m) for g in ("c", "h") for m in ("uloc", "file")} | {
        ("glibc", g, m) for g in ("c", "h", "sh") for m in ("uloc", "file")
    }
    assert covered == expected


def test_criterion_9_byte_identical_reruns(mc_corpus, mc_pipeline, tmp_path_factory):
    rerun = run_pipeline(mc_corpus, tmp_path_factory.mktemp("mc-run2"))

    def artifact_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = artifact_bytes(mc_pipeline)
    second = artifact_bytes(rerun)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
