"""Synthetic version histories with known change behavior.

The generator inverts the saturation model: a fixed A-fraction of line
slots is mutable, and at every version each mutable slot's current line
is replaced by a brand-new, never-before-seen line with probability
q = 1 - e^(-lambda).  Any line present at version i then survives to
version i+n with probability (1-q)^n = e^(-lambda*n), so the measured
changed fraction from EVERY baseline follows A*(1 - e^(-lambda*n)) in
expectation; the process is stationary, which is what makes pooling
curves across baselines legitimate.  Replaced lines never reappear, so
measured curves are monotone.

A saturation level above 1 cannot be generated (it is not a fraction of
lines); linear-regime behavior is exercised analytically instead.
``analytic_family`` builds noiseless curve families directly, with
optional injected jumps, regime shifts, and burn-in, as labeled ground
truth for the screening heuristics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import CorpusManifest, ExtensionGroup, load_manifest
from .survival import ChangeCurve, CurveFamily, MetricKind

__all__ = [
    "SynthSpec",
    "derive_mutation_prob",
    "generate",
    "expected_curve",
    "write_expected_csv",
    "analytic_family",
]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic corpus.

    ``burn_in = (k, factor)`` raises the first k transitions to rate
    factor*lambda; ``jumps = ((v, f), ...)`` additionally replaces a
    random f-fraction of all lines at version v.  Both default off.
    """

    A: float
    lam: float
    versions: int
    lines_per_version: int
    files: int
    group: ExtensionGroup
    seed: int
    burn_in: tuple[int, float] | None = None
    jumps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if not 0.0 <= self.A <= 1.0:
            raise ValueError(f"mutable fraction A must be in [0, 1], got {self.A}")
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.versions < 2:
            raise ValueError(f"need >= 2 versions, got {self.versions}")
        if self.lines_per_version < 1 or self.files < 1:
            raise ValueError("lines_per_version and files must be positive")
        if self.files > self.lines_per_version:
            raise ValueError("more files than lines")
        for v, f in self.jumps:
            if not 1 <= v < self.versions:
                raise ValueError(f"jump version {v} outside 1..{self.versions - 1}")
            if not 0.0 < f <= 1.0:
                raise ValueError(f"jump fraction must be in (0, 1], got {f}")
        if self.burn_in is not None:
            k, factor = self.burn_in
            if not 0 <= k < self.versions:
                raise ValueError(f"burn-in length {k} outside 0..{self.versions - 1}")
            if factor < 1.0:
                raise ValueError(f"burn-in factor must be >= 1, got {factor}")


def derive_mutation_prob(lam: float) -> float:
    """Per-version change probability giving line survival e^(-lambda*n).

    Solves (1 - q)^n = e^(-lambda*n), so q = 1 - e^(-lambda).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    return -math.expm1(-lam)


def _write_version(root: Path, ordinal: int, spec: SynthSpec, line_ids: np.ndarray) -> None:
    vdir = root / f"v{ordinal:03d}"
    vdir.mkdir(parents=True, exist_ok=True)
    ext = spec.group.extensions[0]
    per_file = -(-spec.lines_per_version // spec.files)
    for f in range(spec.files):
        chunk = line_ids[f * per_file : (f + 1) * per_file]
        if chunk.size == 0:
            body = ""
        else:
            body = "".join(f"u{line_id:012d}\n" for line_id in chunk.tolist())
        (vdir / f"f{f:04d}{ext}").write_text(body, encoding="ascii")


def generate(spec: SynthSpec, out: str | Path) -> CorpusManifest:
    """Write the corpus under ``out`` and return its loaded manifest.

    Version directories are v000, v001, ...; lines are opaque unique
    tokens embedding a global counter, so no line can ever reappear.
    Same spec, same bytes.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    total = spec.lines_per_version
    n_mutable = round(spec.A * total)
    line_ids = np.arange(total, dtype=np.int64)
    next_id = total

    _write_version(out, 0, spec, line_ids)
    for v in range(1, spec.versions):
        lam_v = spec.lam
        if spec.burn_in is not None and v <= spec.burn_in[0]:
            lam_v = spec.lam * spec.burn_in[1]
        # Redraw every mutable slot each version, replaced or not: the
        # process must be memoryless for baselines to be exchangeable.
        hit = np.flatnonzero(rng.random(n_mutable) < derive_mutation_prob(lam_v))
        line_ids[hit] = np.arange(next_id, next_id + hit.size)
        next_id += hit.size
        for jump_version, fraction in spec.jumps:
            if jump_version == v:
                extra = np.flatnonzero(rng.random(total) < fraction)
                line_ids[extra] = np.arange(next_id, next_id + extra.size)
                next_id += extra.size
        _write_version(out, v, spec, line_ids)

    manifest = {
        "software": "synthetic",
        "groups": [{"name": spec.group.name, "extensions": list(spec.group.extensions)}],
        "versions": [{"label": f"v{v}", "path": f"v{v:03d}"} for v in range(spec.versions)],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return load_manifest(out / "manifest.json")


def expected_curve(spec: SynthSpec, horizon: int) -> list[tuple[int, float]]:
    """Analytic changed fractions A*(1 - e^(-lambda*n)) for n = 0..horizon.

    This is the expectation of the measured uLOC curve from every
    baseline (jump and burn-in extensions excluded).
    """
    if not 0 <= horizon <= spec.versions - 1:
        raise ValueError(f"horizon must be in 0..{spec.versions - 1}, got {horizon}")
    return [(n, spec.A * -math.expm1(-spec.lam * n)) for n in range(horizon + 1)]


def write_expected_csv(spec: SynthSpec, horizon: int, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("offset", "expected_changed_fraction"))
        for n, p in expected_curve(spec, horizon):
            writer.writerow((n, repr(p)))


def analytic_family(
    A: float,
    lam: float,
    versions: int,
    *,
    group: str = "synthetic",
    metric: MetricKind = MetricKind.ULOC,
    software: str = "synthetic",
    jumps: dict[int, float] | None = None,
    regime: tuple[int, float] | None = None,
    burn_in: tuple[int, float] | None = None,
    baseline_size: int = 100000,
) -> CurveFamily:
    """Noiseless curve family with labeled anomalies, for screening tests.

    Built in difference space: the settled difference at offset n (from
    any baseline) is A * (e^(-lam*(n-1)) - e^(-lam*n)), the expectation
    of a stationary corpus.  ``jumps[v] = J`` adds J to every difference
    landing at version v (a one-off rewrite of a J-fraction, visible to
    all earlier baselines).  ``regime = (s, rho)`` scales every
    difference landing at or after s by rho (a sustained rate shift).
    ``burn_in = (k, beta)`` scales the whole curve of each baseline
    below k by beta (a young snapshot whose code churns beta times
    faster, the pre-stabilization shape).
    """
    jumps = jumps or {}
    curves = []
    for i in range(versions - 1):
        amplitude = A
        if burn_in is not None and i < burn_in[0]:
            amplitude *= burn_in[1]
        cumulative = 0.0
        points = []
        for n in range(1, versions - i):
            target = i + n
            diff = amplitude * (math.exp(-lam * (n - 1)) - math.exp(-lam * n))
            if regime is not None and target >= regime[0]:
                diff *= regime[1]
            diff += jumps.get(target, 0.0)
            cumulative += diff
            points.append((n, cumulative))
        curves.append(
            ChangeCurve(
                baseline_ordinal=i,
                baseline_label=f"v{i}",
                points=tuple(points),
                baseline_size=baseline_size,
            )
        )
    return CurveFamily(software=software, group=group, metric=metric, curves=tuple(curves))
