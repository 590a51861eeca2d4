#!/usr/bin/env python3
"""Round-trip check: generate a corpus with known parameters, recover them.

Builds a synthetic version history where every line is rewritten with a
fixed per-version probability, scans it into a store like any real
corpus, pools the change curves, and fits the saturation model. The
fitted amplitude and rate should land on the generator's inputs.
"""

import tempfile
from pathlib import Path

from codesurvival.curves import MetricKind
from codesurvival.fitting import fit_saturation
from codesurvival.ingest import ExtensionGroup, scan_corpus
from codesurvival.screening import ScreeningPlan, apply_plan
from codesurvival.survival import build_curve_family
from codesurvival.synth import SynthSpec, generate

TRUE_A = 0.6
TRUE_LAM = 0.08


def main() -> None:
    spec = SynthSpec(
        A=TRUE_A,
        lam=TRUE_LAM,
        versions=30,
        lines_per_version=50_000,
        files=25,
        group=ExtensionGroup(name="syn", extensions=(".txt",)),
        seed=7,
    )
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        manifest = generate(spec, corpus)
        store = Path(tmp) / "store"
        list(scan_corpus(manifest, store))
        family = build_curve_family(store, "syn", MetricKind.ULOC)

    print(f"{len(family.curves)} baselines, {sum(len(c.points) for c in family.curves)} curve points")

    (points,) = apply_plan(family, ScreeningPlan())
    result = fit_saturation(points.points)
    a, lam = result.params.A, result.params.lam
    print(f"true      A={TRUE_A:.4f}  lambda={TRUE_LAM:.4f}  base rate={TRUE_A * TRUE_LAM:.5f}")
    print(f"recovered A={a:.4f}  lambda={lam:.4f}  base rate={result.params.base_rate:.5f}")
    print(f"rms residual {result.residual_rms:.5f}, converged={result.converged}")
    if abs(a - TRUE_A) > 0.02 or abs(lam - TRUE_LAM) / TRUE_LAM > 0.1:
        raise SystemExit("recovery drifted outside the expected Monte Carlo band")
    print("recovery within the Monte Carlo band")


if __name__ == "__main__":
    main()
