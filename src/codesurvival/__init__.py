"""Measure how code survives across releases and what that implies for
how long an undiscovered in-code vulnerability can persist.

The pipeline: ingest version snapshots into digests (`ingest`), measure
changed fractions between every version pair (`survival`), screen out
pre-stabilization versions and discontinuous events (`screening`), fit
the exponential-saturation model by maximum likelihood (`fitting`,
`model`), and convert fits into subtle/obvious discoverability bounds
(`discoverability`).  `synth` generates ground-truth corpora for
validating the whole chain, and `cli` ties the stages together as
subcommands over on-disk artifacts.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .discoverability import (
    DiscoverabilityBounds,
    PersistenceSummary,
    bounds,
    discovery_probability,
    persistence_summary,
)
from .errors import (
    CodeSurvivalError,
    DataError,
    UsageError,
)
from .fitting import FitResult, fit_saturation, log_likelihood, neldermead_minimize
from .ingest import (
    CorpusManifest,
    ExtensionGroup,
    FileRecord,
    VersionSnapshot,
    load_manifest,
    scan_corpus,
    scan_version,
)
from .model import SaturationParams, base_rate, cumulative_change, instantaneous_rate
from .reference import REFERENCE_FITS, ReferenceFit, reference_fit
from .screening import (
    FitPointSet,
    JumpEvent,
    ScreeningPlan,
    apply_plan,
    detect_jumps,
    detect_stabilization,
    load_plan,
)
from .survival import (
    ChangeCurve,
    CurveFamily,
    MetricKind,
    build_curve_family,
)
from .synth import SynthSpec, analytic_family, derive_mutation_prob, expected_curve, generate

__all__ = [
    "__version__",
    "CodeSurvivalError",
    "UsageError",
    "DataError",
    "SaturationParams",
    "cumulative_change",
    "instantaneous_rate",
    "base_rate",
    "ReferenceFit",
    "REFERENCE_FITS",
    "reference_fit",
    "ExtensionGroup",
    "CorpusManifest",
    "FileRecord",
    "VersionSnapshot",
    "load_manifest",
    "scan_version",
    "scan_corpus",
    "MetricKind",
    "ChangeCurve",
    "CurveFamily",
    "build_curve_family",
    "JumpEvent",
    "ScreeningPlan",
    "FitPointSet",
    "detect_jumps",
    "detect_stabilization",
    "apply_plan",
    "load_plan",
    "FitResult",
    "log_likelihood",
    "neldermead_minimize",
    "fit_saturation",
    "DiscoverabilityBounds",
    "PersistenceSummary",
    "discovery_probability",
    "bounds",
    "persistence_summary",
    "SynthSpec",
    "derive_mutation_prob",
    "generate",
    "expected_curve",
    "analytic_family",
]
