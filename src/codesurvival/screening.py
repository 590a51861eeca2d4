"""Screen curve families before fitting.

Three kinds of departures from steady revision behavior are handled:

* a stabilization period, where freshly introduced code is revised at a
  higher rate than settled code, so the earliest baselines are dropped;
* isolated jumps, one-off events where a large slice of code changes in
  a single release and behavior then reverts, so version pairs spanning
  the jump are dropped;
* regime changes, where the per-version rate shifts and stays shifted,
  so the pairs on each side are fit separately.

The heuristics here (``detect_jumps``, ``detect_stabilization``) are
aids, not ground truth; a manual ScreeningPlan always takes precedence,
and the ``plans/`` directory ships plans encoding the published
selections for the Firefox, GNU tar and glibc corpora.
"""

from __future__ import annotations

import json
import logging
import statistics
from dataclasses import dataclass
from pathlib import Path

from .curves import ChangeCurve, CurveFamily
from .errors import DataError, NothingToFitError, PlanError

__all__ = [
    "ISOLATED",
    "REGIME_CHANGE",
    "JumpEvent",
    "ScreeningPlan",
    "FitPointSet",
    "detect_jumps",
    "detect_stabilization",
    "apply_plan",
    "load_plan",
]

logger = logging.getLogger(__name__)

ISOLATED = "isolated"
REGIME_CHANGE = "regime-change"


@dataclass(frozen=True)
class JumpEvent:
    """A discontinuous version-to-version change landing at one version."""

    group: str
    metric: str
    ordinal: int
    magnitude: float
    classification: str

    def __post_init__(self) -> None:
        if not self.magnitude > 0:
            raise ValueError(f"jump magnitude must be positive, got {self.magnitude}")
        if self.classification not in (ISOLATED, REGIME_CHANGE):
            raise ValueError(f"unknown classification {self.classification!r}")


@dataclass(frozen=True)
class ScreeningPlan:
    """Data-selection choices applied before fitting.

    ``stabilization_cut`` drops all baselines below it.  Version pairs
    (i, j) spanning an excluded ordinal e (i < e <= j) are dropped, which
    keeps points leading up to a jump and everything released after it.
    ``regime_splits`` partition the remaining versions; a pair belongs to
    a regime only if both its versions fall inside.
    """

    stabilization_cut: int = 0
    excluded_ordinals: tuple[int, ...] = ()
    regime_splits: tuple[int, ...] = ()
    metric: str = ""
    group: str = ""
    software: str = ""
    provenance: str = "manual"
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded_ordinals", tuple(self.excluded_ordinals))
        object.__setattr__(self, "regime_splits", tuple(self.regime_splits))
        if self.stabilization_cut < 0:
            raise PlanError(f"stabilization cut must be >= 0, got {self.stabilization_cut}")
        if list(self.regime_splits) != sorted(set(self.regime_splits)):
            raise PlanError(f"regime splits must be strictly increasing: {self.regime_splits}")
        if self.provenance not in ("manual", "heuristic"):
            raise PlanError(f"provenance must be manual or heuristic, got {self.provenance!r}")


@dataclass(frozen=True)
class FitPointSet:
    """Pooled (offset, changed fraction) points of one regime."""

    regime: str
    points: tuple[tuple[int, float], ...]
    curves_used: int
    points_dropped: int

    def __post_init__(self) -> None:
        for n, p in self.points:
            if n < 1:
                raise ValueError(f"fit point offset must be >= 1, got {n}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fit point fraction out of range: {p}")


def _interior_diffs(curve: ChangeCurve) -> list[float]:
    values = [p for _, p in curve.points]
    return [b - a for a, b in zip(values, values[1:])]


def detect_jumps(
    family: CurveFamily,
    abs_threshold: float = 0.05,
    rel_factor: float = 5.0,
    *,
    classify_factor: float = 2.0,
) -> list[JumpEvent]:
    """Flag versions where the change rate jumps discontinuously.

    Within each curve the first-differences between consecutive points
    are compared against the median of the curve's other differences; a
    difference is suspicious when it exceeds both ``abs_threshold`` and
    ``rel_factor`` times that median.  A version flagged by a majority
    of the curves crossing it becomes a JumpEvent.  The event is a
    regime change when the differences after it stay elevated (pooled
    median after >= ``classify_factor`` times the pooled median before),
    otherwise it is isolated.

    Only differences between consecutive points are used, so adding a
    constant to a whole curve cannot change which versions are flagged.
    Curves with fewer than 3 points are skipped.

    For the same reason a jump at the first transition (landing at
    ordinal 1) is never flagged: it lifts baseline 0's whole curve by a
    constant and no other curve crosses it.  ``detect_stabilization``
    sees it as baseline 0's elevated initial change and cuts it.
    """
    if not family.curves:
        raise ValueError("empty curve family")
    if abs_threshold <= 0 or rel_factor <= 1:
        raise ValueError("need abs_threshold > 0 and rel_factor > 1")

    votes: dict[int, int] = {}
    crossings: dict[int, int] = {}
    excess: dict[int, list[float]] = {}
    # (baseline ordinal, first differences) of each curve with >= 3 points
    usable: list[tuple[int, list[float]]] = []
    for curve in family.curves:
        if len(curve.points) < 3:
            logger.debug(
                "curve from baseline %s skipped for jump analysis (<3 points)",
                curve.baseline_label,
            )
            continue
        diffs = _interior_diffs(curve)
        usable.append((curve.baseline_ordinal, diffs))
        for k, d in enumerate(diffs):
            # diffs[k] lands at target version baseline + k + 2
            target = curve.baseline_ordinal + k + 2
            crossings[target] = crossings.get(target, 0) + 1
            others = diffs[:k] + diffs[k + 1 :]
            med = statistics.median(others)
            if d > abs_threshold and d > rel_factor * med:
                votes[target] = votes.get(target, 0) + 1
                excess.setdefault(target, []).append(d - med)

    events: list[JumpEvent] = []
    for target in sorted(votes):
        if votes[target] * 2 <= crossings[target]:
            continue
        before: list[float] = []
        after: list[float] = []
        for baseline, diffs in usable:
            for k, d in enumerate(diffs):
                t = baseline + k + 2
                if t < target:
                    before.append(d)
                elif t > target:
                    after.append(d)
        classification = ISOLATED
        if before and after:
            med_before = statistics.median(before)
            med_after = statistics.median(after)
            if med_after >= classify_factor * med_before:
                classification = REGIME_CHANGE
        events.append(
            JumpEvent(
                group=family.group,
                metric=family.metric.value,
                ordinal=target,
                magnitude=statistics.median(excess[target]),
                classification=classification,
            )
        )
    return events


def detect_stabilization(
    family: CurveFamily, trailing_window: int = 5, *, rel_factor: float = 2.0
) -> int:
    """First baseline whose initial change rate looks settled.

    The initial first-difference of a curve is its changed fraction at
    offset 1.  A baseline counts as stable when that value is within
    ``rel_factor`` times the median initial difference of the
    ``trailing_window`` most recent curves (pre-stabilization rates are
    elevated, never depressed, so the test is one-sided).  Heuristic
    only; a manual plan always overrides.
    """
    usable = [c for c in family.curves if c.points]
    if len(usable) < trailing_window + 2:
        raise DataError(
            f"stabilization scan needs at least {trailing_window + 2} usable curves, "
            f"got {len(usable)}"
        )
    initial = {c.baseline_ordinal: c.fraction_at(1) for c in usable}
    tail = [initial[c.baseline_ordinal] for c in usable[-trailing_window:]]
    threshold = rel_factor * statistics.median(tail)
    for curve in usable:
        if initial[curve.baseline_ordinal] <= threshold:
            return curve.baseline_ordinal
    return usable[-1].baseline_ordinal


def _version_count(family: CurveFamily) -> int:
    return max(c.baseline_ordinal + len(c.points) for c in family.curves) + 1


def apply_plan(family: CurveFamily, plan: ScreeningPlan) -> list[FitPointSet]:
    """Pool the family's points per regime after applying a plan.

    No point is fabricated: every output point exists in the input
    family, and an empty plan is the identity on the pooled points.
    """
    if not family.curves:
        raise NothingToFitError("empty curve family")
    if plan.metric and plan.metric != family.metric.value:
        raise PlanError(f"plan metric {plan.metric!r} != family metric {family.metric.value!r}")
    if plan.group and plan.group != family.group:
        raise PlanError(f"plan group {plan.group!r} != family group {family.group!r}")

    count = _version_count(family)
    for e in plan.excluded_ordinals:
        if not 0 <= e < count:
            raise PlanError(f"excluded ordinal {e} outside corpus range 0..{count - 1}")
    boundaries = [plan.stabilization_cut, *plan.regime_splits, count]
    if list(boundaries) != sorted(set(boundaries)):
        raise PlanError(
            f"cut {plan.stabilization_cut} and splits {plan.regime_splits} must be "
            f"strictly increasing and below the version count {count}"
        )

    sets: list[FitPointSet] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        label = "all" if not plan.regime_splits else f"v{lo}-v{hi - 1}"
        points: list[tuple[int, float]] = []
        used: set[int] = set()
        dropped = 0
        for curve in family.curves:
            i = curve.baseline_ordinal
            if not lo <= i < hi:
                continue
            for n, p in curve.points:
                j = i + n
                if j >= hi or any(i < e <= j for e in plan.excluded_ordinals):
                    dropped += 1
                    continue
                points.append((n, p))
                used.add(i)
        if points:
            sets.append(
                FitPointSet(
                    regime=label,
                    points=tuple(points),
                    curves_used=len(used),
                    points_dropped=dropped,
                )
            )
        else:
            logger.debug("regime %s is empty under plan, omitted", label)
    if not sets:
        raise NothingToFitError("screening plan removed every point from every regime")
    return sets


def _plan_integer(path: Path, what: str, value: object) -> int:
    # int() would silently truncate 2.5, read true as 1 and parse "4".
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanError(f"malformed plan {path}: {what} must be an integer, got {value!r}")
    return value


def _plan_string(path: Path, what: str, value: object) -> str:
    if not isinstance(value, str):
        raise PlanError(f"malformed plan {path}: {what} must be a string, got {value!r}")
    return value


def load_plan(path: str | Path) -> ScreeningPlan:
    """Read a ScreeningPlan from its JSON file form.

    Schema: ``{"cut": int, "exclude": [int], "splits": [int],
    "metric": str, "group": str, "software"?: str, "provenance"?: str,
    "notes"?: str}``.
    """
    path = Path(path)
    if not path.is_file():
        raise PlanError(f"plan file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise PlanError(f"cannot parse plan {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise PlanError(f"malformed plan {path}: expected a JSON object")
    try:
        return ScreeningPlan(
            stabilization_cut=_plan_integer(path, "cut", raw.get("cut", 0)),
            excluded_ordinals=tuple(
                _plan_integer(path, "exclude entry", e) for e in raw.get("exclude", ())
            ),
            regime_splits=tuple(
                _plan_integer(path, "splits entry", s) for s in raw.get("splits", ())
            ),
            metric=_plan_string(path, "metric", raw.get("metric", "")),
            group=_plan_string(path, "group", raw.get("group", "")),
            software=_plan_string(path, "software", raw.get("software", "")),
            provenance=_plan_string(path, "provenance", raw.get("provenance", "manual")),
            notes=_plan_string(path, "notes", raw.get("notes", "")),
        )
    except (TypeError, ValueError) as exc:
        raise PlanError(f"malformed plan {path}: {exc}") from exc
