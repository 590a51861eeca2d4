"""Change curves and their CSV form.

A ``ChangeCurve`` holds the changed fractions from one baseline version
to every later one, and a ``CurveFamily`` holds one curve per baseline
of a group under one metric (``MetricKind``).  ``survival`` builds
families from a store; ``write_curves_csv`` and ``read_curves_csv`` are
the on-disk form the ``fit`` stage reads.  Nothing here needs numpy, so
a stage that only reads curves starts without it.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CURVES_CSV_HEADER",
    "MetricKind",
    "ChangeCurve",
    "CurveFamily",
    "write_curves_csv",
    "read_curves_csv",
]

CURVES_CSV_HEADER = ("baseline_ordinal", "baseline_label", "baseline_size", "offset", "changed_fraction")


class MetricKind(enum.Enum):
    ULOC = "uloc"
    FILE = "file"


@dataclass(frozen=True)
class ChangeCurve:
    """Changed fractions from one baseline to every later version.

    Offsets run 1..last with no gaps; every fraction lies in [0, 1].
    """

    baseline_ordinal: int
    baseline_label: str
    points: tuple[tuple[int, float], ...]
    baseline_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple((int(n), float(p)) for n, p in self.points))
        for i, (n, p) in enumerate(self.points):
            if n != i + 1:
                raise ValueError(f"offsets must be 1..k contiguous; point {i} has n={n}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"changed fraction out of range at n={n}: {p}")

    def fraction_at(self, offset: int) -> float:
        return self.points[offset - 1][1]


@dataclass(frozen=True)
class CurveFamily:
    """All change curves of one group/metric, one per baseline version.

    ``inputs`` names what the curves were computed from: (section,
    checksum) pairs of the store sections read, empty for a family read
    from a CSV.
    """

    software: str
    group: str
    metric: MetricKind
    curves: tuple[ChangeCurve, ...]
    warnings: tuple[str, ...] = field(default=())
    inputs: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        ordinals = [c.baseline_ordinal for c in self.curves]
        if len(set(ordinals)) != len(ordinals):
            raise ValueError("duplicate baseline ordinals in curve family")


def write_curves_csv(family: CurveFamily, path: str | Path) -> None:
    """Emit one row per (baseline, offset, changed_fraction).

    Columns: baseline_ordinal, baseline_label, baseline_size, offset,
    changed_fraction.  This is the plot data for rendering the curve
    family with external tools.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVES_CSV_HEADER)
        for curve in family.curves:
            for n, p in curve.points:
                writer.writerow(
                    [curve.baseline_ordinal, curve.baseline_label, curve.baseline_size, n, repr(p)]
                )


def read_curves_csv(
    path: str | Path,
    *,
    group: str = "",
    metric: MetricKind = MetricKind.ULOC,
    software: str = "",
) -> CurveFamily:
    """Rebuild a curve family from its CSV emission."""
    path = Path(path)
    rows: dict[int, tuple[str, int, list[tuple[int, float]]]] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != CURVES_CSV_HEADER:
            raise ValueError(f"{path}: unexpected curves CSV header {header!r}")
        for row in reader:
            if len(row) != len(CURVES_CSV_HEADER):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(CURVES_CSV_HEADER)} columns, "
                    f"got {len(row)}"
                )
            try:
                ordinal, label, size, n, p = int(row[0]), row[1], int(row[2]), int(row[3]), float(row[4])
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: a field of {row!r} is not a number"
                ) from None
            rows.setdefault(ordinal, (label, size, []))[2].append((n, p))
    curves = [
        ChangeCurve(
            baseline_ordinal=ordinal,
            baseline_label=label,
            points=tuple(sorted(points)),
            baseline_size=size,
        )
        for ordinal, (label, size, points) in sorted(rows.items())
    ]
    return CurveFamily(
        software=software, group=group, metric=metric, curves=tuple(curves)
    )
