"""Changed-fraction curves between every version pair.

Two granularities are measured from a pair of snapshots:

* uloc: the fraction of the baseline version's unique lines that are no
  longer present in the later version (a proxy for edits touching one
  specific line).
* file: the fraction of the baseline's files with no surviving copy in
  the later version, where a copy must keep both the filename and the
  exact content; moving a file to another directory does not count as a
  change, renaming it does.

The denominator is always the baseline size, so growth of the later
version never dilutes the fraction.  Line reintroductions count as
present: each pair is compared on its own, with no history memory.

Both metrics are one count, |base keys present in later| / |base keys|,
over different keys: a line digest for uloc, a (basename, content
digest) pair per file record for file, duplicates kept.  All version
pairs come from one kernel instead of one set intersection per pair:

1. Every distinct key gets a dense integer id, so each version becomes
   an int array.  For uloc the ids come from one sort of every
   version's digest block, read in place as fixed-width numpy strings;
   for file, from a dict over the file records.
2. Each id's presence across the V versions is packed into a
   ceil(V/8)-byte mask, one bit per version, for any V.
3. Keys with equal masks are interchangeable, so the masks collapse to
   U distinct patterns.  Lines live in contiguous version intervals, so
   U grows with V**2, not with the number of keys.
4. With W[u, i] the number of version i's keys (with multiplicity)
   whose pattern is u, and P[u, j] whether pattern u includes version
   j, the overlap of every pair is C = W.T @ P, summed in exact integer
   arithmetic over blocks of patterns so temporaries stay small.

Each fraction is then ``1.0 - C[i, j] / size_i`` on Python ints, the
same division a per-pair set intersection would make, so results are
bit-identical to it.
"""

from __future__ import annotations

import csv
import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import DIGEST_SIZE, GroupPayload, VersionSnapshot, load_all_snapshots

__all__ = [
    "MetricKind",
    "ChangeCurve",
    "CurveFamily",
    "uloc_changed_fraction",
    "file_changed_fraction",
    "build_curve_family",
    "write_curves_csv",
    "read_curves_csv",
]

CURVES_CSV_HEADER = ("baseline_ordinal", "baseline_label", "baseline_size", "offset", "changed_fraction")

# Patterns per block of the overlap product; bounds its int64 temporaries
# to 2 * _PATTERN_BLOCK * V * 8 bytes.
_PATTERN_BLOCK = 512


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
    metric: MetricKind
    group: str
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
    """All change curves of one group/metric, one per baseline version."""

    software: str
    group: str
    metric: MetricKind
    curves: tuple[ChangeCurve, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        ordinals = [c.baseline_ordinal for c in self.curves]
        if len(set(ordinals)) != len(ordinals):
            raise ValueError("duplicate baseline ordinals in curve family")


def uloc_changed_fraction(base: VersionSnapshot, later: VersionSnapshot, group: str) -> float:
    """1 - |uloc_base intersect uloc_later| / |uloc_base|."""
    return _pair_fraction(base, later, group, MetricKind.ULOC)


def file_changed_fraction(base: VersionSnapshot, later: VersionSnapshot, group: str) -> float:
    """Fraction of baseline files with no same-name same-content survivor.

    A baseline file is unchanged iff the later snapshot has at least one
    file with the identical basename and identical content digest; the
    directory part of the path is ignored.  With duplicate basenames any
    matching copy counts, a permissive reading that path insensitivity
    forces.
    """
    return _pair_fraction(base, later, group, MetricKind.FILE)


def _pair_fraction(
    base: VersionSnapshot, later: VersionSnapshot, group: str, metric: MetricKind
) -> float:
    size, fractions = _changed_fractions([base, later], group, metric)[0]
    if not size:
        raise _empty_baseline(base, group, metric)
    return fractions[0]


def _empty_baseline(base: VersionSnapshot, group: str, metric: MetricKind) -> DataError:
    what = "an empty uloc set" if metric is MetricKind.ULOC else "no files"
    return DataError(f"version {base.version_label!r} group {group!r} has {what}")


def _uloc_ids(payloads: Sequence[GroupPayload]) -> tuple[list[np.ndarray], int]:
    """Each version's line digests as dense ids, and the number of ids."""
    # Equality of fixed-width S items is exact, NUL bytes included.
    digests = np.frombuffer(b"".join(p.uloc_block for p in payloads), dtype=f"S{DIGEST_SIZE}")
    distinct, inverse = np.unique(digests, return_inverse=True)
    ends = np.cumsum([p.uloc_count for p in payloads])
    return np.split(inverse, ends[:-1]), len(distinct)


def _file_ids(payloads: Sequence[GroupPayload]) -> tuple[list[np.ndarray], int]:
    """Each version's (basename, content digest) records as dense ids, duplicates kept."""
    # A key seen for the first time gets the next free id.
    index = defaultdict(itertools.count().__next__)
    ids = [
        np.fromiter(
            (index[record.basename, record.content_digest] for record in p.files),
            dtype=np.int64,
            count=len(p.files),
        )
        for p in payloads
    ]
    return ids, len(index)


def _shared_counts(payloads: Sequence[GroupPayload], metric: MetricKind) -> np.ndarray:
    """C[i, j]: how many of version i's keys, with multiplicity, version j has."""
    ids, n_keys = (_uloc_ids if metric is MetricKind.ULOC else _file_ids)(payloads)
    n_versions = len(ids)
    # The narrowest dtype that holds every per-pattern count keeps the
    # weights small.
    count_dtype = np.min_scalar_type(max(map(len, ids)))
    # Each stage frees its inputs before the next allocates, so the peak
    # stays near the loaded snapshots' own footprint.
    mask_bytes = (n_versions + 7) // 8
    masks = np.zeros((n_keys, mask_bytes), dtype=np.uint8)
    for i, version_ids in enumerate(ids):
        masks[version_ids, i // 8] |= np.uint8(1 << (i % 8))
    # One opaque mask_bytes-wide item per key sorts far faster than rows.
    unique_masks, pattern_of = np.unique(
        masks.view(np.dtype((np.void, mask_bytes))).ravel(), return_inverse=True
    )
    patterns = unique_masks.view(np.uint8).reshape(-1, mask_bytes)
    del masks
    weights = np.empty((len(patterns), n_versions), dtype=count_dtype)
    for i, version_ids in enumerate(ids):
        weights[:, i] = np.bincount(pattern_of[version_ids], minlength=len(patterns))
    del ids, pattern_of
    presence = np.unpackbits(patterns, axis=1, count=n_versions, bitorder="little")
    counts = np.zeros((n_versions, n_versions), dtype=np.int64)
    for start in range(0, len(patterns), _PATTERN_BLOCK):
        block = slice(start, start + _PATTERN_BLOCK)
        counts += weights[block].T.astype(np.int64) @ presence[block].astype(np.int64)
    return counts


def _changed_fractions(
    snapshots: Sequence[VersionSnapshot], group: str, metric: MetricKind
) -> list[tuple[int, list[float]]]:
    """Per snapshot, its size and its changed fractions at offsets 1, 2, ...

    A snapshot that is empty under the metric has size 0 and no fractions.
    """
    payloads = [snapshot.group(group) for snapshot in snapshots]
    sizes = [p.uloc_count if metric is MetricKind.ULOC else p.file_count for p in payloads]
    shared = _shared_counts(payloads, metric).tolist()
    return [
        (size, [1.0 - c / size for c in shared[i][i + 1 :]] if size else [])
        for i, size in enumerate(sizes)
    ]


def build_curve_family(
    snapshots: str | Path | Sequence[VersionSnapshot],
    group: str,
    metric: MetricKind,
    *,
    software: str = "",
) -> CurveFamily:
    """Compare every baseline with every later version.

    ``snapshots`` may be a store directory or an ordered sequence of
    snapshots.  A baseline that is empty under the metric yields no
    curve; the omission is recorded in the family's warnings instead of
    being silently zeroed.
    """
    if isinstance(snapshots, (str, Path)):
        snapshots = load_all_snapshots(snapshots)
    snapshots = sorted(snapshots, key=lambda s: s.ordinal)
    if len(snapshots) < 2:
        raise ValueError("need at least 2 versions to build change curves")
    curves: list[ChangeCurve] = []
    warnings: list[str] = []
    rows = _changed_fractions(snapshots, group, metric)
    for base, (size, fractions) in zip(snapshots[:-1], rows):
        if not size:
            warnings.append(
                f"baseline {base.version_label!r} omitted: {_empty_baseline(base, group, metric)}"
            )
            continue
        curves.append(
            ChangeCurve(
                baseline_ordinal=base.ordinal,
                baseline_label=base.version_label,
                metric=metric,
                group=group,
                points=tuple(enumerate(fractions, start=1)),
                baseline_size=size,
            )
        )
    return CurveFamily(
        software=software,
        group=group,
        metric=metric,
        curves=tuple(curves),
        warnings=tuple(warnings),
    )


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
            ordinal, label, size, n, p = int(row[0]), row[1], int(row[2]), int(row[3]), float(row[4])
            rows.setdefault(ordinal, (label, size, []))[2].append((n, p))
    curves = [
        ChangeCurve(
            baseline_ordinal=ordinal,
            baseline_label=label,
            metric=metric,
            group=group,
            points=tuple(sorted(points)),
            baseline_size=size,
        )
        for ordinal, (label, size, points) in sorted(rows.items())
    ]
    return CurveFamily(
        software=software, group=group, metric=metric, curves=tuple(curves)
    )
