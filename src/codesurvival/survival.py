"""Changed-fraction curves between every version pair.

Two granularities are measured from each baseline to every later version:

* uloc: the fraction of the baseline version's unique lines that are no
  longer present in the later version (a proxy for edits touching one
  specific line).
* file: the fraction of the baseline's files with no surviving copy in
  the later version, where a copy must keep both the filename and the
  exact content; moving a file to another directory does not count as a
  change, renaming it does.  With duplicate basenames any matching copy
  counts, a permissive reading that path insensitivity forces.

The denominator is always the baseline size, so growth of the later
version never dilutes the fraction.  Line reintroductions count as
present: each pair is compared on its own, with no history memory.

Both metrics are one count, |base keys present in later| / |base keys|,
over different keys: a line digest for uloc, a (basename, content
digest) pair per file record for file, duplicates kept.  All version
pairs come from one kernel instead of one set intersection per pair:

1. Each key's presence across the V versions is a ceil(V/8)-byte mask,
   one bit per version, for any V.  For uloc the masks are the lifetime
   index's own (``ingest.GroupIndex``): read from the store, or folded
   in memory from snapshots as ``scan`` folds them and put in the
   store's form (``GroupIndex.canonical``).  For file,
   each record gets a dense id through a dict and its mask is packed
   here.
2. Keys with equal masks are interchangeable, so the masks collapse to
   U distinct patterns.  Lines live in contiguous version intervals, so
   U grows with V**2, not with the number of keys.
3. With W[u, i] the number of version i's keys (with multiplicity)
   whose pattern is u, and P[u, j] whether pattern u includes version
   j, the overlap of every pair is C = W.T @ P, summed in exact integer
   arithmetic over blocks of patterns so temporaries stay small.  A line
   digest is one key, so for uloc W = diag(count) P, with count(u) the
   number of digests of pattern u: no per-version array is built.

Each fraction is then ``1.0 - C[i, j] / size_i`` on Python ints, the
same division a per-pair set intersection would make, so results are
bit-identical to it.  For uloc, C[i, i] must equal the version's
recorded uloc count; a store whose masks disagree is refused.
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

from .errors import StoreFormatError
from .ingest import GroupIndex, VersionSnapshot, load_all_snapshots

__all__ = [
    "MetricKind",
    "ChangeCurve",
    "CurveFamily",
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


def _group_index(snapshots: Sequence[VersionSnapshot], group: str) -> GroupIndex:
    """The lifetime index of one group of in-memory snapshots, as the store holds it."""
    index = GroupIndex()
    for snapshot in snapshots:
        index.add(snapshot.group(group))
    return index.canonical()


def _patterns(masks: np.ndarray, n_versions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a presence-mask array, as one 0/1 column per version.

    Also returns each row's pattern and each pattern's number of rows.
    """
    # One opaque mask-wide item per key sorts far faster than rows.
    mask_bytes = masks.shape[1]
    unique_masks, pattern_of, key_counts = np.unique(
        masks.view(np.dtype((np.void, mask_bytes))).ravel(), return_inverse=True, return_counts=True
    )
    patterns = unique_masks.view(np.uint8).reshape(-1, mask_bytes)
    presence = np.unpackbits(patterns, axis=1, count=n_versions, bitorder="little")
    return presence, pattern_of, key_counts


def _file_patterns(index: GroupIndex) -> tuple[np.ndarray, np.ndarray]:
    """Pattern presence and per-version pattern weights of the file records."""
    # A (basename, content digest) key seen for the first time gets the
    # next free id; duplicate records keep their multiplicity.
    key_ids = defaultdict(itertools.count().__next__)
    ids = [
        np.fromiter(
            (key_ids[record.basename, record.content_digest] for record in version.files),
            dtype=np.int64,
            count=version.file_count,
        )
        for version in index.versions
    ]
    n_versions = len(ids)
    masks = np.zeros((len(key_ids), (n_versions + 7) // 8), dtype=np.uint8)
    for i, version_ids in enumerate(ids):
        masks[version_ids, i // 8] |= np.uint8(1 << (i % 8))
    presence, pattern_of, _ = _patterns(masks, n_versions)
    weights = np.empty(presence.shape, dtype=np.int64)
    for i, version_ids in enumerate(ids):
        weights[:, i] = np.bincount(pattern_of[version_ids], minlength=len(presence))
    return presence, weights


def _shared_counts(index: GroupIndex, metric: MetricKind) -> np.ndarray:
    """C[i, j]: how many of version i's keys, with multiplicity, version j has."""
    n_versions = len(index.versions)
    if metric is MetricKind.ULOC:
        # Each line digest is one key of its own mask, so a pattern's weight
        # in version i is its key count if i is in the pattern, else 0.
        presence, _, key_counts = _patterns(index.masks, n_versions)
        weights = presence * key_counts[:, np.newaxis]
    else:
        presence, weights = _file_patterns(index)
    counts = np.zeros((n_versions, n_versions), dtype=np.int64)
    for start in range(0, len(presence), _PATTERN_BLOCK):
        block = slice(start, start + _PATTERN_BLOCK)
        counts += weights[block].T @ presence[block].astype(np.int64)
    return counts


def _changed_fractions(index: GroupIndex, metric: MetricKind) -> list[tuple[int, list[float]]]:
    """Per version, its size and its changed fractions at offsets 1, 2, ...

    A version that is empty under the metric has size 0 and no fractions.
    """
    shared = _shared_counts(index, metric)
    if metric is MetricKind.ULOC:
        sizes = [version.uloc_count for version in index.versions]
        if shared.diagonal().tolist() != sizes:
            raise StoreFormatError(
                f"presence masks give uloc counts {shared.diagonal().tolist()}, "
                f"the versions record {sizes}"
            )
    else:
        sizes = [version.file_count for version in index.versions]
    rows = shared.tolist()
    return [
        (size, [1.0 - c / size for c in rows[i][i + 1 :]] if size else [])
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
    snapshots, which are indexed in memory exactly as ``scan`` indexes
    them into a store.  A baseline that is empty under the metric yields
    no curve; the omission is recorded in the family's warnings instead
    of being silently zeroed.
    """
    lifetime = None
    if isinstance(snapshots, (str, Path)):
        lifetime = load_all_snapshots(snapshots)
        versions = list(enumerate(lifetime.labels))
    else:
        snapshots = sorted(snapshots, key=lambda s: s.ordinal)
        versions = [(s.ordinal, s.version_label) for s in snapshots]
    if len(versions) < 2:
        raise ValueError("need at least 2 versions to build change curves")
    index = lifetime.group(group) if lifetime is not None else _group_index(snapshots, group)
    curves: list[ChangeCurve] = []
    warnings: list[str] = []
    rows = _changed_fractions(index, metric)
    for (ordinal, label), (size, fractions) in zip(versions[:-1], rows):
        if not size:
            what = "an empty uloc set" if metric is MetricKind.ULOC else "no files"
            warnings.append(f"baseline {label!r} omitted: version {label!r} group {group!r} has {what}")
            continue
        curves.append(
            ChangeCurve(
                baseline_ordinal=ordinal,
                baseline_label=label,
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
