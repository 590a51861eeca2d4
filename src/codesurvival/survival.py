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

Both metrics are one count, |base rows whose key the later version has|
/ |base rows|, over one of a group's two key sets (``ingest.GroupIndex``):
``lines`` for uloc, one row per run of a line digest, and ``files`` for
file, one row per run of a (relpath, content digest) record.  A row's
key is the first 16 bytes of its digest: the line digest itself, or the
digest of a record's basename and content, so records that share a key
keep their multiplicity.  All version pairs come from one kernel instead
of one set intersection per pair:

1. Each row is held by one run of versions, [birth, death): the key
   set's own, read from the store that ``scan`` wrote
   (``ingest.scan_corpus``).  A key is present in a version if any of its
   rows is, so its runs are its rows' runs merged; the rows of one key
   are adjacent in the sorted key set.  A line is its own key, and its
   rows' runs are disjoint already.
2. A row with run [b, d) whose key has run [kb, kd) adds one to C[i, j]
   for every b <= i < d and kb <= j < kd: a rectangle.  Each rectangle
   adds +-1 at its four corners of a (V+1) x (V+1) difference array, and
   two cumulative sums over it give C, in int64 and so exactly.  A key
   with one row, as most are, has one rectangle, the square [b, d) x
   [b, d), and one ``bincount`` over (b, d) counts all of them.

Each fraction is then ``1.0 - C[i, j] / size_i`` on Python ints, the
same division a per-pair set intersection would make, so results are
bit-identical to it.  C[i, i] must equal the version's recorded uloc or
file count; a store whose runs disagree is refused.  The curve types
and their CSV form live in ``curves``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .curves import ChangeCurve, CurveFamily, MetricKind
from .errors import StoreFormatError
from .ingest import DIGEST_SIZE, GroupIndex, KeySet, load_all_snapshots

__all__ = ["build_curve_family"]

# Per metric: the key set of a group index it counts, the attribute of a
# version's recorded count of them, and what a version without any has.
_METRIC_KEYS = {
    MetricKind.ULOC: ("lines", "uloc_count", "an empty uloc set"),
    MetricKind.FILE: ("files", "file_count", "no files"),
}


def _shared_counts(keys: KeySet, n_versions: int) -> np.ndarray:
    """C[i, j]: how many of version i's rows have their key in version j."""
    side = n_versions + 1
    births, deaths = keys.runs.astype(np.int64).T
    key = keys.digests.view(f"S{DIGEST_SIZE}")[:: keys.digests.itemsize // DIGEST_SIZE]
    # edge[k]: row k starts a key (k < rows), or k is the end.
    edge = np.ones(len(key) + 1, dtype=bool)
    edge[1:-1] = key[1:] != key[:-1]
    alone = edge[:-1] & edge[1:]
    squares = np.bincount(births[alone] * side + deaths[alone], minlength=side * side).reshape(side, side)
    diff = np.diag(squares.sum(axis=1) + squares.sum(axis=0)) - squares - squares.T

    # The other keys: sort each one's rows by birth, and merge overlapping
    # or touching runs into the key's runs.
    shared = np.flatnonzero(~alone)
    key_id = np.cumsum(edge[:-1])[shared]
    order = np.lexsort((births[shared], key_id))
    key_id, b, d = key_id[order], births[shared][order], deaths[shared][order]
    # Per row, the last death of its key's rows so far; key_id * side keeps each max in its key.
    reach = np.maximum.accumulate(key_id * side + d) - key_id * side
    starts = np.flatnonzero((np.diff(key_id, prepend=-1) != 0) | (b > np.roll(reach, 1)))
    run_key, run_birth = key_id[starts], b[starts]
    run_death = reach[np.append(starts, len(b))[1:] - 1]
    # One rectangle per row and run of its key, added at its four corners.
    first = np.searchsorted(run_key, key_id)
    count = np.searchsorted(run_key, key_id, side="right") - first
    row = np.repeat(np.arange(len(b)), count)
    run = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(row))
    for ends, key_ends, sign in ((b, run_birth, 1), (b, run_death, -1), (d, run_birth, -1), (d, run_death, 1)):
        np.add.at(diff, (ends[row], key_ends[run]), sign)
    return diff.cumsum(axis=0).cumsum(axis=1)[:n_versions, :n_versions]


def _changed_fractions(index: GroupIndex, metric: MetricKind) -> list[tuple[int, list[float]]]:
    """Per version, its size and its changed fractions at offsets 1, 2, ...

    A version that is empty under the metric has size 0 and no fractions.
    """
    key_set, count, _ = _METRIC_KEYS[metric]
    shared = _shared_counts(getattr(index, key_set), len(index.versions))
    sizes = [getattr(version, count) for version in index.versions]
    if shared.diagonal().tolist() != sizes:
        raise StoreFormatError(
            f"runs give {metric.value} counts {shared.diagonal().tolist()}, "
            f"the versions record {sizes}"
        )
    rows = shared.tolist()
    return [
        (size, [1.0 - c / size for c in rows[i][i + 1 :]] if size else [])
        for i, size in enumerate(sizes)
    ]


def build_curve_family(
    store: str | Path,
    group: str,
    metric: MetricKind,
    *,
    software: str = "",
) -> CurveFamily:
    """Compare every baseline of a store directory with every later version.

    A baseline that is empty under the metric yields no curve; the
    omission is recorded in the family's warnings instead of being
    silently zeroed.
    """
    lifetime = load_all_snapshots(store)
    if len(lifetime.labels) < 2:
        raise ValueError("need at least 2 versions to build change curves")
    index = lifetime.group(group)
    curves: list[ChangeCurve] = []
    warnings: list[str] = []
    rows = _changed_fractions(index, metric)
    for (ordinal, label), (size, fractions) in zip(enumerate(lifetime.labels[:-1]), rows):
        if not size:
            what = _METRIC_KEYS[metric][2]
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
