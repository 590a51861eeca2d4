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
/ |base rows|, over one of a group's two key sets (``store.GroupIndex``):
``lines`` for uloc, one row per run of a line digest, and ``files`` for
file, one row per run of a (relpath, content digest) record.  A row's
key is the first 16 bytes of its digest: the line digest itself, or the
digest of a record's basename and content, so records that share a key
keep their multiplicity.  All version pairs come from one kernel instead
of one set intersection per pair, on the standard library alone:

1. Each row is held by one run of versions, [birth, death), read from
   the store that ``scan`` wrote (``ingest.scan_corpus``).  A key is
   present in a version if any of its rows is, so its runs are its rows'
   runs merged.
2. A row with run [b, d) whose key has run [kb, kd) adds one to C[i, j]
   for every b <= i < d and kb <= j < kd: a rectangle.  Each rectangle
   adds +-1 at its four corners of a (V+1) x (V+1) difference array of
   Python ints, and two prefix sums over it give C exactly.
3. A key with one row, as most are, has one rectangle, the square
   [b, d) x [b, d).  So the store's run table alone gives every square:
   each of its entries, a distinct (birth, death) and the number of rows
   that hold it, adds its square once, times its count.  The store lists
   the rows of the keys with more than one row apart (its multi
   section); each of those trades its square for its rectangles.  No
   digest is read, and nothing that grows with rows.

Each fraction is then ``1.0 - C[i, j] / size_i`` on Python ints, the
same division a per-pair set intersection would make, so results are
bit-identical to it.  C[i, i] must equal the version's recorded uloc or
file count; a store whose runs disagree is refused, as is one whose
sections do not match their checksums.  The curve types and their CSV
form live in ``curves``.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path

from .curves import ChangeCurve, CurveFamily, MetricKind
from .errors import StoreFormatError, UsageError
from .store import GroupIndex, KeySet, load_all_snapshots

__all__ = ["build_curve_family"]

# Per metric: the key set of a group index it counts, the attribute of a
# version's recorded count of them, and what a version without any has.
_METRIC_KEYS = {
    MetricKind.ULOC: ("lines", "uloc_count", "an empty uloc set"),
    MetricKind.FILE: ("files", "file_count", "no files"),
}


def _shared_counts(keys: KeySet, n_versions: int) -> list[list[int]]:
    """C[i][j]: how many of version i's rows have their key in version j."""
    side = n_versions + 1
    diff = [[0] * side for _ in range(side)]

    def rectangle(b: int, d: int, kb: int, kd: int, count: int) -> None:
        diff[b][kb] += count
        diff[b][kd] -= count
        diff[d][kb] -= count
        diff[d][kd] += count

    for b, d, count in keys.table():
        rectangle(b, d, b, d, count)
    for _, rows in groupby(keys.multi(), itemgetter(0)):
        runs = [row[1:] for row in rows]
        # The key's runs: its rows' runs, by birth, overlapping or touching ones merged.
        key_runs: list[list[int]] = []
        for b, d in sorted(runs):
            if key_runs and b <= key_runs[-1][1]:
                key_runs[-1][1] = max(key_runs[-1][1], d)
            else:
                key_runs.append([b, d])
        for b, d in runs:
            rectangle(b, d, b, d, -1)
            for kb, kd in key_runs:
                rectangle(b, d, kb, kd, 1)
    shared, total = [], [0] * side
    for row in diff[:n_versions]:
        total = [above + here for above, here in zip(total, accumulate(row))]
        shared.append(total[:n_versions])
    return shared


def _changed_fractions(index: GroupIndex, metric: MetricKind) -> list[tuple[int, list[float]]]:
    """Per version, its size and its changed fractions at offsets 1, 2, ...

    A version that is empty under the metric has size 0 and no fractions.
    """
    key_set, count, _ = _METRIC_KEYS[metric]
    shared = _shared_counts(getattr(index, key_set), len(index.versions))
    sizes = [getattr(version, count) for version in index.versions]
    diagonal = [row[i] for i, row in enumerate(shared)]
    if diagonal != sizes:
        raise StoreFormatError(f"runs give {metric.value} counts {diagonal}, the versions record {sizes}")
    return [
        (size, [1.0 - c / size for c in shared[i][i + 1 :]] if size else [])
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
        raise UsageError("need at least 2 versions to build change curves")
    index = lifetime.group(group)
    curves: list[ChangeCurve] = []
    warnings: list[str] = []
    rows = _changed_fractions(index, metric)
    kind = _METRIC_KEYS[metric][0]
    inputs = tuple((f"{kind}.{name}", checksum) for name, checksum in sorted(getattr(index, kind).checked.items()))
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
        inputs=inputs,
    )
