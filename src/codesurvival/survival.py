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
``lines`` for uloc, one row per line digest, and ``files`` for file, one
row per (relpath, content digest) record.  A row's key is the first 16
bytes of its digest: the line digest itself, or the digest of a record's
basename and content, so records that share a key keep their
multiplicity.  All version pairs come from one kernel instead of one set
intersection per pair:

1. Each row's presence across the V versions is a ceil(V/8)-byte mask,
   one bit per version, for any V: the key set's own, read from the
   store that ``scan`` wrote (``ingest.scan_corpus``).  A key is present
   in a version if any of its rows is, so its mask ORs its rows' masks;
   the rows of one key are adjacent in the sorted key set.  A line is
   its own key, so for lines the two masks are one.
2. Rows with equal (row mask, key mask) pairs are interchangeable, so
   the rows collapse to U distinct patterns.  Lines live in contiguous
   version intervals, so U grows with V**2, not with the number of rows.
3. With count(u) the number of rows of pattern u, R[u, i] whether its
   row mask has version i and K[u, j] whether its key mask has version
   j, the overlap of every pair is C = (count R).T @ K.  It runs as a
   float64 product, which numpy hands to BLAS, over blocks of patterns
   unpacked one at a time so temporaries stay small.  Every partial sum
   is a whole number of rows, at most the key set's row count, and
   float64 holds every integer up to 2**53, so C is exact in any order of
   summation and on any number of BLAS threads; it is cast back to int64
   once, at the end.

Each fraction is then ``1.0 - C[i, j] / size_i`` on Python ints, the
same division a per-pair set intersection would make, so results are
bit-identical to it.  C[i, i] must equal the version's recorded uloc or
file count; a store whose masks disagree is refused.  The curve types
and their CSV form live in ``curves``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .curves import ChangeCurve, CurveFamily, MetricKind
from .errors import StoreFormatError, UsageError
from .ingest import STORE_FILENAME, GroupIndex, KeySet, load_all_snapshots

__all__ = ["build_curve_family"]

# Patterns per block of the overlap product.  Each block unpacks its own
# bits, so its two float64 operands, and BLAS's packed copies of them, take
# about _PATTERN_BLOCK * V * 8 bytes each; larger blocks bought no speed.
# The sums are exact while a key set has fewer than 2**53 rows; line rows
# are int32, so a lines key set has fewer than 2**31.  float32 would be
# exact only up to 2**24.
_PATTERN_BLOCK = 64

# Per metric: the key set of a group index it counts, the attribute of a
# version's recorded count of them, and what a version without any has.
_METRIC_KEYS = {
    MetricKind.ULOC: ("lines", "uloc_count", "an empty uloc set"),
    MetricKind.FILE: ("files", "file_count", "no files"),
}


def _shared_counts(keys: KeySet, n_versions: int) -> np.ndarray:
    """C[i, j]: how many of version i's rows have their key in version j."""
    masks, key_masks = keys.masks, keys.key_masks()
    pairs = masks if key_masks is None else np.concatenate([masks, key_masks], axis=1)
    # One opaque (row mask, key mask) item per row sorts far faster than rows.
    width = pairs.shape[1]
    patterns, counts = np.unique(pairs.view(np.dtype((np.void, width))).ravel(), return_counts=True)
    patterns = patterns.view(np.uint8).reshape(-1, width)
    counts = counts.astype(np.float64)[:, np.newaxis]
    # Key bits end each pattern; where keys are rows they are the row bits.
    key_start = (width - masks.shape[1]) * 8
    shared = np.zeros((n_versions, n_versions), dtype=np.float64)
    for start in range(0, len(patterns), _PATTERN_BLOCK):
        block = slice(start, start + _PATTERN_BLOCK)
        bits = np.unpackbits(patterns[block], axis=1, bitorder="little")
        row_bits = bits[:, :n_versions] * counts[block]
        key_bits = bits[:, key_start : key_start + n_versions].astype(np.float64)
        shared += row_bits.T @ key_bits
    return shared.astype(np.int64)


def _changed_fractions(index: GroupIndex, metric: MetricKind) -> list[tuple[int, list[float]]]:
    """Per version, its size and its changed fractions at offsets 1, 2, ...

    A version that is empty under the metric has size 0 and no fractions.
    """
    key_set, count, _ = _METRIC_KEYS[metric]
    shared = _shared_counts(getattr(index, key_set), len(index.versions))
    sizes = [getattr(version, count) for version in index.versions]
    if shared.diagonal().tolist() != sizes:
        raise StoreFormatError(
            f"presence masks give {metric.value} counts {shared.diagonal().tolist()}, "
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
    path = Path(store) / STORE_FILENAME
    if not path.is_file():
        raise UsageError(f"{path}: no store file; run `codesurvival scan` to write one")
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
