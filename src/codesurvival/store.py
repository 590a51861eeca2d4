"""The lifetime store: the one file ``scan`` writes and ``curves`` reads.

A store is a life table of a corpus.  Each group holds two key sets of
the same layout: ``lines``, one row per run of a line digest, and
``files``, one row per run of a (relpath, content digest) record.  Each
row holds its digest and its run of versions, (birth, death), so the
store grows with distinct lines and records, not with versions x lines.
Paths are not stored as text: a record's row digest is the digest of its
basename and content, then that of its directory, which is all
``curves`` needs.  Nothing is merged, so a revived line keeps one row
per run.  A run's ends are 16-bit, so a corpus holds at most 65,535
versions.

Rows are in life order: by death, then birth, then digest.  So the rows
of one run are one block, and the store holds each distinct run once,
with its number of rows, in a run table: the actuarial life table
itself.  Row k's run follows from its position.  Besides its rows, each
key set lists the rows of every key that has more than one (revived
lines, and records of one basename and content in several directories)
in a multi section, so that ``curves`` counts every pair's overlap from
the run table and those rows alone, without reading a digest or a
section that grows with rows.  The header records a checksum of every
section, and a section is checked when first read.

Importing this module does not import numpy, so ``curves`` reads a store
on the standard library alone.  numpy is imported by the code that
builds arrays: a key set's ``digests`` and ``runs`` views, and
``write_store`` (``scan``).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataError, StoreFormatError, UsageError

__all__ = [
    "DIGEST_ALGORITHM",
    "DIGEST_SIZE",
    "MAX_VERSIONS",
    "STORE_FILENAME",
    "GroupVersion",
    "KeySet",
    "GroupIndex",
    "LifetimeIndex",
    "write_store",
    "load_all_snapshots",
]

# Format 7: one file per store directory, named STORE_FILENAME.
#   <header>\n<sections>
# The header is one line of canonical JSON (sorted keys, no spaces, ASCII
# only, so it holds no raw newline):
#   {"digest": "blake2b-128", "format": 7,
#    "groups": {group: {"files": key set, "lines": key set}},
#    "versions": [{"groups": {group: {"files": f, "skipped": k,
#      "uloc": u}}, "label": label, "ordinal": i}, ...] in ordinal order}
# with each key set
#   {"checksums": {"digests": c, "multi": c, "table": c},
#    "digests": offset, "keys": n, "multi": offset, "multi_rows": m,
#    "table": offset, "table_rows": t}.
# "digest" is always the one digest; a file naming another is refused.
# Offsets count from the first byte after the header's newline.  Groups
# follow one another in name order, each as its lines key set, then its
# files key set, and each key set as three sections:
#   digests: its n row digests in life order, by (death, birth, digest),
#            digests by byte value: 16 bytes per row for lines, 32 for
#            files;
#   table:   t (birth, death, count) triples of little-endian uint16,
#            uint16, uint32, strictly ordered by (death, birth): the next
#            count rows each hold versions birth, ..., death - 1, with
#            count >= 1, the counts summing to n, and
#            0 <= birth < death <= V for V <= 65,535 versions;
#   multi:   m (key, birth, death) triples of little-endian uint32,
#            uint16, uint16: each row whose key has more than one row,
#            by digest, then birth, with its key's number among the keys
#            that have more than one row, 0, 1, ... in digest order.
# Each checksum c is the hex blake2b-128 of its section's bytes.
# A digest has one row per run: a line revived after an absence has a
# row for each run, and each dies before the next is born.  A line's row
# digest is the line's digest, and its key.  A file record's is the
# digest of basename + NUL + content digest, then the digest of the
# directory part of its relpath (empty at the root), names encoded as
# UTF-8 with surrogate escapes.  Its first 16 bytes are the record's
# (basename, content) key.  A version's uloc and file counts are the
# numbers of lines and files rows whose runs hold it.

STORE_FORMAT_VERSION = 7
STORE_FILENAME = "lifetime.store"

#: The one digest of lines and file contents, as named in store headers.
DIGEST_ALGORITHM = "blake2b-128"
DIGEST_SIZE = 16
MAX_VERSIONS = 2**16 - 1

# The key sets of a group, in store order, and the width of their row digests.
_KEY_SETS = {"lines": DIGEST_SIZE, "files": 2 * DIGEST_SIZE}
# A row's run of versions, (birth, death), as a numpy dtype.
_RUN_DTYPE = ("<u2", 2)
# A run table entry: a run, and how many rows in a row hold it.
_TABLE_DTYPE = [("birth", "<u2"), ("death", "<u2"), ("count", "<u4")]
_TABLE_FORMAT = "<HHI"
_TABLE_SIZE = 8
# A multi section row: its key's number among the shared keys, then its run.
_MULTI_DTYPE = [("key", "<u4"), ("birth", "<u2"), ("death", "<u2")]
_MULTI_SIZE = 8
_SECTIONS = ("digests", "table", "multi")


def _numpy():
    """numpy, imported by the first caller that builds an array."""
    import numpy

    return numpy


def _checksum(data) -> str:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).hexdigest()


@dataclass(frozen=True, slots=True)
class GroupVersion:
    """One group of one version as the store records it, besides its rows."""

    file_count: int
    uloc_count: int
    skipped_files: int = 0


def _run_table(runs):
    """The run table of rows in life order: each run once, with the number of rows in a row that hold it."""
    np = _numpy()
    if len(runs) >= 2**32:
        raise ValueError(f"{len(runs)} rows; a key set holds at most 2**32 - 1")
    starts = np.ones(len(runs), dtype=bool)
    starts[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    starts = np.flatnonzero(starts)
    table = np.empty(len(starts), dtype=_TABLE_DTYPE)
    table["birth"], table["death"] = runs[starts, 0], runs[starts, 1]
    table["count"] = np.diff(starts, append=len(runs))
    return table


def _multi_rows(digests, runs):
    """The multi section of rows by digest, then birth: each row whose key has more than one, with its key's number."""
    np = _numpy()
    keys = digests.view(f"S{DIGEST_SIZE}")[:: digests.itemsize // DIGEST_SIZE]
    # edge[k]: row k starts a key (k < rows), or k is the end.
    edge = np.ones(len(keys) + 1, dtype=bool)
    edge[1:-1] = keys[1:] != keys[:-1]
    multi = np.flatnonzero(~(edge[:-1] & edge[1:]))
    rows = np.empty(len(multi), dtype=_MULTI_DTYPE)
    # A key's rows are adjacent, and the first of them starts it.
    rows["key"], rows["birth"], rows["death"] = np.cumsum(edge[multi]) - 1, runs[multi, 0], runs[multi, 1]
    return rows


class KeySet:
    """Fixed-width row digests, each row held by one run of versions; read-only.

    ``digests[k]`` is row k's digest, and ``runs[k]`` its (birth, death):
    versions birth, ..., death - 1 hold row k, and no others.  A digest
    revived after an absence holds a second row, born after the first
    died, and the rows of one digest are in birth order: a scan numbers
    rows as their keys appear (``ingest._Rows.key_set``), and a store
    holds them in life order.  An empty run (birth == death) is a row no
    version holds, which ``write_store`` leaves out.

    A key set read from a store (``stored``) holds its sections' bytes.
    ``section`` gives one, refused unless it matches the header's
    checksum, and ``checked`` names the checksums matched so far.
    ``table`` reads the run table alone.  ``digests`` is a numpy view of
    its section and ``runs`` the run table expanded to one run per row,
    both built on first access, when the rows are checked too: a stage
    reads only the sections it uses.
    """

    def __init__(self, digests=None, runs=None, width: int = DIGEST_SIZE) -> None:
        self.width = width
        self._digests, self._runs = digests, runs
        self.rows = 0 if digests is None else len(digests)
        self.source = ""
        self.checked: dict[str, str] = {}
        # A stored key set's sections, as (bytes, checksum), and its store's number of versions.
        self._sections: dict[str, tuple[memoryview, str]] = {}
        self._versions = 0

    @classmethod
    def stored(cls, sections: dict[str, tuple[memoryview, str]], rows: int, width: int, *, source: str, versions: int) -> KeySet:
        """A key set of a store: its sections by name, as (bytes, checksum); ``source`` says where it lies."""
        keys = cls(width=width)
        keys.rows, keys.source, keys._sections, keys._versions = rows, source, sections, versions
        return keys

    def section(self, name: str) -> memoryview:
        """A stored section's bytes, once they match the header's checksum."""
        data, checksum = self._sections[name]
        if name not in self.checked:
            if _checksum(data) != checksum:
                raise DataError(
                    f"{self.source} {name} section does not match its checksum; the store "
                    "is corrupted, rescan the corpus into a new store"
                )
            self.checked[name] = checksum
        return data

    def table(self) -> list[tuple[int, int, int]]:
        """A stored key set's run table, as (birth, death, count), refused unless a scan could have written it."""
        table = list(struct.iter_unpack(_TABLE_FORMAT, self.section("table")))
        if not all(b < d <= self._versions for b, d, _ in table):
            raise StoreFormatError(f"{self.source} runs are not all within versions 0 to {self._versions}")
        if any((d, b) >= (next_d, next_b) for (b, d, _), (next_b, next_d, _) in zip(table, table[1:])):
            raise StoreFormatError(f"{self.source} run table is not strictly in (death, birth) order")
        counts = [count for _, _, count in table]
        if not all(counts):
            raise StoreFormatError(f"{self.source} run table has a run of 0 rows")
        if sum(counts) != self.rows:
            raise StoreFormatError(f"{self.source} run table counts sum to {sum(counts)}, not to its {self.rows} rows")
        return table

    def _arrays(self) -> None:
        """Build the numpy arrays: empty in memory, or checked views of the store's sections."""
        if self._digests is not None:
            return
        np = _numpy()
        if not self._sections:
            self._digests, self._runs = np.empty(0, f"S{self.width}"), np.empty(0, _RUN_DTYPE)
            return
        table = np.array(self.table(), dtype=np.int64).reshape(-1, 3)
        digests = np.frombuffer(self.section("digests"), f"S{self.width}")
        runs = np.repeat(table[:, :2].astype(_RUN_DTYPE[0]), table[:, 2], axis=0)
        # inner[k]: rows k and k + 1 hold one run.
        inner = np.ones(max(self.rows - 1, 0), dtype=bool)
        inner[np.cumsum(table[:-1, 2]) - 1] = False
        if (digests[1:] <= digests[:-1])[inner].any():
            raise StoreFormatError(f"{self.source} digests do not increase within each run")
        # By digest: a digest's rows stay in life order, which is birth order unless they overlap.
        order = np.argsort(digests, kind="stable")
        by_digest, by_digest_runs = digests[order], runs[order]
        if ((by_digest[1:] == by_digest[:-1]) & (by_digest_runs[:-1, 1] >= by_digest_runs[1:, 0])).any():
            raise StoreFormatError(f"{self.source} rows of one digest overlap or touch")
        if _multi_rows(by_digest, by_digest_runs).tobytes() != self.section("multi"):
            raise StoreFormatError(f"{self.source} multi section does not list the rows of its shared keys")
        self._digests, self._runs = digests, runs

    @property
    def digests(self):
        self._arrays()
        return self._digests

    @property
    def runs(self):
        self._arrays()
        return self._runs


class GroupIndex:
    """One group across versions: its lines and its file records, as two key sets.

    ``lines`` has a row per run of a line digest, ``files`` one per run of
    a (relpath, content digest) record, and ``versions`` keeps each
    version's counts, in ordinal order.  ``scan`` builds it once, after
    its last version, and a store holds and loads it.
    """

    def __init__(
        self,
        lines: KeySet | None = None,
        files: KeySet | None = None,
        versions: Sequence[GroupVersion] = (),
    ) -> None:
        self.lines = KeySet() if lines is None else lines
        self.files = KeySet(width=_KEY_SETS["files"]) if files is None else files
        self.versions = list(versions)


@dataclass
class LifetimeIndex:
    """Every version's label, in ordinal order, and one index per group."""

    labels: list[str]
    groups: dict[str, GroupIndex]

    def group(self, name: str) -> GroupIndex:
        try:
            return self.groups[name]
        except KeyError:
            raise UsageError(
                f"store has no group {name!r}; available: {sorted(self.groups)}"
            ) from None


def _canonical_json(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")


def write_store(index: LifetimeIndex, store: str | Path) -> Path:
    """Write the index as the store file of a directory, replacing it whole.

    Each key set's rows that a version holds are ordered here, in two
    stable sorts.  By digest first, rows of one digest staying in birth
    order (``KeySet``): the multi section's order.  Then by run, (death,
    birth): life order, ties by digest.  So the bytes are canonical, and
    re-scanning an unchanged corpus reproduces the store byte for byte.
    The file is written under a temporary name in the same directory and
    then renamed over the old one, so the store is never partial.
    """
    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)
    versions = [{"groups": {}, "label": label, "ordinal": i} for i, label in enumerate(index.labels)]
    layout: dict[str, dict[str, dict]] = {}
    sections: list = []
    offset = 0
    np = _numpy()
    for name in sorted(index.groups):
        group = index.groups[name]
        for entry, v in zip(versions, group.versions):
            entry["groups"][name] = dict(files=v.file_count, skipped=v.skipped_files, uloc=v.uloc_count)
        layout[name] = {}
        for kind in _KEY_SETS:
            digests, runs = getattr(group, kind).digests, getattr(group, kind).runs
            order = np.flatnonzero(runs[:, 0] < runs[:, 1])
            order = order[np.argsort(digests[order], kind="stable")]
            multi = _multi_rows(digests[order], runs[order])
            order = order[np.argsort(runs[order, 1].astype(np.uint32) << 16 | runs[order, 0], kind="stable")]
            digests, runs = digests[order], runs[order]
            table = _run_table(runs)
            entry = dict(keys=len(digests), multi_rows=len(multi), table_rows=len(table), checksums={})
            for section, data in zip(_SECTIONS, (digests, table, multi)):
                entry[section] = offset
                entry["checksums"][section] = _checksum(data)
                sections.append(data)
                offset += data.nbytes
            layout[name][kind] = entry
    header = dict(digest=DIGEST_ALGORITHM, format=STORE_FORMAT_VERSION, groups=layout, versions=versions)
    path = store / STORE_FILENAME
    temporary = store / f".{STORE_FILENAME}.{os.getpid()}.tmp"
    try:
        with temporary.open("wb") as fh:
            fh.write(_canonical_json(header) + b"\n")
            fh.writelines(sections)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
    return path


def _field(path: Path, record: object, name: str, kind: type, where: str):
    value = record.get(name) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise StoreFormatError(
            f"{path}: {where} field {name!r} is missing or not a {kind.__name__}"
        )
    return value


def _group_versions(path: Path, versions: list, names: list[str]) -> tuple[list[str], dict]:
    """Labels in ordinal order and, per group, each version's GroupVersion."""
    labels: list[str] = []
    per_group: dict[str, list[GroupVersion]] = {name: [] for name in names}
    for i, version in enumerate(versions):
        where = f"version {i}"
        labels.append(_field(path, version, "label", str, where))
        if _field(path, version, "ordinal", int, where) != i:
            raise StoreFormatError(f"{path}: version {i} has ordinal {version['ordinal']}")
        groups = _field(path, version, "groups", dict, where)
        if sorted(groups) != names:
            raise StoreFormatError(
                f"{path}: version {i} has groups {sorted(groups)}, the store has {names}"
            )
        for name in names:
            entry, where = groups[name], f"version {i} group {name!r}"
            counts = (_field(path, entry, key, int, where) for key in ("files", "uloc", "skipped"))
            per_group[name].append(GroupVersion(*counts))
    return labels, per_group


def _key_set_spans(path: Path, entry: object, where: str, width: int, offset: int) -> dict[str, tuple[int, int, str]]:
    """Each section of a key set laid out from this offset, as (start, end, checksum).

    Refused unless the header lays the key set out so.
    """
    keys = _field(path, entry, "keys", int, where)
    multi = _field(path, entry, "multi_rows", int, where)
    table = _field(path, entry, "table_rows", int, where)
    checksums = entry.get("checksums")
    expected = {
        "checksums": checksums,
        "digests": offset,
        "keys": keys,
        "multi": offset + keys * width + table * _TABLE_SIZE,
        "multi_rows": multi,
        "table": offset + keys * width,
        "table_rows": table,
    }
    named = isinstance(checksums, dict) and checksums.keys() == set(_SECTIONS)
    counts = 0 <= multi <= keys and 0 <= table <= keys
    if not named or not all(isinstance(c, str) for c in checksums.values()) or not counts or entry != expected:
        raise StoreFormatError(f"{path}: {where} sections {entry} are not laid out as {expected}")
    ends = {"digests": expected["table"], "table": expected["multi"], "multi": expected["multi"] + multi * _MULTI_SIZE}
    return {name: (entry[name], ends[name], checksums[name]) for name in _SECTIONS}


def load_all_snapshots(store: str | Path) -> LifetimeIndex:
    """Load a store: every version's counts, and each group's two key sets.

    Each key set holds its sections as read-only views into a memory map
    of the file, so a caller reads from disk only the sections it uses,
    each checked against its checksum when first read (``KeySet``).  The
    header and the sections' layout are checked here.  A directory
    without a store file is a usage error.
    """
    store = Path(store)
    path = store / STORE_FILENAME
    if not path.is_file():
        if any(store.glob("*.snap")):
            raise StoreFormatError(
                f"{store}: per-version .snap files are store format 1 or 2, which is no "
                "longer read; rescan the corpus into a new store"
            )
        raise UsageError(f"{path}: no store file; run `codesurvival scan` to write one")
    with path.open("rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line)
        except ValueError:  # also a UnicodeDecodeError
            header = None
        if not line.endswith(b"\n") or not isinstance(header, dict):
            raise StoreFormatError(f"{path}: missing or malformed header line")
        if header.get("format") != STORE_FORMAT_VERSION:
            raise StoreFormatError(
                f"{path}: unsupported store format version {header.get('format')!r}, only "
                f"{STORE_FORMAT_VERSION} is read; rescan the corpus into a new store"
            )
        digest = _field(path, header, "digest", str, "header")
        if digest != DIGEST_ALGORITHM:
            raise StoreFormatError(
                f"{path}: unknown digest {digest!r}, only {DIGEST_ALGORITHM!r} is read; "
                "rescan the corpus into a new store"
            )
        layout = _field(path, header, "groups", dict, "header")
        labels, per_group = _group_versions(
            path, _field(path, header, "versions", list, "header"), sorted(layout)
        )
        spans: dict[tuple[str, str], dict[str, tuple[int, int, str]]] = {}
        offset = 0
        for name in sorted(layout):
            for kind, width in _KEY_SETS.items():
                entry = _field(path, layout[name], kind, dict, f"group {name!r}")
                spans[name, kind] = _key_set_spans(path, entry, f"group {name!r} {kind}", width, offset)
                offset = spans[name, kind]["multi"][1]
        size = os.fstat(fh.fileno()).st_size
        if size != len(line) + offset:
            raise StoreFormatError(
                f"{path}: file has {size} bytes, its header promises {len(line) + offset}"
            )
        # The views below keep the map open; it closes with the last of them.
        data = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))[len(line) :]
    groups = {}
    for name in layout:
        key_sets = [
            KeySet.stored(
                {section: (data[a:z], checksum) for section, (a, z, checksum) in spans[name, kind].items()},
                layout[name][kind]["keys"],
                width,
                source=f"{path}: group {name!r} {kind}",
                versions=len(labels),
            )
            for kind, width in _KEY_SETS.items()
        ]
        groups[name] = GroupIndex(*key_sets, per_group[name])
    return LifetimeIndex(labels=labels, groups=groups)
