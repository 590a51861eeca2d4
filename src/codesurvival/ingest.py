"""Load version snapshots from disk and digest them into comparable form.

A corpus is an ordered list of version snapshots (directories or tar
archives prepared externally, one per release).  Scanning a version
produces, per extension group, the list of file records (relative
path and content digest; the basename is the path's last component)
and the unique lines pooled across all files of the group, as rows of
a group index that holds each distinct line digest once.  Duplicate
lines are discarded; a line is the exact byte content after CRLF
normalization, with no whitespace trimming and no special treatment of
comments.

Lines and file contents are represented by fixed-width digests so that
corpora with billions of lines stay tractable.  The digest is 16-byte
BLAKE2b (``blake2b-128``), the only one; its name is stamped into the
store header, and a store whose header names another digest is refused
rather than compared as an incompatible set.

Reading and digesting are split.  Directories are read in this process
one file at a time, as they are digested.  Archives are read ahead in a
pool of ``min(2, CPUs available to the process)`` worker processes,
created only when the manifest lists an archive: a worker decompresses
the archive, walks its members and sends back the bytes of the group
files.  All digesting, and the lifetime index, stay in this process, in
manifest order, so the store does not depend on the workers.  At most
``workers + 1`` archives' group files are held here at once, read ahead
or being digested.

Most lines of a release were already in the release before it, so
``scan_corpus`` carries a line -> row map per group from one version to
the next, rows of the lifetime index it builds.  A line the map holds
costs one lookup; only a line the previous version lacked is digested,
and the version's new digests are looked up in the index in one batch,
so a line that comes back after an absence keeps its old row.  A file
whose relpath and content equal the previous version's is not split
at all: it takes that file's rows.  When a version ends, the lines the
previous version had and this one lacks leave the map, so it never
holds more than two versions' distinct lines, each once.

The store (format 3) is one file per store directory, a lifetime index
of the corpus: per group, the sorted distinct line digests of every
version and, for each digest, a presence mask with one bit per version
(a bitmap index over versions).  It grows with distinct lines, not with
versions x lines.  ``scan`` folds each version into the index as it goes,
setting its bit on the rows it has, and writes the file once, after the
last version, under a temporary name that then replaces the old file; a
store is never partial or stale.
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import json
import lzma
import mmap
import os
import re
import tarfile
import zlib
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ManifestError,
    MissingSourceError,
    StoreFormatError,
    UsageError,
)

__all__ = [
    "DIGEST_ALGORITHM",
    "DIGEST_SIZE",
    "ExtensionGroup",
    "VersionEntry",
    "CorpusManifest",
    "FileRecord",
    "GroupPayload",
    "VersionSnapshot",
    "GroupVersion",
    "GroupIndex",
    "LifetimeIndex",
    "ScanCounters",
    "STORE_FILENAME",
    "load_manifest",
    "normalize_lines",
    "scan_version",
    "scan_corpus",
    "store_snapshot",
    "write_store",
    "load_all_snapshots",
]

STORE_FORMAT_VERSION = 3

_TAR_SUFFIXES = (".tar", ".tar.gz", ".tgz", ".tar.bz2", ".tar.xz")
_GROUP_NAME_RE = re.compile(r"^[A-Za-z0-9_+.-]+$")


#: The one digest of lines and file contents, as named in store headers.
DIGEST_ALGORITHM = "blake2b-128"
DIGEST_SIZE = 16
# Equality and order of fixed-width S items are exact byte comparisons,
# NUL bytes included.
_DIGEST_DTYPE = f"S{DIGEST_SIZE}"
# A line's row in a group index; 2**31 distinct lines in one group would
# need masks and digests far beyond a desk machine's memory anyway.
_ROW_DTYPE = np.int32


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


@dataclass(frozen=True)
class ExtensionGroup:
    """A named set of filename suffixes, e.g. ("cpp", (".cpp",)).

    Suffix matching is case sensitive.  When several groups could match
    one filename (".h" vs ".inc.h"), the longest matching suffix wins,
    so a file contributes to at most one group.
    """

    name: str
    extensions: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _GROUP_NAME_RE.match(self.name):
            raise ManifestError(f"invalid group name {self.name!r}")
        object.__setattr__(self, "extensions", tuple(self.extensions))
        if not self.extensions:
            raise ManifestError(f"group {self.name!r} has no extensions")
        if len(set(self.extensions)) != len(self.extensions):
            raise ManifestError(f"group {self.name!r} has duplicate extensions")
        for ext in self.extensions:
            if not ext.startswith("."):
                raise ManifestError(
                    f"group {self.name!r}: extension {ext!r} must include the leading dot"
                )


def _check_groups_disjoint(groups: Sequence[ExtensionGroup]) -> None:
    seen: dict[str, str] = {}
    names = set()
    for group in groups:
        if group.name in names:
            raise ManifestError(f"duplicate group name {group.name!r}")
        names.add(group.name)
        for ext in group.extensions:
            if ext in seen:
                raise ManifestError(
                    f"extension {ext!r} appears in groups {seen[ext]!r} and {group.name!r}"
                )
            seen[ext] = group.name


@dataclass(frozen=True)
class VersionEntry:
    label: str
    ordinal: int
    source: Path
    release_date: datetime.date | None = None


@dataclass(frozen=True)
class CorpusManifest:
    software: str
    versions: tuple[VersionEntry, ...]
    groups: tuple[ExtensionGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "versions", tuple(self.versions))
        object.__setattr__(self, "groups", tuple(self.groups))
        labels = [v.label for v in self.versions]
        for label in labels:
            if labels.count(label) > 1:
                raise ManifestError(f"duplicate version label {label!r}")
        for i, version in enumerate(self.versions):
            if version.ordinal != i:
                raise ManifestError(
                    f"ordinals must be contiguous from 0; version {version.label!r} "
                    f"has ordinal {version.ordinal} at position {i}"
                )
        _check_groups_disjoint(self.groups)


# Slots: a store holds one record per file per version.
@dataclass(frozen=True, slots=True)
class FileRecord:
    """One file of a snapshot: root-relative path and content digest."""

    relpath: str
    content_digest: bytes

    @property
    def basename(self) -> str:
        return self.relpath.rpartition("/")[2]


@dataclass(frozen=True)
class GroupPayload:
    """Digested content of one extension group within one version.

    The group's unique lines, pooled across its files, are ``rows``: the
    distinct rows of a group index (``GroupIndex``), in ascending order.
    ``row_digests`` holds the digest of every row of that index up to
    the highest of them.  A scan into a lifetime index numbers lines by
    that index's rows, so folding the payload into it sets bits and looks
    nothing up; a standalone scan numbers them in an index of its own.
    Payloads compare by content (files, skipped count and line digests),
    whichever index numbered their rows.
    """

    files: tuple[FileRecord, ...]
    rows: np.ndarray
    row_digests: np.ndarray
    skipped_files: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupPayload):
            return NotImplemented
        return (self.files, self.skipped_files, self.uloc) == (
            other.files,
            other.skipped_files,
            other.uloc,
        )

    @property
    def digests(self) -> np.ndarray:
        """The unique line digests, one per row."""
        return self.row_digests[self.rows]

    @property
    def uloc(self) -> frozenset[bytes]:
        """The unique line digests as a set, built on each access."""
        # tobytes: an S item would lose a digest's trailing NUL bytes.
        block = self.digests.tobytes()
        return frozenset(block[i : i + DIGEST_SIZE] for i in range(0, len(block), DIGEST_SIZE))

    @property
    def uloc_count(self) -> int:
        return len(self.rows)

    @property
    def file_count(self) -> int:
        return len(self.files)


@dataclass(frozen=True)
class VersionSnapshot:
    """Immutable digested content of one software version."""

    version_label: str
    ordinal: int
    groups: Mapping[str, GroupPayload] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", dict(self.groups))

    def group(self, name: str) -> GroupPayload:
        try:
            return self.groups[name]
        except KeyError:
            raise KeyError(
                f"snapshot {self.version_label!r} has no group {name!r}; "
                f"available: {sorted(self.groups)}"
            ) from None


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse and validate a corpus manifest (JSON).

    Schema: ``{"software": str, "groups": [{"name": str, "extensions":
    [".ext", ...]}, ...], "versions": [{"label": str, "path": str,
    "date": "YYYY-MM-DD"?}, ...]}``.  Version paths are resolved
    relative to the manifest's directory; each must exist.  Ordinals are
    assigned in listed order.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    for key in ("software", "groups", "versions"):
        if key not in raw:
            raise ManifestError(f"manifest {path} is missing field {key!r}")
    if not isinstance(raw["versions"], list):
        raise ManifestError(f"manifest {path}: field 'versions' is not a list")

    try:
        groups = tuple(
            ExtensionGroup(name=g["name"], extensions=tuple(g["extensions"]))
            for g in raw["groups"]
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest {path}: malformed group entry ({exc})") from exc

    base = path.parent
    versions = []
    for i, entry in enumerate(raw["versions"]):
        try:
            label = entry["label"]
            source = Path(entry["path"])
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"manifest {path}: malformed version entry {i} ({exc})") from exc
        if not isinstance(label, str):
            raise ManifestError(f"manifest {path}: version entry {i} has label {label!r}, not a string")
        if not source.is_absolute():
            source = base / source
        date = None
        if entry.get("date") is not None:
            try:
                date = datetime.date.fromisoformat(entry["date"])
            except (TypeError, ValueError) as exc:
                raise ManifestError(
                    f"manifest {path}: version {label!r} has invalid date {entry['date']!r}"
                ) from exc
        if not (source.is_dir() or (source.is_file() and _is_tar(source))):
            raise MissingSourceError(
                f"version {label!r}: snapshot source {source} does not exist "
                "(expected a directory or tar archive)"
            )
        versions.append(VersionEntry(label=label, ordinal=i, source=source, release_date=date))
    return CorpusManifest(software=raw["software"], versions=tuple(versions), groups=groups)


def _is_tar(path: Path) -> bool:
    return any(path.name.endswith(suffix) for suffix in _TAR_SUFFIXES)


def _split_lines(data: bytes) -> list[bytes]:
    """The lines of a file: split on LF, one trailing CR per line removed.

    A trailing final newline adds no empty line, and a missing final
    newline changes nothing.
    """
    if not data:
        return []
    # CRLF -> LF first, so only an unterminated last line can still carry
    # the CR that ends it; "x\r\r\n" keeps one CR, as one strip would.
    lines = data.replace(b"\r\n", b"\n").split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    elif lines[-1].endswith(b"\r"):
        lines[-1] = lines[-1][:-1]
    return lines


def normalize_lines(data: bytes) -> list[bytes]:
    """Split raw bytes into line digests.

    Content is split on LF; one trailing CR per line is removed, so CRLF
    and LF files digest identically.  A trailing final newline adds no
    empty line, and a missing final newline changes nothing.  No other
    normalization is applied; non-UTF-8 bytes are digested as-is.
    """
    return list(map(_digest, _split_lines(data)))


@dataclass
class ScanCounters:
    """The work of scanning one group, summed over the versions scanned."""

    files: int = 0  # files read; unreadable ones are counted as skipped instead
    files_reused: int = 0  # files equal to the previous version's at their relpath
    lines: int = 0  # lines of the files read, reused ones included
    lines_digested: int = 0  # lines the memo did not hold
    memo_lines_max: int = 0  # the most lines the memo held at once
    index_rows: int = 0  # distinct lines of the group's lifetime index


class _LineRows(dict):
    """Line -> row of one group's index, for the lines of the previous and the current version.

    A line the map holds costs one lookup.  Any other line is digested
    on first lookup and given a provisional row past the index's last.
    ``settle`` ends the version: the new lines' digests are looked up in
    the index in one batch, so a line an earlier version had gets its
    old row back and only a line never seen gets a new row.  A file
    equal to the previous version's file at the same relpath takes that
    file's rows without being split.  Rows the previous version had and
    this one lacks then drop their line, so the map holds exactly the
    lines of the version just scanned.
    """

    def __init__(self, index: GroupIndex) -> None:
        super().__init__()
        self.index = index
        self.counters = ScanCounters()
        self._line_of_row: list[bytes | None] = []  # None once the line has left the map
        self._new_lines: list[bytes] = []
        self._new_digests = bytearray()
        self._previous_rows = np.empty(0, dtype=np.intp)
        self._previous_files: dict[str, tuple[FileRecord, np.ndarray]] = {}

    def __missing__(self, line: bytes) -> int:
        row = self[line] = self.index.rows + len(self._new_lines)
        self._new_lines.append(line)
        self._new_digests += _digest(line)
        return row

    def file(self, relpath: str, data: bytes) -> tuple[FileRecord, np.ndarray]:
        """The file's record and the row of each of its lines, in order."""
        record = FileRecord(relpath=relpath, content_digest=_digest(data))
        previous = self._previous_files.get(relpath)
        if previous is not None and previous[0] == record:
            rows = previous[1]
            self.counters.files_reused += 1
        else:
            lines = _split_lines(data)
            rows = np.fromiter(map(self.__getitem__, lines), dtype=_ROW_DTYPE, count=len(lines))
        self.counters.files += 1
        self.counters.lines += len(rows)
        return record, rows

    def settle(self, kept: list[tuple[FileRecord, np.ndarray]]) -> np.ndarray:
        """End the version of these files: its distinct rows, ascending."""
        index, base, new_lines = self.index, self.index.rows, self._new_lines
        counters = self.counters
        counters.lines_digested += len(new_lines)
        counters.memo_lines_max = max(counters.memo_lines_max, len(self))
        rows = np.concatenate([r for _, r in kept]) if kept else np.empty(0, dtype=_ROW_DTYPE)
        if new_lines:
            present = np.zeros(base + len(new_lines), dtype=bool)
            present[rows] = True
            # A new line can be absent: a later tar member of the same path
            # replaced the file it was in.
            held = present[base:]
            final = np.full(len(new_lines), -1, dtype=_ROW_DTYPE)
            final[held] = index.rows_of(np.frombuffer(self._new_digests, _DIGEST_DTYPE)[held])
            if index.rows - base == len(new_lines):
                # Every new line was held and never seen: its provisional row is its row.
                self._line_of_row += new_lines
            else:
                self._line_of_row += repeat(None, index.rows - base)
                for line, row in zip(new_lines, final.tolist()):
                    if row < 0:
                        del self[line]
                    else:
                        self[line] = row
                        self._line_of_row[row] = line
                remap = np.concatenate([np.arange(base, dtype=_ROW_DTYPE), final])
                kept = [(record, remap[r]) for record, r in kept]
                rows = remap[rows]
            self._new_lines, self._new_digests = [], bytearray()
        present = np.zeros(index.rows, dtype=bool)
        present[rows] = True
        rows = np.flatnonzero(present)
        previous = self._previous_rows
        for row in previous[~present[previous]].tolist():
            del self[self._line_of_row[row]]
            self._line_of_row[row] = None
        self._previous_rows = rows
        self._previous_files = {record.relpath: (record, r) for record, r in kept}
        counters.index_rows = index.rows
        return rows


def _match_group(name: str, groups: Sequence[ExtensionGroup]) -> ExtensionGroup | None:
    best: ExtensionGroup | None = None
    best_len = 0
    for group in groups:
        for ext in group.extensions:
            if name.endswith(ext) and len(ext) > best_len:
                best = group
                best_len = len(ext)
    return best


# A file of a version as read: its group, relpath and bytes, or None for a
# file that could not be read.
_GroupFile = tuple[ExtensionGroup, str, bytes | None]


def _read_directory(source: Path, groups: Sequence[ExtensionGroup]) -> Iterator[_GroupFile]:
    for root, dirnames, filenames in os.walk(source, followlinks=False):
        dirnames.sort()
        for filename in sorted(filenames):
            group = _match_group(filename, groups)
            if group is None:
                continue
            full = Path(root) / filename
            if full.is_symlink() or not full.is_file():
                continue
            try:
                data = full.read_bytes()
            except OSError:
                data = None
            yield group, full.relative_to(source).as_posix(), data


def _extract_link(tar: tarfile.TarFile, member: tarfile.TarInfo) -> bytes | None:
    # tarfile seeks back to the target, which in a compressed archive means
    # decompressing again from the start.
    try:
        reader = tar.extractfile(member)
    except KeyError:  # no member of that name archived before the link
        return None
    return None if reader is None else reader.read()


def _read_tar(source: Path, groups: Sequence[ExtensionGroup]) -> Iterator[_GroupFile]:
    # One pass in archive order (scan_version sorts what it keeps), then
    # on to the end of the stream: a compressed archive's checksum sits
    # past the last member and is only verified once it is read.
    # A hard link reads as the last member of its target's name archived
    # before it, names normalized, as tarfile resolves it.  ``held`` maps
    # each name whose last member so far is a group file to its bytes, so
    # a link to one is resolved without seeking back.
    held: dict[str, bytes] = {}
    try:
        with tarfile.open(source) as tar:
            for member in tar:
                name = os.path.normpath(member.name)
                # Only the "./" a tar of "." adds: ".cfg/x" keeps its dot.
                relpath = member.name.removeprefix("./")
                group = None
                if member.isreg() or member.islnk():
                    group = _match_group(relpath.rpartition("/")[2], groups)
                if group is None:
                    held.pop(name, None)
                    continue
                if member.isreg():
                    data = tar.extractfile(member).read()
                else:
                    data = held.get(os.path.normpath(member.linkname))
                    if data is None:
                        data = _extract_link(tar, member)
                if data is None:
                    held.pop(name, None)
                else:
                    held[name] = data
                yield group, relpath, data
            while tar.fileobj.read(1 << 20):
                pass
    except (tarfile.TarError, EOFError, gzip.BadGzipFile, zlib.error, lzma.LZMAError) as exc:
        raise UsageError(f"cannot read tar archive {source}: {exc}") from exc


def _read_version(source: Path, groups: Sequence[ExtensionGroup]) -> Iterator[_GroupFile]:
    """The group files of one version, each as (group, relpath, bytes).

    Names are matched to groups before anything is read, so files no
    group takes are never read.  The bytes are None for a file that could
    not be read.  A directory is read one file per step, as the caller
    iterates.
    """
    if source.is_dir():
        yield from _read_directory(source, groups)
    elif source.is_file() and _is_tar(source):
        yield from _read_tar(source, groups)
    else:
        raise MissingSourceError(f"snapshot source {source} does not exist")


def _read_archive(source: Path, groups: Sequence[ExtensionGroup]) -> list[_GroupFile]:
    """A worker's task: every group file of one archive."""
    return list(_read_version(source, groups))


def scan_version(
    source: str | Path,
    groups: Sequence[ExtensionGroup],
    *,
    label: str | None = None,
    ordinal: int = 0,
    memo: Mapping[str, _LineRows] | None = None,
    contents: Iterable[_GroupFile] | None = None,
) -> VersionSnapshot:
    """Digest one version directory (or tar archive) into a snapshot.

    Every regular file whose name ends with a group suffix is digested
    into that group; symbolic links are not followed, and a tar's hard
    link reads as the file it names.  When a tar holds one path twice,
    the member archived last wins, as on extraction.  The group's uloc
    block pools the line digests of all its files, so duplicate lines
    within or across files collapse to one digest.  Unreadable files are
    skipped and counted per group; a missing source is a hard error.

    ``memo`` maps each group to the lines of the version scanned before
    and their rows in the group's lifetime index; ``scan_corpus`` passes
    the same one for every version, so a line is digested only when the
    version before lacked it.  Without it each distinct line of this
    version is digested once and numbered in an index of its own.
    ``contents`` are the source's group files as (group, relpath, bytes
    or None if unreadable), already read; without them the source is
    read here.
    """
    source = Path(source)
    _check_groups_disjoint(groups)
    if contents is None:
        contents = _read_version(source, groups)
    if memo is None:
        memo = {g.name: _LineRows(GroupIndex()) for g in groups}

    # Per group and relpath: the file's record and the row of each of its
    # lines, or None for a file that could not be read.
    entries: dict[str, dict[str, tuple[FileRecord, np.ndarray] | None]] = {g.name: {} for g in groups}
    for group, relpath, data in contents:
        entries[group.name][relpath] = None if data is None else memo[group.name].file(relpath, data)

    payloads = {}
    for g in groups:
        kept = [entry for entry in entries[g.name].values() if entry is not None]
        rows = memo[g.name].settle(kept)
        payloads[g.name] = GroupPayload(
            files=tuple(sorted((record for record, _ in kept), key=lambda r: r.relpath)),
            rows=rows,
            row_digests=memo[g.name].index.row_digests,
            skipped_files=len(entries[g.name]) - len(kept),
        )
    return VersionSnapshot(
        version_label=label if label is not None else source.name,
        ordinal=ordinal,
        groups=payloads,
    )


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _read_ahead(manifest: CorpusManifest) -> Iterator[list[_GroupFile] | None]:
    """Per version in manifest order: an archive's group files, or None for a directory.

    Archives are read in a pool of at most two worker processes, at most
    ``workers + 1`` of them ahead of the version being digested; the pool
    exists only if the manifest lists an archive, and closing the
    generator shuts it down.  Directories are left to ``scan_version``,
    which reads them file by file.
    """
    is_archive = [not entry.source.is_dir() for entry in manifest.versions]
    if not any(is_archive):
        yield from repeat(None, len(is_archive))
        return
    # Imported here: only a scan of archives uses them, and at module level
    # they would add about 20 ms to the start of every command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(2, _available_cpus(), sum(is_archive))
    # fork spares each worker from importing numpy again.  numpy's BLAS
    # thread makes this process multi-threaded, so Python 3.12 and later
    # warn on fork; that is safe here because the workers only read files
    # and never call numpy.  The pool forks all its workers at the first
    # submit, before it starts threads of its own.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        unread = (entry.source for entry, archive in zip(manifest.versions, is_archive) if archive)
        pending = deque()
        for archive in is_archive:
            # With the one taken now, at most workers + 1 archives are
            # submitted and not yet digested.
            pending.extend(
                pool.submit(_read_archive, source, manifest.groups)
                for source in islice(unread, workers + 1 - len(pending))
            )
            yield pending.popleft().result() if archive else None
    finally:
        pool.shutdown(cancel_futures=True)


def scan_corpus(
    manifest: CorpusManifest,
    store: str | Path | None = None,
    *,
    counters: dict[str, ScanCounters] | None = None,
) -> Iterator[VersionSnapshot]:
    """Scan every version of a manifest in order, optionally persisting.

    Yields each snapshot as it is completed so callers can report
    per-version counts without holding the whole corpus in memory.  With
    a store, each snapshot is folded into one lifetime index, and the
    store file is written once, after the last version: a scan that
    fails part way leaves the store as it was.  Archives are read ahead
    in worker processes (``_read_ahead``); all digesting happens here, in
    manifest order.  ``counters``, if given, gets each group's
    ``ScanCounters``, which count the work as the scan goes.
    """
    index = LifetimeIndex(labels=[], groups={g.name: GroupIndex() for g in manifest.groups})
    memo = {name: _LineRows(group) for name, group in index.groups.items()}
    if counters is not None:
        counters.update((name, lines.counters) for name, lines in memo.items())
    with closing(_read_ahead(manifest)) as reads:
        for entry in manifest.versions:
            # Passed straight on, so the contents go when scan_version returns.
            snapshot = scan_version(
                entry.source,
                manifest.groups,
                label=entry.label,
                ordinal=entry.ordinal,
                memo=memo,
                contents=next(reads),
            )
            if store is not None:
                store_snapshot(snapshot, index)
            yield snapshot
    if store is not None:
        write_store(index, store)


# --- lifetime store -------------------------------------------------------
#
# Format 3: one file per store directory, named STORE_FILENAME.
#   <header>\n<sections>
# The header is one line of canonical JSON (sorted keys, no spaces, ASCII
# only, so it holds no raw newline):
#   {"digest": "blake2b-128", "format": 3,
#    "groups": {group: {"digests": offset, "keys": n, "masks": offset}},
#    "versions": [{"groups": {group: {"files": [[relpath,
#      content_digest_hex], ...] sorted by relpath, "skipped": k,
#      "uloc": u}}, "label": label, "ordinal": i}, ...] in ordinal order}
# "digest" is always the one digest; a file naming another is refused.
# Offsets count from the first byte after the header's newline.  Groups
# follow one another in name order, each as two sections:
#   digests: its n distinct line digests, n * DIGEST_SIZE bytes, sorted by
#            byte value;
#   masks:   n rows of ceil(V/8) bytes for V versions; bit i of row k
#            (byte i // 8, bit i % 8) is set iff version i has digest k.
# A version's uloc count is the number of rows with its bit set.  A
# file's basename is the last component of its relpath.

STORE_FILENAME = "lifetime.store"


@dataclass(frozen=True, slots=True)
class GroupVersion:
    """One group of one version as the store keeps it, besides its line digests."""

    files: tuple[FileRecord, ...]
    uloc_count: int
    skipped_files: int = 0

    @property
    def file_count(self) -> int:
        return len(self.files)


def _reserve(array: np.ndarray, rows: int, width: int | None = None) -> np.ndarray:
    """``array`` if it has room for ``rows`` rows (of ``width`` columns), else a copy that has.

    The copy keeps the first ``rows`` rows.  When it grows in rows, its
    room at least doubles, so appending rows one version at a time copies
    each row a bounded number of times.  New room is zero and left
    unwritten, so it takes no memory until rows go into it.
    """
    shape = array.shape[1:] if width is None else (width,)
    if len(array) >= rows and array.shape[1:] == shape:
        return array
    size = len(array) if len(array) >= rows else max(rows, 2 * len(array))
    grown = np.zeros((size, *shape), dtype=array.dtype)
    kept = array[:rows]
    grown[tuple(slice(n) for n in kept.shape)] = kept
    return grown


class GroupIndex:
    """The distinct line digests of one group across versions, with presence masks.

    Each distinct digest has a row: ``digests[k]`` is its digest, and row
    k of ``masks`` has bit i set iff version i has it.  ``versions``
    keeps the rest of each version, in ordinal order.  An index built in
    memory numbers rows in the order their digests first came, and grows
    by appending rows; ``row_digests`` is the array ``digests`` is the
    first ``rows`` items of, with room for more.  ``sorted_digests`` are
    the digests by byte value, the section ``rows_of`` searches and the
    store writes, and ``order`` lists the rows in that order.  ``order``
    is None while the rows are in digest order already, as in an index
    loaded from a store.
    """

    def __init__(
        self,
        digests: np.ndarray | None = None,
        masks: np.ndarray | None = None,
        versions: Sequence[GroupVersion] = (),
    ) -> None:
        self.row_digests = np.empty(0, dtype=_DIGEST_DTYPE) if digests is None else digests
        self.rows = len(self.row_digests)
        self.sorted_digests = self.row_digests
        self.order: np.ndarray | None = None
        self._masks = np.zeros((0, 0), dtype=np.uint8) if masks is None else masks
        self.versions = list(versions)

    @property
    def digests(self) -> np.ndarray:
        return self.row_digests[: self.rows]

    @property
    def masks(self) -> np.ndarray:
        return self._masks[: self.rows]

    def rows_of(self, digests: np.ndarray) -> np.ndarray:
        """The row of each of the distinct ``digests``, looked up in one batch.

        A digest the index does not hold yet gets the next row, in the
        order given, and is merged into the sorted section.
        """
        order = np.arange(self.rows, dtype=_ROW_DTYPE) if self.order is None else self.order
        at = np.searchsorted(self.sorted_digests, digests)
        found = at < self.rows
        found[found] = self.sorted_digests[at[found]] == digests[found]
        rows = np.empty(len(digests), dtype=np.intp)
        rows[found] = order[at[found]]
        new = np.flatnonzero(~found)
        if len(new):
            end = self.rows + len(new)
            rows[new] = np.arange(self.rows, end)
            self.row_digests = _reserve(self.row_digests, end)
            self.row_digests[self.rows : end] = digests[new]
            # New digests in byte order land at nondecreasing positions.
            new = new[np.argsort(digests[new])]
            self.sorted_digests = np.insert(self.sorted_digests, at[new], digests[new])
            order = np.insert(order, at[new], rows[new])
            self.rows = end
        self.order = order
        return rows

    def add(self, payload: GroupPayload) -> None:
        """Fold in the next version: its bit is the number of versions before it."""
        column, bit = divmod(len(self.versions), 8)
        # A payload scanned into this index holds its rows already.
        if payload.row_digests is self.row_digests:
            rows = payload.rows
        else:
            rows = self.rows_of(payload.digests)
        self._masks = _reserve(self._masks, self.rows, column + 1)
        self._masks[rows, column] |= np.uint8(1 << bit)
        self.versions.append(GroupVersion(payload.files, payload.uloc_count, payload.skipped_files))


@dataclass
class LifetimeIndex:
    """Every version's label, in ordinal order, and one index per group."""

    labels: list[str]
    groups: dict[str, GroupIndex]

    def group(self, name: str) -> GroupIndex:
        try:
            return self.groups[name]
        except KeyError:
            raise KeyError(
                f"store has no group {name!r}; available: {sorted(self.groups)}"
            ) from None


def store_snapshot(snapshot: VersionSnapshot, index: LifetimeIndex) -> None:
    """Fold one snapshot into the lifetime index as its next version."""
    if snapshot.ordinal != len(index.labels) or snapshot.groups.keys() != index.groups.keys():
        raise ValueError(
            f"snapshot {snapshot.version_label!r} (ordinal {snapshot.ordinal}, groups "
            f"{sorted(snapshot.groups)}) is not version {len(index.labels)} of groups "
            f"{sorted(index.groups)}"
        )
    index.labels.append(snapshot.version_label)
    for name, group in index.groups.items():
        group.add(snapshot.groups[name])


def _canonical_json(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")


def _version_entry(version: GroupVersion) -> dict:
    return {
        "files": [
            [record.relpath, record.content_digest.hex()]
            for record in sorted(version.files, key=lambda r: r.relpath)
        ],
        "skipped": version.skipped_files,
        "uloc": version.uloc_count,
    }


def write_store(index: LifetimeIndex, store: str | Path) -> Path:
    """Write the index as the store file of a directory, replacing it whole.

    The bytes are canonical (files by relpath, digests by byte value), so
    re-scanning an unchanged corpus reproduces the store byte for byte.
    The file is written under a temporary name in the same directory and
    then renamed over the old one, so the store is never partial.
    """
    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)
    layout: dict[str, dict[str, int]] = {}
    sections: list[np.ndarray] = []
    offset = 0
    for name in sorted(index.groups):
        group = index.groups[name]
        digests, masks = group.sorted_digests, group.masks
        if group.order is not None:
            masks = masks[group.order]
        layout[name] = {"digests": offset, "keys": len(digests), "masks": offset + digests.nbytes}
        sections += [digests, masks]
        offset += digests.nbytes + masks.nbytes
    head = _canonical_json({"digest": DIGEST_ALGORITHM, "format": STORE_FORMAT_VERSION, "groups": layout})
    path = store / STORE_FILENAME
    temporary = store / f".{STORE_FILENAME}.{os.getpid()}.tmp"
    try:
        with temporary.open("wb") as fh:
            # "versions" sorts last, so the header is written one version
            # at a time, never whole in memory, and stays canonical JSON.
            fh.write(head[:-1] + b',"versions":[')
            for ordinal, label in enumerate(index.labels):
                groups = {name: _version_entry(g.versions[ordinal]) for name, g in index.groups.items()}
                entry = {"groups": groups, "label": label, "ordinal": ordinal}
                fh.write((b"," if ordinal else b"") + _canonical_json(entry))
            fh.write(b"]}\n")
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
            try:
                files = tuple(
                    FileRecord(relpath=relpath, content_digest=bytes.fromhex(hexdigest))
                    for relpath, hexdigest in _field(path, entry, "files", list, where)
                )
                if not all(isinstance(record.relpath, str) for record in files):
                    raise TypeError("a relpath is not a string")
            except (TypeError, ValueError) as exc:
                raise StoreFormatError(f"{path}: malformed file record in {where} ({exc})") from None
            per_group[name].append(
                GroupVersion(
                    files,
                    _field(path, entry, "uloc", int, where),
                    _field(path, entry, "skipped", int, where),
                )
            )
    return labels, per_group


def load_all_snapshots(store: str | Path) -> LifetimeIndex:
    """Load a store: every version's header, and each group's digests and masks.

    The digests and masks are read-only views into a memory map of the
    file, so a caller that never touches them (``curves --metric file``)
    reads only the header.  A directory without a store file holds no
    versions.
    """
    store = Path(store)
    path = store / STORE_FILENAME
    if not path.is_file():
        if any(store.glob("*.snap")):
            raise StoreFormatError(
                f"{store}: per-version .snap files are store format 1 or 2, which is no "
                "longer read; rescan the corpus into a new store"
            )
        return LifetimeIndex(labels=[], groups={})
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
                f"{path}: unsupported store format version {header.get('format')!r}"
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
        mask_bytes = (len(labels) + 7) // 8
        offset = 0
        for name in sorted(layout):
            keys = _field(path, layout[name], "keys", int, f"group {name!r}")
            expected = {"digests": offset, "keys": keys, "masks": offset + keys * DIGEST_SIZE}
            if keys < 0 or layout[name] != expected:
                raise StoreFormatError(
                    f"{path}: group {name!r} sections {layout[name]} are not laid out "
                    f"as {expected}"
                )
            offset = expected["masks"] + keys * mask_bytes
        size = os.fstat(fh.fileno()).st_size
        if size != len(line) + offset:
            raise StoreFormatError(
                f"{path}: file has {size} bytes, its header promises {len(line) + offset}"
            )
        # The views below keep the map open; it closes with the last of them.
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    groups = {}
    for name, section in layout.items():
        n = section["keys"]
        digests = np.frombuffer(data, _DIGEST_DTYPE, count=n, offset=len(line) + section["digests"])
        masks = np.frombuffer(
            data, np.uint8, count=n * mask_bytes, offset=len(line) + section["masks"]
        ).reshape(n, mask_bytes)
        groups[name] = GroupIndex(digests, masks, per_group[name])
    return LifetimeIndex(labels=labels, groups=groups)
