"""Scan a corpus's releases, in order, into one lifetime index and its store.

A corpus is an ordered list of version snapshots (directories or tar
archives prepared externally, one per release).  ``scan_corpus`` reads
each version and folds it into the lifetime index as the index's next
version: per extension group, its file records (relative path and
content digest; the basename is the path's last component) and the
unique lines pooled across all files of the group, as rows of the
group's two row maps, one row per run of versions of a record or line.
Duplicate lines are discarded; a line is the exact byte content after
CRLF normalization, with no whitespace trimming and no special treatment
of comments.  The index is then written as the store, the only input of
``curves``.

Lines and file contents are represented by fixed-width digests so that
corpora with billions of lines stay tractable.  The digest is 16-byte
BLAKE2b (``blake2b-128``), the only one; its name is stamped into the
store header, and a store whose header names another digest is refused
rather than compared as an incompatible set.

Reading and digesting are split.  Directories are read in this process
one file at a time, as they are digested.  Archives are read ahead by
``min(2, CPUs available to the process, archives)`` reader processes,
forked only when the manifest lists an archive: a reader decompresses
its share of the archives in turn, walks each one's members and writes
the bytes of its group files to a pipe of its own.  All digesting, and
the lifetime index, stay in this process, in manifest order, so the
store does not depend on the readers.  A reader blocks on its pipe until
this process takes the archive, so this process holds one archive's
group files at a time, the one being digested, and each reader at most
the one it is sending.  Where the platform offers no ``os.fork``,
archives are read in this process, as directories are.

Archives are read by this module's own tar reader (``_read_tar``), not
by ``tarfile``: one pass over the stream, one ``struct`` unpack per
512-byte header.  It reads plain, gzip, bzip2 and xz streams, told apart
by their magic bytes, in the ustar, GNU and pax formats, and refuses a
GNU sparse member.  Member names are normalized.  A hard link to a
member that no group takes costs a second pass over the archive.

Most lines and records of a release were already in the release before
it, so ``scan_corpus`` carries two maps of one kind (``_Rows``) per
group from one version to the next: line -> row of the group's
``lines``, and file record -> row of its ``files``.  A key the map holds
costs one lookup; only a key the previous version lacked is digested,
and it takes the next row at once, born at that version.  When a
version ends, the keys it lacks leave their map and their rows die, so
a map never holds more than two versions' keys, and a key that comes
back after an absence takes a new row for its new run.  A file whose
content equals that of a file of the previous version, wherever either
lies, is not split at all: it takes that file's line rows.

The scan's lifetime index holds the maps themselves (``_GroupRows``),
and takes each version's counts (``store_snapshot``).  After the last
version each map sets every row's run and lets its keys go
(``_Rows.finish``), and ``store`` writes the index as the store, a life
table of the corpus, under a temporary name that then replaces the old
file, so a store is never partial or stale.  Only this module and
``synth`` need numpy: ``curves`` reads the store on the standard library.
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import json
import lzma
import os
import pickle
import posixpath
import re
import signal
import stat
import struct
import zlib
from contextlib import closing
from dataclasses import dataclass, field
from itertools import cycle, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Hashable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import DataError, ManifestError, UsageError
from .store import DIGEST_SIZE, MAX_VERSIONS, GroupVersion, LifetimeIndex, write_store

__all__ = [
    "ExtensionGroup",
    "VersionEntry",
    "CorpusManifest",
    "FileRecord",
    "GroupPayload",
    "VersionSnapshot",
    "ScanCounters",
    "load_manifest",
    "normalize_lines",
    "scan_version",
    "scan_corpus",
    "store_snapshot",
]

_TAR_SUFFIXES = (".tar", ".tar.gz", ".tgz", ".tar.bz2", ".tar.xz")
_GROUP_NAME_RE = re.compile(r"[A-Za-z0-9_+.-]+")


# A row of a group's key set; 2**31 rows in one key set would need
# digests far beyond a desk machine's memory anyway.
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
        if not _GROUP_NAME_RE.fullmatch(self.name):
            raise ManifestError(f"invalid group name {self.name!r}")
        if not isinstance(self.extensions, (list, tuple)) or not all(
            isinstance(ext, str) for ext in self.extensions
        ):
            raise ManifestError(f"group {self.name!r}: extensions must be a list of strings")
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
        if len(self.versions) > MAX_VERSIONS:
            raise ManifestError(f"{len(self.versions)} versions; a corpus holds at most {MAX_VERSIONS}")
        labels: set[str] = set()
        for version in self.versions:
            if version.label in labels:
                raise ManifestError(f"duplicate version label {version.label!r}")
            labels.add(version.label)
        for i, version in enumerate(self.versions):
            if version.ordinal != i:
                raise ManifestError(
                    f"ordinals must be contiguous from 0; version {version.label!r} "
                    f"has ordinal {version.ordinal} at position {i}"
                )
        _check_groups_disjoint(self.groups)


# Slots: a snapshot holds one record per file.
@dataclass(frozen=True, slots=True)
class FileRecord:
    """One file of a snapshot: root-relative path and content digest."""

    relpath: str
    content_digest: bytes

    @property
    def basename(self) -> str:
        return self.relpath.rpartition("/")[2]


def _file_digest(record: FileRecord) -> bytes:
    """A record's row digest: that of basename, NUL and content digest, then that of its directory."""
    directory, _, basename = record.relpath.encode("utf-8", "surrogateescape").rpartition(b"/")
    return _digest(basename + b"\0" + record.content_digest) + _digest(directory)


@dataclass(frozen=True, eq=False)
class GroupPayload:
    """Digested content of one extension group within one version.

    The group's unique lines, pooled across its files, are ``line_rows``,
    and its file records (``files``, by relpath) are ``file_rows``: rows
    of ``memo.lines`` and ``memo.files`` (``memo`` is the ``_GroupRows``
    the scan numbered them in), each ascending, one row per line or
    record.  Only an index whose group is that memo can fold it in
    (``store_snapshot``), and only while the memo's maps still hold these
    rows.  A line or record revived after an absence holds a newer row
    than in the versions before.
    """

    files: tuple[FileRecord, ...]
    line_rows: np.ndarray
    file_rows: np.ndarray
    memo: _GroupRows
    skipped_files: int = 0

    @property
    def uloc(self) -> frozenset[bytes]:
        """The unique line digests as a set, built on each access."""
        # tobytes: an S item would lose a digest's trailing NUL bytes.
        block = self.memo.lines.digests[self.line_rows].tobytes()
        return frozenset(block[i : i + DIGEST_SIZE] for i in range(0, len(block), DIGEST_SIZE))

    @property
    def uloc_count(self) -> int:
        return len(self.line_rows)

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


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse and validate a corpus manifest (JSON).

    Schema: ``{"software": str, "groups": [{"name": str, "extensions":
    [".ext", ...]}, ...], "versions": [{"label": str, "path": str,
    "date": "YYYY-MM-DD"?}, ...]}``.  Version paths are resolved
    relative to the manifest's directory; each must exist.  Ordinals are
    assigned in listed order, so a version dated before the last dated
    version listed before it is refused; undated versions are not compared.
    A manifest that lists no group or no version is refused: it selects
    nothing to scan.
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
    if not isinstance(raw["software"], str):
        raise ManifestError(f"manifest {path}: field 'software' is not a string")
    if not isinstance(raw["versions"], list):
        raise ManifestError(f"manifest {path}: field 'versions' is not a list")

    try:
        groups = tuple(
            ExtensionGroup(name=g["name"], extensions=g["extensions"])
            for g in raw["groups"]
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest {path}: malformed group entry ({exc})") from exc
    except ManifestError as exc:
        raise ManifestError(f"manifest {path}: {exc}") from exc

    base = path.parent
    versions: list[VersionEntry] = []
    dated: VersionEntry | None = None  # the last version listed with a date
    for i, entry in enumerate(raw["versions"]):
        try:
            label = entry["label"]
            source = Path(entry["path"])
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"manifest {path}: malformed version entry {i} ({exc})") from exc
        if not isinstance(label, str):
            raise ManifestError(f"manifest {path}: version entry {i} has label {label!r}, not a string")
        if not label:
            raise ManifestError(f"manifest {path}: version entry {i} has an empty label")
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
            if dated is not None and date < dated.release_date:
                raise ManifestError(
                    f"manifest {path}: version {label!r} dated {date} is listed after version "
                    f"{dated.label!r} dated {dated.release_date}; list versions in release order"
                )
        _check_source(source, f"version {label!r}: ")
        versions.append(VersionEntry(label=label, ordinal=i, source=source, release_date=date))
        if date is not None:
            dated = versions[-1]
    manifest = CorpusManifest(software=raw["software"], versions=tuple(versions), groups=groups)
    if not groups or not versions:
        empty = "groups" if not groups else "versions"
        raise ManifestError(f"manifest {path}: field {empty!r} is empty, so there is nothing to scan")
    return manifest


def _is_tar(path: Path) -> bool:
    return any(path.name.endswith(suffix) for suffix in _TAR_SUFFIXES)


def _check_source(source: Path, where: str = "") -> None:
    """Refuse a snapshot source that is neither a directory nor a file named as a tar archive."""
    if not source.exists():
        raise ManifestError(f"{where}snapshot source {source} does not exist (expected a directory or tar archive)")
    if not (source.is_dir() or (source.is_file() and _is_tar(source))):
        raise ManifestError(
            f"{where}snapshot source {source} is neither a directory nor a tar archive ({', '.join(_TAR_SUFFIXES)})"
        )


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
    files_reused: int = 0  # files whose content a file of the previous version had
    lines: int = 0  # lines of the files read, reused ones included
    lines_digested: int = 0  # lines the memo did not hold; each took one row, so a revived line counts again
    memo_lines_max: int = 0  # the most lines the memo held at once


class _Rows(dict):
    """Key -> row of one key set, for the keys of the previous and the current version.

    The map is its key set's only record: ``digests`` gives every row's
    digest, and once the scan ends, ``runs`` every row's run (``finish``),
    as a store's key set does (``store.LifetimeIndex``).  A key the map
    holds costs one lookup.  Any other key is digested on first lookup
    and takes the next row, born at the version being scanned; a key an
    earlier version had before an absence takes a new row too.  When the
    version ends (``settle``), the rows it lacks drop their key and die,
    so the map holds exactly the keys of the version just scanned, whose
    rows are ``held``.
    """

    def __init__(self, width: int, digest: Callable[[Hashable], bytes]) -> None:
        super().__init__()
        self.width, self._digest = width, digest
        self._digests = bytearray()  # every row's digest, by row
        self._key_of_row: list[Hashable | None] = []  # None once the key has left the map
        self._ends: list[int] = []  # per version settled, the number of rows at its end
        self._died: list[np.ndarray] = []  # per version settled, the rows that died at it
        self.held = np.empty(0, dtype=np.intp)

    def __missing__(self, key: Hashable) -> int:
        row = self[key] = self.rows
        self._key_of_row.append(key)
        self._digests += self._digest(key)
        return row

    @property
    def rows(self) -> int:
        return len(self._digests) // self.width

    @property
    def versions(self) -> int:
        return len(self._ends)

    @property
    def digests(self) -> np.ndarray:
        return np.frombuffer(self._digests, f"S{self.width}")

    def settle(self, rows: Iterable[np.ndarray]) -> np.ndarray:
        """End the version whose keys took these rows: its distinct rows, ascending."""
        present = np.zeros(self.rows, dtype=bool)
        # The empty array keeps a version without files concatenable.
        present[np.concatenate([np.empty(0, dtype=_ROW_DTYPE), *rows])] = True
        # A new key can be absent too, and its run empty: a later tar member
        # of the same path replaced the file it was in.
        left = np.concatenate([self.held, np.arange(self._ends[-1] if self._ends else 0, self.rows)])
        died = left[~present[left]]
        for row in died.tolist():
            del self[self._key_of_row[row]]
            self._key_of_row[row] = None
        self._ends.append(self.rows)
        self._died.append(died.astype(_ROW_DTYPE))
        self.held = np.flatnonzero(present)
        return self.held

    def finish(self) -> None:
        """Set ``runs``: each row born at the version that numbered it, dead where it left the map or after the last; empties the map."""
        runs = np.empty((self.rows, 2), dtype="<u2")
        runs[:, 0] = np.repeat(np.arange(self.versions), np.diff([0, *self._ends]))
        runs[:, 1] = self.versions
        for version, died in enumerate(self._died):
            runs[died, 1] = version
        self.runs = runs
        self.clear()
        self._key_of_row, self._died, self.held = [], [], np.empty(0, dtype=np.intp)


class _GroupRows:
    """One group of the scan's lifetime index: a line map, a record map (``_Rows``) and each version's counts.

    The maps settle each version's rows, and ``store_snapshot`` appends
    its counts to ``versions``, so once the maps finish the group is what
    ``store.write_store`` writes.  A file whose content digest a file of
    the previous version had takes that file's line rows without being
    split, whatever either's relpath: the line map still holds the
    previous version's lines, so the same bytes would give the same rows.
    """

    def __init__(self) -> None:
        self.versions: list[GroupVersion] = []
        self.lines = _Rows(DIGEST_SIZE, _digest)
        self.files = _Rows(2 * DIGEST_SIZE, _file_digest)
        self.counters = ScanCounters()
        self._previous_files: dict[bytes, np.ndarray] = {}  # content digest -> line rows

    def file(self, relpath: str, data: bytes) -> tuple[FileRecord, np.ndarray]:
        """The file's record and the row of each of its lines, in order."""
        record = FileRecord(relpath=relpath, content_digest=_digest(data))
        rows = self._previous_files.get(record.content_digest)
        if rows is not None:
            self.counters.files_reused += 1
        else:
            lines = _split_lines(data)
            rows = np.fromiter(map(self.lines.__getitem__, lines), dtype=_ROW_DTYPE, count=len(lines))
        self.counters.files += 1
        self.counters.lines += len(rows)
        return record, rows

    def settle(self, kept: list[tuple[FileRecord, np.ndarray]]) -> tuple[tuple[FileRecord, ...], np.ndarray, np.ndarray]:
        """End the version of these files: its ``GroupPayload`` files, line rows and file rows."""
        counters = self.counters
        counters.memo_lines_max = max(counters.memo_lines_max, len(self.lines))
        line_rows = self.lines.settle(rows for _, rows in kept)
        counters.lines_digested = self.lines.rows
        files = tuple(sorted((record for record, _ in kept), key=lambda r: r.relpath))
        taken = np.fromiter(map(self.files.__getitem__, files), dtype=_ROW_DTYPE, count=len(files))
        file_rows = self.files.settle([taken])
        self._previous_files = {record.content_digest: rows for record, rows in kept}
        return files, line_rows, file_rows


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
    # str paths throughout: pathlib's parsing cost as much as the reads.
    top = os.fspath(source)
    for root, dirnames, filenames in os.walk(top, followlinks=False):
        dirnames.sort()
        directory = root[len(top) :].lstrip(os.sep).replace(os.sep, "/")
        prefix = f"{directory}/" if directory else ""
        for filename in sorted(filenames):
            group = _match_group(filename, groups)
            if group is None:
                continue
            full = os.path.join(root, filename)
            try:
                if not stat.S_ISREG(os.lstat(full).st_mode):  # a symbolic link is not followed
                    continue
                with open(full, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = None
            yield group, prefix + filename, data


# The fields of a tar header the reader uses: name, size, checksum, type,
# link name and the ustar prefix.
_TAR_HEADER = struct.Struct("100s24x12s12x8sc100s88x155s12x")
_TAR_SIGNED_SUM = struct.Struct("148b8x356b")
_TAR_BLOCK = 512
_TAR_CHUNK = 1 << 20
_TAR_REGULAR = (b"0", b"\0", b"7")  # CONTTYPE reads as a regular file, as in tarfile
_TAR_NO_DATA = (b"2", b"3", b"4", b"5", b"6")  # symbolic links, devices, directories, FIFOs


class _TarStream:
    """An archive's tar bytes, read forward only, decompressed as its magic bytes say.

    ``tell`` counts tar bytes from the start of the stream.  Reading or
    skipping past its end raises ``EOFError``.
    """

    def __init__(self, path: Path) -> None:
        self._raw = open(path, "rb")
        try:
            magic = self._raw.read(6)
            self._raw.seek(0)
            if magic.startswith(b"\x1f\x8b"):
                self._file = gzip.GzipFile(fileobj=self._raw)
            elif magic.startswith(b"BZh"):
                import bz2  # only a bzip2 archive needs it

                self._file = bz2.BZ2File(self._raw)
            elif magic == b"\xfd7zXZ\x00":
                self._file = lzma.LZMAFile(self._raw)
            else:
                self._file = self._raw
            self._size = os.fstat(self._raw.fileno()).st_size
        except BaseException:
            self._raw.close()
            raise
        self._buffer = b""
        self._start = 0  # stream offset of the buffer's first byte
        self._pos = 0  # the buffer's next unread byte

    def __enter__(self) -> _TarStream:
        return self

    def __exit__(self, *exc: object) -> None:
        self._raw.close()

    def tell(self) -> int:
        return self._start + self._pos

    def read(self, size: int) -> bytes:
        """The next ``size`` bytes, or fewer where the stream ends."""
        if self._pos + size > len(self._buffer):
            rest = self._buffer[self._pos :]
            self._start += self._pos
            self._buffer = rest + self._file.read(max(size - len(rest), _TAR_CHUNK))
            self._pos = 0
        data = self._buffer[self._pos : self._pos + size]
        self._pos += len(data)
        return data

    def take(self, size: int) -> bytes:
        data = self.read(size)
        if len(data) != size:
            raise EOFError("unexpected end of data")
        return data

    def skip(self, size: int) -> None:
        self._pos += size
        over = self._pos - len(self._buffer)
        if over <= 0:
            return
        self._start += len(self._buffer) + over
        self._buffer, self._pos = b"", 0
        if self._file is self._raw:
            if self._raw.seek(over, os.SEEK_CUR) > self._size:
                raise EOFError("unexpected end of data")
            return
        while over > 0:
            data = self._file.read(min(over, _TAR_CHUNK))
            if not data:
                raise EOFError("unexpected end of data")
            over -= len(data)

    def drain(self) -> None:
        """Read a compressed stream to its end, where its checksum is verified."""
        if self._file is not self._raw:
            while self._file.read(_TAR_CHUNK):
                pass


def _tar_number(field: bytes) -> int:
    """A header number: octal text, or base-256 after a first byte of 0x80 (0xff: negative)."""
    if field[0] in (0x80, 0xFF):
        value = int.from_bytes(field[1:], "big")
        return value - 256 ** (len(field) - 1) if field[0] == 0xFF else value
    return int(field.partition(b"\0")[0].strip() or b"0", 8)


def _tar_text(field: bytes) -> str:
    return field.partition(b"\0")[0].decode("utf-8", "surrogateescape")


def _tar_header_ok(header: bytes, checksum: bytes) -> bool:
    """Whether the header's checksum field holds its byte sum, unsigned or signed, as tarfile checks."""
    # The field counts as eight spaces.  Each half of the header sums to at
    # most 256 * 255 < 65521, so adler32's low half is 1 + its exact sum.
    total = (zlib.adler32(header[:256]) & 0xFFFF) + (zlib.adler32(header[256:]) & 0xFFFF) - 2
    stored = _tar_number(checksum)
    return stored == 256 + total - sum(checksum) or stored == 256 + sum(_TAR_SIGNED_SUM.unpack(header))


def _pax_records(block: bytes) -> dict[str, str]:
    """The ``length keyword=value\\n`` records of a pax header's data."""
    records, pos = {}, 0
    while pos < len(block) and block[pos]:
        space = block.index(b" ", pos)
        end = pos + int(block[pos:space])
        if not space < end <= len(block) or block[end - 1] != 0x0A:
            raise ValueError(f"malformed pax record at byte {pos}")
        keyword, equals, value = block[space + 1 : end - 1].partition(b"=")
        if not equals:
            raise ValueError(f"malformed pax record at byte {pos}")
        records[keyword.decode("utf-8", "surrogateescape")] = value.decode("utf-8", "surrogateescape")
        pos = end
    return records


def _tar_members(stream: _TarStream) -> Iterator[tuple[bytes, str, str, int]]:
    """Each member's type, name, hard link target and data size, up to the end-of-archive block.

    GNU long names and pax records are applied to the member they
    precede; a v7 directory reads as a directory, as in tarfile.  The
    caller reads or skips each member's data before asking for the next.
    """
    overrides: dict[str, str] = {}  # L, K and x headers' for the next member; the first wins
    global_pax: dict[str, str] = {}
    while True:
        header = stream.read(_TAR_BLOCK)
        if not header and stream.tell():
            return  # no end-of-archive blocks, which tarfile accepts too
        if len(header) != _TAR_BLOCK:
            raise EOFError("unexpected end of data")
        name, size, checksum, kind, link, prefix = _TAR_HEADER.unpack(header)
        if not _tar_header_ok(header, checksum):
            if not any(header):
                return  # the end-of-archive block
            raise ValueError(f"bad header checksum at byte {stream.tell() - _TAR_BLOCK}")
        size = _tar_number(size)
        name = _tar_text(name)
        if kind == b"\0" and name.endswith("/"):
            kind = b"5"
        if prefix[0] and kind not in (b"L", b"K", b"S"):
            name = f"{_tar_text(prefix)}/{name}"
        if kind in (b"L", b"K"):
            overrides.setdefault("path" if kind == b"L" else "linkpath", _tar_text(stream.take(size)))
            stream.skip(-size % _TAR_BLOCK)
        elif kind in (b"x", b"g", b"X"):
            records = _pax_records(stream.take(size))
            stream.skip(-size % _TAR_BLOCK)
            if kind == b"g":
                global_pax.update(records)
            else:
                for keyword, value in records.items():
                    overrides.setdefault(keyword, value)
        else:
            fields, overrides = {**global_pax, **overrides}, {}
            name = fields.get("path", name)
            if kind == b"S" or any(keyword.startswith("GNU.sparse.") for keyword in fields):
                raise ValueError(f"member {name!r} is a GNU sparse file, which scan does not read")
            size = int(fields.get("size", size))
            if size < 0:
                raise ValueError(f"member {name!r} has a negative size")
            yield kind, name, fields.get("linkpath", _tar_text(link)), size


def _read_tar(source: Path, groups: Sequence[ExtensionGroup]) -> list[_GroupFile]:
    """Every group file of a tar archive, in archive order, read in one pass.

    A member's relpath is its name normalized (``posixpath.normpath``).  A
    hard link reads as the last member archived before it under the
    target's normalized name, as tarfile resolves it; a link to a
    directory, a symbolic link or no member reads as None.  Only a link
    to a member no group takes costs a second pass, from the start.  A
    GNU sparse member is refused, as is a bad header checksum, a stream
    that ends early or fails its own checksum.
    """
    # Per normalized name, what its last member so far reads as: the bytes
    # of a group file, or (stream offset, size) of any other data.
    last: dict[str, bytes | tuple[int, int]] = {}
    files: list[tuple[ExtensionGroup, str, bytes | tuple[int, int] | None]] = []
    try:
        with _TarStream(source) as stream:
            for kind, name, link, size in _tar_members(stream):
                path = posixpath.normpath(name)
                group = None
                if kind in _TAR_REGULAR or kind == b"1":
                    group = _match_group(path.rpartition("/")[2], groups)
                if kind == b"1":
                    data = last.get(posixpath.normpath(link))
                elif kind in _TAR_NO_DATA:
                    data = None
                elif group is None:  # a file no group takes, or a type tarfile reads as one
                    data = (stream.tell(), size)
                    stream.skip(size + -size % _TAR_BLOCK)
                else:
                    data = stream.take(size)
                    stream.skip(-size % _TAR_BLOCK)
                if data is None:
                    last.pop(path, None)
                else:
                    last[path] = data
                if group is not None:
                    files.append((group, path, data))
            stream.drain()
        targets = dict.fromkeys(sorted(data for _, _, data in files if isinstance(data, tuple)))
        if targets:
            with _TarStream(source) as stream:
                for offset, size in targets:
                    stream.skip(offset - stream.tell())
                    targets[offset, size] = stream.take(size)
    except (OSError, EOFError, ValueError, zlib.error, lzma.LZMAError) as exc:
        raise UsageError(f"cannot read tar archive {source}: {exc}") from exc
    return [(group, path, targets[data] if isinstance(data, tuple) else data) for group, path, data in files]


def _read_version(source: Path, groups: Sequence[ExtensionGroup]) -> Iterator[_GroupFile]:
    """The group files of one version, each as (group, relpath, bytes).

    Names are matched to groups before anything is read, so files no
    group takes are never read.  The bytes are None for a file that could
    not be read.  A directory is read one file per step, as the caller
    iterates.
    """
    _check_source(source)
    if source.is_dir():
        yield from _read_directory(source, groups)
    else:
        yield from _read_tar(source, groups)


def _read_archive(source: Path, groups: Sequence[ExtensionGroup]) -> list[_GroupFile]:
    """A reader's task: every group file of one archive."""
    return list(_read_version(source, groups))


def scan_version(
    source: str | Path,
    groups: Sequence[ExtensionGroup],
    *,
    label: str | None = None,
    ordinal: int = 0,
    memo: Mapping[str, _GroupRows] | None = None,
    contents: Iterable[_GroupFile] | None = None,
) -> VersionSnapshot:
    """Digest one version directory (or tar archive) into a snapshot.

    Every regular file whose name ends with a group suffix is digested
    into that group; symbolic links are not followed, and a tar's hard
    link reads as the file it names.  When a tar holds one path twice,
    names normalized (``a/./x`` is ``a/x``), the member archived last
    wins, as on extraction.  The group's unique
    lines pool the lines of all its files, so a line repeated within or
    across files is one row.  Unreadable files are skipped and counted
    per group; a missing source is a hard error.

    ``memo`` maps each group to the lines and file records of the version
    scanned before and their rows (``_GroupRows``); ``scan_corpus`` passes
    the groups of its lifetime index for every version, so a line or
    record is digested only when the version before lacked it, and the
    snapshot folds into that index.  Without it each distinct line and
    record of this version is digested once and numbered in a memo of
    its own, which no lifetime index folds in.
    ``contents`` are the source's group files as (group, relpath, bytes
    or None if unreadable), already read; without them the source is
    read here.
    """
    source = Path(source)
    _check_groups_disjoint(groups)
    if contents is None:
        contents = _read_version(source, groups)
    if memo is None:
        memo = {g.name: _GroupRows() for g in groups}

    # Per group and relpath: the file's record and the row of each of its
    # lines, or None for a file that could not be read.
    entries: dict[str, dict[str, tuple[FileRecord, np.ndarray] | None]] = {g.name: {} for g in groups}
    for group, relpath, data in contents:
        entries[group.name][relpath] = None if data is None else memo[group.name].file(relpath, data)

    payloads = {}
    for g in groups:
        kept = [entry for entry in entries[g.name].values() if entry is not None]
        rows = memo[g.name]
        payloads[g.name] = GroupPayload(*rows.settle(kept), rows, len(entries[g.name]) - len(kept))
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

    Archives are read by ``min(2, CPUs available, archives)`` reader
    processes, forked only if the manifest lists an archive.  Reader k of
    W reads archives k, k + W, k + 2W, ... of the manifest and writes
    each one's files, pickled, to a pipe of its own, on which it blocks
    until this process reads them: so this process holds only the
    archive being digested, and each reader at most the one it is
    sending.  A reader's refusal (``UsageError``, ``ManifestError``) is
    raised here when the scan reaches that archive.  Closing the
    generator, on any path, kills and reaps every reader.  Directories
    are left to ``scan_version``, which reads them file by file, and so
    are archives where the platform offers no ``os.fork``.
    """
    is_archive = [not entry.source.is_dir() for entry in manifest.versions]
    if not any(is_archive) or not hasattr(os, "fork"):
        yield from repeat(None, len(is_archive))
        return
    archives = [entry.source for entry, archive in zip(manifest.versions, is_archive) if archive]
    readers = min(2, _available_cpus(), len(archives))
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for k in range(readers):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                # fork spares each reader from importing numpy again.
                # numpy's BLAS thread makes this process multi-threaded, so
                # Python 3.12 and later warn; that is safe here because a
                # reader only reads files and never calls numpy.
                pid = os.fork()
                if pid == 0:
                    _serve(archives[k::readers], manifest.groups, write_end, pipes)
                pids.append(pid)
            finally:
                os.close(write_end)
        senders = zip(cycle(pipes), archives)
        for archive in is_archive:
            # Passed straight on: this frame keeps no reference to the files.
            yield _receive(*next(senders)) if archive else None
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(
    archives: Sequence[Path], groups: Sequence[ExtensionGroup], out: int, inherited: Iterable[BinaryIO]
) -> NoReturn:
    """A forked reader's life: send ``(ok, files or exception)`` per archive to ``out``, in order.

    It stops after sending an exception, and leaves through ``os._exit``
    on every path, so it runs no exit handler and flushes no buffer it
    inherited.
    """
    status = 1
    try:
        for pipe in inherited:
            pipe.close()
        with os.fdopen(out, "wb") as sent:
            for source in archives:
                try:
                    files = _read_archive(source, groups)
                except Exception as exc:
                    try:
                        refusal = pickle.dumps((False, exc))
                        pickle.loads(refusal)
                    except Exception:  # an exception that does not survive pickling
                        refusal = pickle.dumps((False, UsageError(f"cannot read tar archive {source}: {exc}")))
                    sent.write(refusal)
                    break
                pickle.dump((True, files), sent)
                sent.flush()
                del files  # before the next archive is read
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, source: Path) -> list[_GroupFile]:
    """The group files of ``source`` as its reader sent them on ``pipe``, or the reader's refusal, raised."""
    try:
        ok, files = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise DataError(f"the reader of archive {source} ended before sending its files ({exc})") from exc
    if not ok:
        raise files
    return files


def scan_corpus(
    manifest: CorpusManifest,
    store: str | Path,
    *,
    counters: dict[str, ScanCounters] | None = None,
) -> Iterator[VersionSnapshot]:
    """Scan every version of a manifest in order into one lifetime index, and write its store.

    Yields each snapshot as it is completed so callers can report
    per-version counts without holding the whole corpus in memory.  The
    index's groups are the row maps (``_GroupRows``) each version is
    scanned with, and the store file is written from them once, after
    the last version.  A scan that fails part way, or whose maps settled
    a version the index did not fold in, leaves the store as it was.
    Archives are read ahead in reader processes (``_read_ahead``); all
    digesting happens here, in manifest order.  ``counters``, if given,
    gets each group's ``ScanCounters``, which count the work as it goes.
    """
    index = LifetimeIndex(labels=[], groups={g.name: _GroupRows() for g in manifest.groups})
    if counters is not None:
        counters.update((name, rows.counters) for name, rows in index.groups.items())
    with closing(_read_ahead(manifest)) as reads:
        for entry in manifest.versions:
            # Passed straight on, so the contents go when scan_version returns.
            snapshot = scan_version(
                entry.source,
                manifest.groups,
                label=entry.label,
                ordinal=entry.ordinal,
                memo=index.groups,
                contents=next(reads),
            )
            store_snapshot(snapshot, index)
            yield snapshot
    # The maps hold the last version's keys, which writing does not need:
    # emptied here, they do not add to the memory the store's sorts take,
    # though the last snapshot's payloads still refer to them.
    for rows in index.groups.values():
        rows._previous_files = {}
        rows.lines.finish()
        rows.files.finish()
    write_store(index, store)


def store_snapshot(snapshot: VersionSnapshot, index: LifetimeIndex) -> None:
    """Fold one snapshot, scanned with this index's groups as its memo, into it as its next version.

    The groups' maps hold every row's run (``_Rows``), so the index takes
    the version's label and each group's counts alone.  A payload is
    stale, and refused, unless its rows are the ones its maps hold now,
    those of the version they settled last.  Every group's payload is
    checked before the index changes, so a refused snapshot leaves the
    index as it was.
    """
    if snapshot.ordinal != len(index.labels) or snapshot.groups.keys() != index.groups.keys():
        raise ValueError(
            f"snapshot {snapshot.version_label!r} (ordinal {snapshot.ordinal}, groups "
            f"{sorted(snapshot.groups)}) is not version {len(index.labels)} of groups "
            f"{sorted(index.groups)}"
        )
    foreign = sorted(name for name, group in index.groups.items() if snapshot.groups[name].memo is not group)
    if foreign:
        raise ValueError(
            f"snapshot {snapshot.version_label!r} groups {foreign} hold rows of another index, "
            "not of this lifetime index; scan them with its memo, as scan_corpus does"
        )
    payloads = [snapshot.groups[name] for name in index.groups]
    held = [(p.line_rows, p.memo.lines.held) for p in payloads] + [(p.file_rows, p.memo.files.held) for p in payloads]
    for rows, now in held:
        if not np.array_equal(rows, now):
            stale = np.setxor1d(rows, now)
            raise ValueError(
                f"rows {stale[:3].tolist()} ({len(stale)} in all) neither start nor "
                f"continue a run at version {len(index.labels)}"
            )
    index.labels.append(snapshot.version_label)
    for group, payload in zip(index.groups.values(), payloads):
        group.versions.append(GroupVersion(payload.file_count, payload.uloc_count, payload.skipped_files))
