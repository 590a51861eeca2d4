"""Load version snapshots from disk and digest them into comparable form.

A corpus is an ordered list of version snapshots (directories or tar
archives prepared externally, one per release).  Scanning a version
produces, per extension group, the list of file records (basename,
relative path, content digest) and the unique line digests pooled
across all files of the group, held as one sorted block of fixed-width
digests.  Duplicate lines are discarded;
a line is the exact byte content after CRLF normalization, with no
whitespace trimming and no special treatment of comments.

Lines and file contents are represented by fixed-width digests so that
corpora with billions of lines stay tractable.  The digest is 16-byte
BLAKE2b (``blake2b-128``), the only one; its name is stamped into every
store file header, and a store file whose header names another digest
is refused rather than compared as an incompatible set.

The store (format 2) holds one file per version and group: a JSON
header line, then the group's sorted line digests as one raw block, so
loading a store parses no per-line records.
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import json
import lzma
import os
import re
import tarfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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
    "load_manifest",
    "normalize_lines",
    "scan_version",
    "scan_corpus",
    "store_snapshot",
    "load_snapshot",
    "store_ordinals",
    "load_all_snapshots",
]

STORE_FORMAT_VERSION = 2

_TAR_SUFFIXES = (".tar", ".tar.gz", ".tgz", ".tar.bz2", ".tar.xz")
_GROUP_NAME_RE = re.compile(r"^[A-Za-z0-9_+.-]+$")


#: The one digest of lines and file contents, as named in store headers.
DIGEST_ALGORITHM = "blake2b-128"
DIGEST_SIZE = 16


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


@dataclass(frozen=True)
class FileRecord:
    """One file of a snapshot: basename, root-relative path, content digest."""

    basename: str
    relpath: str
    content_digest: bytes

    def __post_init__(self) -> None:
        if self.relpath.split("/")[-1] != self.basename:
            raise ValueError(f"basename {self.basename!r} does not end {self.relpath!r}")


@dataclass(frozen=True)
class GroupPayload:
    """Digested content of one extension group within one version.

    ``uloc_block`` is the group's unique line digests, each
    ``DIGEST_SIZE`` bytes wide, sorted by byte value and concatenated:
    the form the store writes and the all-pairs kernel reads.
    """

    files: tuple[FileRecord, ...]
    uloc_block: bytes
    skipped_files: int = 0

    def __post_init__(self) -> None:
        if len(self.uloc_block) % DIGEST_SIZE:
            raise ValueError(
                f"uloc block of {len(self.uloc_block)} bytes is not a whole number "
                f"of {DIGEST_SIZE}-byte digests"
            )

    @property
    def uloc(self) -> frozenset[bytes]:
        """The unique line digests as a set, built on each access."""
        block = self.uloc_block
        return frozenset(block[i : i + DIGEST_SIZE] for i in range(0, len(block), DIGEST_SIZE))

    @property
    def uloc_count(self) -> int:
        return len(self.uloc_block) // DIGEST_SIZE

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


def normalize_lines(data: bytes) -> list[bytes]:
    """Split raw bytes into line digests.

    Content is split on LF; one trailing CR per line is removed, so CRLF
    and LF files digest identically.  A trailing final newline adds no
    empty line, and a missing final newline changes nothing.  No other
    normalization is applied; non-UTF-8 bytes are digested as-is.
    """
    if not data:
        return []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [_digest(line[:-1] if line.endswith(b"\r") else line) for line in lines]


def _match_group(name: str, groups: Sequence[ExtensionGroup]) -> ExtensionGroup | None:
    best: ExtensionGroup | None = None
    best_len = 0
    for group in groups:
        for ext in group.extensions:
            if name.endswith(ext) and len(ext) > best_len:
                best = group
                best_len = len(ext)
    return best


def _walk_directory(source: Path) -> Iterator[tuple[str, Callable[[], bytes]]]:
    for root, dirnames, filenames in os.walk(source, followlinks=False):
        dirnames.sort()
        for filename in sorted(filenames):
            full = Path(root) / filename
            if full.is_symlink() or not full.is_file():
                continue
            rel = full.relative_to(source).as_posix()
            yield rel, full.read_bytes


def _walk_tar(source: Path) -> Iterator[tuple[str, Callable[[], bytes]]]:
    # One pass in archive order (scan_version sorts what it keeps), then
    # on to the end of the stream: a compressed archive's checksum sits
    # past the last member and is only verified once it is read.
    try:
        with tarfile.open(source) as tar:
            for member in tar:
                if not member.isreg():
                    continue
                data = tar.extractfile(member).read()
                # Only the "./" a tar of "." adds: ".cfg/x" keeps its dot.
                yield member.name.removeprefix("./"), (lambda d=data: d)
            while tar.fileobj.read(1 << 20):
                pass
    except (tarfile.TarError, EOFError, gzip.BadGzipFile, zlib.error, lzma.LZMAError) as exc:
        raise UsageError(f"cannot read tar archive {source}: {exc}") from exc


def _sorted_block(digests: bytes) -> bytes:
    """Concatenated digests sorted by byte value, duplicates dropped.

    Digests leave numpy through ``tobytes`` only: an ``S`` item or
    ``tolist`` would strip a digest's trailing NUL bytes.
    """
    return np.unique(np.frombuffer(digests, dtype=f"S{DIGEST_SIZE}")).tobytes()


def scan_version(
    source: str | Path,
    groups: Sequence[ExtensionGroup],
    *,
    label: str | None = None,
    ordinal: int = 0,
) -> VersionSnapshot:
    """Digest one version directory (or tar archive) into a snapshot.

    Every regular file whose name ends with a group suffix is digested
    into that group; symbolic links are not followed.  The group's uloc
    block pools the line digests of all its files, so duplicate lines
    within or across files collapse to one digest.  Unreadable files are
    skipped and counted per group; a missing source is a hard error.
    """
    source = Path(source)
    _check_groups_disjoint(groups)
    if source.is_dir():
        walker = _walk_directory(source)
    elif source.is_file() and _is_tar(source):
        walker = _walk_tar(source)
    else:
        raise MissingSourceError(f"snapshot source {source} does not exist")

    files: dict[str, list[FileRecord]] = {g.name: [] for g in groups}
    # Per group, each file's line digests joined into one bytes object.
    lines: dict[str, list[bytes]] = {g.name: [] for g in groups}
    skipped: dict[str, int] = {g.name: 0 for g in groups}

    for relpath, read in walker:
        basename = relpath.split("/")[-1]
        group = _match_group(basename, groups)
        if group is None:
            continue
        try:
            data = read()
        except OSError:
            skipped[group.name] += 1
            continue
        files[group.name].append(
            FileRecord(basename=basename, relpath=relpath, content_digest=_digest(data))
        )
        lines[group.name].append(b"".join(normalize_lines(data)))

    payloads = {
        g.name: GroupPayload(
            files=tuple(sorted(files[g.name], key=lambda r: r.relpath)),
            uloc_block=_sorted_block(b"".join(lines[g.name])),
            skipped_files=skipped[g.name],
        )
        for g in groups
    }
    return VersionSnapshot(
        version_label=label if label is not None else source.name,
        ordinal=ordinal,
        groups=payloads,
    )


def scan_corpus(
    manifest: CorpusManifest, store: str | Path | None = None
) -> Iterator[VersionSnapshot]:
    """Scan every version of a manifest in order, optionally persisting.

    Yields each snapshot as it is completed so callers can report
    per-version counts without holding the whole corpus in memory.  Once
    every version is stored, snapshot files this scan did not write (a
    longer earlier corpus, a dropped group) are removed, so the store
    holds this corpus and nothing else.
    """
    for entry in manifest.versions:
        snapshot = scan_version(
            entry.source, manifest.groups, label=entry.label, ordinal=entry.ordinal
        )
        if store is not None:
            store_snapshot(snapshot, store)
        yield snapshot
    if store is not None:
        written = {
            _store_filename(entry.ordinal, group.name)
            for entry in manifest.versions
            for group in manifest.groups
        }
        for path in Path(store).glob("*.snap"):
            if path.name not in written:
                path.unlink()


# --- snapshot store -------------------------------------------------------
#
# Format 2: one file per version per group, named <ordinal:05d>_<group>.snap.
#   <header>\n<block>
# The header is one line of canonical JSON (sorted keys, no spaces, ASCII
# only, so it holds no raw newline):
#   {"algorithm": "blake2b-128", "files": [[relpath, content_digest_hex],
#    ...] sorted by relpath, "format": 2, "group", "label", "lines",
#    "ordinal", "skipped"}
# "algorithm" is always the one digest; a file naming another is refused.
# A file's basename is the last component of its relpath.  The block is
# exactly lines * DIGEST_SIZE bytes: the group's unique line digests,
# sorted by byte value, with no separators.


def _store_filename(ordinal: int, group: str) -> str:
    return f"{ordinal:05d}_{group}.snap"


# Header fields besides "format" and the JSON type each must have.
_HEADER_FIELDS = {
    "algorithm": str,
    "files": list,
    "group": str,
    "label": str,
    "lines": int,
    "ordinal": int,
    "skipped": int,
}


def store_snapshot(snapshot: VersionSnapshot, store: str | Path) -> None:
    """Write one snapshot to the store directory, one file per group.

    The write order is canonical (files by relpath, line digests by byte
    value), so re-scanning an unchanged corpus reproduces the store byte
    for byte.
    """
    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)
    for group_name in sorted(snapshot.groups):
        payload = snapshot.groups[group_name]
        header = {
            "algorithm": DIGEST_ALGORITHM,
            "files": [
                [record.relpath, record.content_digest.hex()]
                for record in sorted(payload.files, key=lambda r: r.relpath)
            ],
            "format": STORE_FORMAT_VERSION,
            "group": group_name,
            "label": snapshot.version_label,
            "lines": payload.uloc_count,
            "ordinal": snapshot.ordinal,
            "skipped": payload.skipped_files,
        }
        line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        (store / _store_filename(snapshot.ordinal, group_name)).write_bytes(
            line + b"\n" + payload.uloc_block
        )


def _parse_store_file(path: Path) -> tuple[int, str, str, GroupPayload]:
    line, newline, block = path.read_bytes().partition(b"\n")
    if line.startswith(b"H "):
        raise StoreFormatError(
            f"{path}: store format 1 (text) is no longer read; rescan the corpus into a new store"
        )
    try:
        header = json.loads(line)
    except ValueError:  # also a UnicodeDecodeError
        header = None
    if not newline or not isinstance(header, dict):
        raise StoreFormatError(f"{path}: missing or malformed header line")
    if header.get("format") != STORE_FORMAT_VERSION:
        raise StoreFormatError(
            f"{path}: unsupported store format version {header.get('format')!r}"
        )
    for name, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(name), kind):
            raise StoreFormatError(
                f"{path}: header field {name!r} is missing or not a {kind.__name__}"
            )
    if header["algorithm"] != DIGEST_ALGORITHM:
        raise StoreFormatError(
            f"{path}: unknown digest {header['algorithm']!r}, only {DIGEST_ALGORITHM!r} "
            "is read; rescan the corpus into a new store"
        )
    if len(block) != header["lines"] * DIGEST_SIZE:
        raise StoreFormatError(
            f"{path}: line block has {len(block)} bytes, header promises "
            f"{header['lines']} digests of {DIGEST_SIZE} bytes"
        )
    try:
        files = tuple(
            FileRecord(
                basename=relpath.split("/")[-1],
                relpath=relpath,
                content_digest=bytes.fromhex(hexdigest),
            )
            for relpath, hexdigest in header["files"]
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise StoreFormatError(f"{path}: malformed file record ({exc})") from None
    payload = GroupPayload(files=files, uloc_block=block, skipped_files=header["skipped"])
    return header["ordinal"], header["label"], header["group"], payload


def load_snapshot(store: str | Path, ordinal: int) -> VersionSnapshot:
    """Load one version (all groups) back from the store."""
    store = Path(store)
    paths = sorted(store.glob(f"{ordinal:05d}_*.snap"))
    if not paths:
        raise StoreFormatError(f"store {store} has no snapshot for ordinal {ordinal}")
    groups: dict[str, GroupPayload] = {}
    label = ""
    for path in paths:
        ord_, label, group, payload = _parse_store_file(path)
        if ord_ != ordinal:
            raise StoreFormatError(f"{path}: header ordinal {ord_} != filename ordinal {ordinal}")
        groups[group] = payload
    return VersionSnapshot(version_label=label, ordinal=ordinal, groups=groups)


def store_ordinals(store: str | Path) -> list[int]:
    """Sorted list of version ordinals present in a store directory."""
    store = Path(store)
    return sorted({int(p.name.split("_", 1)[0]) for p in store.glob("*.snap")})


def load_all_snapshots(store: str | Path) -> list[VersionSnapshot]:
    """Load every version in the store, ordered by ordinal."""
    return [load_snapshot(store, o) for o in store_ordinals(store)]
