"""Shared fixtures and the acceptance-criteria summary.

The terminal summary prints one PASS/FAIL line per acceptance criterion
(tests named test_criterion_<k>_* in test_acceptance.py) so a run's
compliance is readable at a glance.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from codesurvival import ingest
from codesurvival.ingest import ScanCounters, VersionSnapshot, load_manifest, scan_corpus
from codesurvival.store import STORE_FILENAME, GroupVersion, KeySet, LifetimeIndex, write_store

CRITERIA = {
    1: "base-rate identity on all 19 published parameter rows",
    2: "instantaneous rate equals central difference of cumulative curve",
    3: "noiseless parameter recovery within 1e-3 relative",
    4: "Monte Carlo end-to-end curve match and fit recovery",
    5: "exact oracle equivalence on randomized toy corpora",
    6: "screening ground truth at precision = recall = 1.0",
    7: "discoverability narrative checks and decreasing hazard",
    8: "desk-scale boundary: no bundled corpora, manual mode documented",
    9: "byte-identical pipeline artifacts across runs",
}

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def write_tree(root: Path, files: dict[str, str | bytes]) -> Path:
    """Materialize {relpath: content} under root; returns root."""
    for relpath, content in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    return root


@pytest.fixture
def tree_writer(tmp_path):
    def _write(files: dict[str, str | bytes], subdir: str = "tree") -> Path:
        root = tmp_path / subdir
        root.mkdir(parents=True, exist_ok=True)
        return write_tree(root, files)

    return _write


def refuse_reads(monkeypatch, refused) -> None:
    """Make ``scan`` fail to read each directory file whose Path ``refused`` accepts.

    Tests run as any user, so a permission bit cannot make a file
    unreadable; the scan's ``open`` raises instead, as a denied read would.
    """

    def flaky(file, *args, **kwargs):
        if refused(Path(file)):
            raise OSError("permission denied")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(ingest, "open", flaky, raising=False)


def assert_no_child_process() -> None:
    """Fail if this process has a child process left, running or exited and not yet reaped."""
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left: waitpid(-1, WNOHANG) gave {left}")


def scan_sources(
    root: Path,
    sources: list[str | dict[str, str | bytes]],
    extensions: tuple[str, ...] = (".cpp",),
    labels: list[str] | None = None,
) -> tuple[list[VersionSnapshot], dict[str, ScanCounters], Path]:
    """Scan versions into a store under root, as ``codesurvival scan`` does.

    Each source is the name of a directory or archive under root, or a
    {relpath: content} tree, written to root/v<i> (made even when the tree
    is empty).  The manifest, root/manifest.json, has one group per
    extension, named after it without its dot, and labels the versions
    ``labels``, or v0, v1, ...  Returns the snapshots, the scan counters
    and the store directory, root/store.
    """
    paths = []
    for i, source in enumerate(sources):
        if isinstance(source, dict):
            (root / f"v{i}").mkdir(parents=True, exist_ok=True)
            write_tree(root / f"v{i}", source)
            source = f"v{i}"
        paths.append(source)
    labels = [f"v{i}" for i in range(len(sources))] if labels is None else labels
    manifest = root / "manifest.json"
    manifest.write_text(
        json.dumps({
            "software": "demo",
            "groups": [{"name": ext[1:], "extensions": [ext]} for ext in extensions],
            "versions": [{"label": label, "path": path} for label, path in zip(labels, paths)],
        }),
        encoding="utf-8",
    )
    counters: dict[str, ScanCounters] = {}
    store = root / "store"
    snaps = list(scan_corpus(load_manifest(manifest), store, counters=counters))
    return snaps, counters, store


def row_versions(keys: KeySet) -> dict[bytes, list[int]]:
    """Per row digest of a key set, the versions whose runs of its rows hold it, ascending."""
    width = keys.digests.itemsize
    raw = keys.digests.tobytes()  # an S item would lose trailing NUL bytes
    versions: dict[bytes, list[int]] = {}
    for k, (birth, death) in enumerate(keys.runs.tolist()):
        versions.setdefault(raw[k * width : (k + 1) * width], []).extend(range(birth, death))
    return {digest: sorted(held) for digest, held in versions.items()}


def indexed_rows(keys: KeySet, version: int) -> frozenset[bytes]:
    """The row digests of a key set that a run holding the version has."""
    return frozenset(digest for digest, versions in row_versions(keys).items() if version in versions)


def file_row_digest(relpath: str, content_digest: bytes) -> bytes:
    """A file record's row digest as the store format defines it, computed independently."""
    directory, _, basename = relpath.encode("utf-8", "surrogateescape").rpartition(b"/")
    key = hashlib.blake2b(basename + b"\0" + content_digest, digest_size=16).digest()
    return key + hashlib.blake2b(directory, digest_size=16).digest()


def b2(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def line_digests(data: bytes) -> list[bytes]:
    """A file's line digests by the documented rule, one split per line.

    Split on LF, one trailing CR per line removed, and a final LF adds no
    empty line.
    """
    if not data:
        return []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [b2(line[:-1] if line.endswith(b"\r") else line) for line in lines]


def key_set(rows: list[bytes], runs: list[tuple[int, int]], width: int) -> SimpleNamespace:
    """A key set as ``write_store`` takes one: row digests and runs as arrays."""
    return SimpleNamespace(
        digests=np.frombuffer(b"".join(rows), dtype=f"S{width}"),
        runs=np.array(runs, dtype="<u2").reshape(-1, 2),
    )


def oracle_store(
    root: Path,
    trees: list[dict[str, str | bytes | None]],
    extensions: tuple[str, ...] = (".cpp",),
    labels: list[str] | None = None,
) -> bytes:
    """The store that scanning these releases must write, from sets alone.

    Each tree is {relpath: content}, None for a file the scan cannot read,
    and groups and labels are as in ``scan_sources``.  Per group and
    version it takes the set of line digests and of file-record row
    digests; each maximal run of versions holding a digest is one of its
    rows.  ``write_store`` writes them to root/oracle, and the bytes are
    returned.
    """
    labels = [f"v{i}" for i in range(len(trees))] if labels is None else labels
    groups = {}
    for ext in extensions:
        held: dict[str, dict[bytes, list[int]]] = {"lines": {}, "files": {}}
        counts = []
        for version, tree in enumerate(trees):
            files = {rel: data.encode() if isinstance(data, str) else data for rel, data in tree.items() if rel.endswith(ext)}
            read = {rel: data for rel, data in files.items() if data is not None}
            lines = {digest for data in read.values() for digest in line_digests(data)}
            for kind, keys in (("lines", lines), ("files", {file_row_digest(rel, b2(data)) for rel, data in read.items()})):
                for key in keys:
                    held[kind].setdefault(key, []).append(version)
            counts.append(GroupVersion(len(read), len(lines), len(files) - len(read)))
        rows = {}
        for kind, width in (("lines", 16), ("files", 32)):
            digests, runs = [], []
            for key, versions in sorted(held[kind].items()):
                birth = versions[0]
                for version, following in zip(versions, versions[1:] + [None]):
                    if following != version + 1:
                        digests.append(key)
                        runs.append((birth, version + 1))
                        birth = following
            rows[kind] = key_set(digests, runs, width)
        groups[ext[1:]] = SimpleNamespace(**rows, versions=counts)
    write_store(LifetimeIndex(labels, groups), root / "oracle")
    return (root / "oracle" / STORE_FILENAME).read_bytes()


# --- random release histories through every case the scan special-cases -----

_POOL = ("alpha", "beta", "gamma", "", "  indented ", "in\rside", "ends in cr\r", "tab\tbed")
_HISTORY_DIRS = ("", "src/", ".cfg/", "src/deep/")


@functools.cache
def nul_lines() -> tuple[str, ...]:
    """Lines whose digest ends in a NUL byte, which a numpy S item would drop."""
    return tuple(line for line in (f"line {i}" for i in range(2_000)) if b2(line.encode())[-1] == 0)


def _release_text(rng: random.Random) -> bytes:
    """0 to 5 pool lines, each ended by LF or CRLF; the last may end in a lone CR or in nothing."""
    lines = rng.choices(_POOL + nul_lines(), k=rng.randint(0, 5))
    ends = rng.choices(("\n", "\r\n"), k=len(lines))
    if ends:
        ends[-1] = rng.choice(("\n", "\r\n", "\r", ""))
    return "".join(map(str.__add__, lines, ends)).encode()


def random_release_history(rng: random.Random, versions: int, unreadable: bool = False) -> list[dict[str, bytes | None]]:
    """A random history of groups x and y, one {relpath: bytes} per release.

    Both groups draw lines from one pool: lines with a CR inside or at
    their end, an empty line, and lines whose digest ends in NUL.  Each
    release deletes, moves, renames, edits or reverts files to an older
    content of their path, may add a file, and may copy one to a second
    path.  With three releases or more, one in the middle is empty, and
    with four or more another has no y files, so lines and files come back
    after an absence.  With ``unreadable``, some files of each release are
    None: the scan cannot read them.  Names may start with a dot.
    """
    tree: dict[str, bytes] = {}
    past: dict[str, dict[bytes, None]] = {}  # every content each path has had
    middle = rng.sample(range(1, versions - 1), max(versions - 2, 0))
    empty, no_y = (middle + [None, None])[:2]
    history = []
    for version in range(versions):
        for relpath in sorted(tree):
            directory, _, basename = relpath.rpartition("/")
            roll = rng.random()
            if roll < 0.1:
                del tree[relpath]
            elif roll < 0.2:
                tree.setdefault(rng.choice(_HISTORY_DIRS) + basename, tree.pop(relpath))
            elif roll < 0.3:
                tree.setdefault(f"{directory}/r{basename}".lstrip("/"), tree.pop(relpath))
            elif roll < 0.5:
                tree[relpath] = rng.choice([data for data in past[relpath] if data != tree[relpath]] or [_release_text(rng)])
            elif roll < 0.8:
                tree[relpath] = _release_text(rng)
        for _ in range(rng.choice((0, 0, 1, 2)) if version else rng.randint(1, 3)):
            tree[f"{rng.choice(_HISTORY_DIRS)}{rng.choice(('f', '.h'))}{rng.randrange(100)}{rng.choice(('.x', '.y'))}"] = _release_text(rng)
        if tree and rng.random() < 0.4:
            relpath = rng.choice(sorted(tree))
            tree.setdefault(rng.choice(_HISTORY_DIRS) + rng.choice(("", "c")) + relpath.rpartition("/")[2], tree[relpath])
        for relpath, data in tree.items():
            past.setdefault(relpath, {})[data] = None
        release = {} if version == empty else {rel: data for rel, data in tree.items() if version != no_y or rel.endswith(".x")}
        if unreadable:
            release = {rel: None if rng.random() < 0.15 else data for rel, data in release.items()}
        history.append(release)
    return history


# --- random toy corpora with a brute-force oracle ---------------------------
#
# The builder evolves a {relpath: text} tree through deletes, renames,
# moves, edits, and additions.  The oracle recomputes changed fractions
# directly on the raw strings, independent of digests and stores, so
# production results can be checked for exact float equality.

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")
_DIRS = ("", "src/", "lib/", "src/deep/")


def _random_line(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4)))


def _random_text(rng: random.Random) -> str:
    return "".join(_random_line(rng) + "\n" for _ in range(rng.randint(1, 6)))


def random_corpus_history(rng: random.Random, versions: int = 5) -> list[dict[str, str]]:
    """Evolve a random file tree; returns one {relpath: text} per version."""
    counter = 0
    tree: dict[str, str] = {}
    for _ in range(rng.randint(2, 5)):
        ext = rng.choice((".x", ".y"))
        tree[rng.choice(_DIRS) + f"f{counter}{ext}"] = _random_text(rng)
        counter += 1
    history = [dict(tree)]
    for _ in range(versions - 1):
        tree = dict(tree)
        for relpath in sorted(tree):
            roll = rng.random()
            basename = relpath.split("/")[-1]
            dirpart = relpath[: -len(basename)]
            if roll < 0.12:
                del tree[relpath]
            elif roll < 0.24:
                # Rename: new basename, same content. Counts as a file change.
                stem, ext = basename.rsplit(".", 1)
                tree[dirpart + f"{stem}r.{ext}"] = tree.pop(relpath)
            elif roll < 0.36:
                # Move: same basename elsewhere. Not a file change.
                target = rng.choice([d for d in _DIRS if d != dirpart]) + basename
                if target not in tree:
                    tree[target] = tree.pop(relpath)
            elif roll < 0.66:
                lines = tree[relpath].splitlines()
                k = rng.randrange(len(lines))
                lines[k] = _random_line(rng)
                if rng.random() < 0.3:
                    lines.append(_random_line(rng))
                tree[relpath] = "".join(line + "\n" for line in lines)
        if rng.random() < 0.5:
            ext = rng.choice((".x", ".y"))
            tree[rng.choice(_DIRS) + f"f{counter}{ext}"] = _random_text(rng)
            counter += 1
        history.append(dict(tree))
    return history


def _raw_lines(tree: dict[str, str], ext: str) -> set[bytes]:
    out: set[bytes] = set()
    for relpath, text in tree.items():
        if relpath.endswith(ext):
            lines = text.encode("utf-8").split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            out.update(l[:-1] if l.endswith(b"\r") else l for l in lines)
    return out


def raw_uloc_fraction(base: dict[str, str], later: dict[str, str], ext: str) -> float | None:
    """Changed line fraction recomputed on raw strings; None if no baseline lines."""
    base_lines = _raw_lines(base, ext)
    if not base_lines:
        return None
    return 1.0 - len(base_lines & _raw_lines(later, ext)) / len(base_lines)


def raw_file_fraction(base: dict[str, str], later: dict[str, str], ext: str) -> float | None:
    """Changed file fraction recomputed on raw strings; None if no baseline files."""
    base_files = [
        (rel.split("/")[-1], text.encode("utf-8"))
        for rel, text in base.items()
        if rel.endswith(ext)
    ]
    if not base_files:
        return None
    later_index: dict[str, set[bytes]] = {}
    for rel, text in later.items():
        if rel.endswith(ext):
            later_index.setdefault(rel.split("/")[-1], set()).add(text.encode("utf-8"))
    unchanged = sum(1 for name, data in base_files if data in later_index.get(name, ()))
    return 1.0 - unchanged / len(base_files)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, tuple[str, float]] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match and getattr(report, "when", "call") == "call":
                key = int(match.group(1))
                outcome = "PASS" if status == "passed" else "FAIL"
                if results.get(key, ("PASS", 0.0))[0] == "PASS":
                    results[key] = (outcome, getattr(report, "duration", 0.0))
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(CRITERIA):
        if key in results:
            outcome, duration = results[key]
            line = f"criterion {key}: {CRITERIA[key]:<62} {outcome} ({duration:.2f}s)"
        else:
            line = f"criterion {key}: {CRITERIA[key]:<62} NOT RUN"
        terminalreporter.write_line(line)
