"""Shared fixtures and the acceptance-criteria summary.

The terminal summary prints one PASS/FAIL line per acceptance criterion
(tests named test_criterion_<k>_* in test_acceptance.py) so a run's
compliance is readable at a glance.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import numpy as np
import pytest

from codesurvival.ingest import GroupIndex, LifetimeIndex, store_snapshot, write_store

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


def write_snapshots(snapshots, store: Path) -> Path:
    """Fold snapshots (ordinals 0, 1, ...) into one store file, as scan does."""
    index = LifetimeIndex(labels=[], groups={name: GroupIndex() for name in snapshots[0].groups})
    for snapshot in snapshots:
        store_snapshot(snapshot, index)
    return write_store(index, store)


def indexed_uloc(group: GroupIndex, version: int) -> frozenset[bytes]:
    """The line digests whose presence mask has the version's bit."""
    raw = group.digests.tobytes()  # an S item would lose trailing NUL bytes
    present = np.unpackbits(group.masks, axis=1, bitorder="little")[:, version]
    return frozenset(raw[k * 16 : (k + 1) * 16] for k in np.flatnonzero(present))


# --- random toy corpora with a brute-force oracle ---------------------------
#
# The builder evolves a {relpath: text} tree through deletes, renames,
# moves, edits, and additions.  The oracle recomputes changed fractions
# directly on the raw strings, independent of digests and snapshots, so
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
