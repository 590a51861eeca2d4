"""Benchmark workloads: synthetic release histories built with codesurvival.synth.

Every workload uses the published Firefox row the acceptance gate uses
(A = 0.777, lambda = 0.0369); the seed comes from the command line, so
the same seed writes the same bytes.  A tarball workload packs each
release as a reproducible ``.tar.gz`` (sorted members, fixed mtime,
uid and gid, gzip header mtime 0).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import shutil
import tarfile
from dataclasses import dataclass
from pathlib import Path

A = 0.777
LAM = 0.0369
GROUP = "syn"
EXT = ".txt"


@dataclass(frozen=True)
class Workload:
    name: str
    versions: int
    lines: int
    files: int
    tarballs: bool

    @property
    def lines_per_file(self) -> int:
        return -(-self.lines // self.files)

    @property
    def pairs(self) -> int:
        return self.versions * (self.versions - 1) // 2


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-dirs", versions=44, lines=20_000, files=40, tarballs=False),
        Workload("many-small", versions=44, lines=15_000, files=1_500, tarballs=False),
        Workload("wide-tgz", versions=120, lines=6_000, files=60, tarballs=True),
    )
}


def _pack_release(src: Path, dest: Path) -> None:
    """Write ``src``'s files as a reproducible .tar.gz with bare member names."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for path in sorted(src.iterdir()):
            data = path.read_bytes()
            info = tarfile.TarInfo(path.name)
            info.size = len(data)
            info.mtime = 0
            info.mode = 0o644
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            tar.addfile(info, io.BytesIO(data))
    with dest.open("wb") as raw, gzip.GzipFile(
        filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=6
    ) as gz:
        gz.write(buf.getvalue())


def build(workload: Workload, seed: int, out: Path) -> None:
    """Set-up work a user pays before ``scan``: generate, then pack if tarballs."""
    from codesurvival.ingest import ExtensionGroup
    from codesurvival.synth import SynthSpec, generate

    spec = SynthSpec(
        A=A,
        lam=LAM,
        versions=workload.versions,
        lines_per_version=workload.lines,
        files=workload.files,
        group=ExtensionGroup(name=GROUP, extensions=(EXT,)),
        seed=seed,
    )
    generate(spec, out)
    if not workload.tarballs:
        return
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["versions"]:
        release = out / entry["path"]
        tgz = out / f"{entry['path']}.tar.gz"
        _pack_release(release, tgz)
        shutil.rmtree(release)
        entry["path"] = tgz.name
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def digest_tree(root: Path) -> str:
    """blake2b-128 over every file's relative path and bytes, in sorted order."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.blake2b(path.read_bytes(), digest_size=16).digest())
    return h.hexdigest()


def expected_uloc(n: int) -> float:
    return A * -math.expm1(-LAM * n)


def expected_file(workload: Workload, n: int) -> float:
    """Expected file changed fraction at offset n, from synth's layout.

    synth makes the first round(A * lines) line slots mutable and cuts
    slots into equal contiguous files, so file f holds m_f mutable lines
    and changes by offset n with probability 1 - e^(-lambda * m_f * n).
    With whole files mutable this is A * (1 - e^(-k * lambda * n)) for
    k lines per file.
    """
    mutable = round(A * workload.lines)
    k = workload.lines_per_file
    total = 0.0
    for f in range(workload.files):
        m = min(max(mutable - f * k, 0), k)
        total += -math.expm1(-LAM * m * n)
    return total / workload.files
