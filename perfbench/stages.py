"""One untraced pass: the documented CLI chain as six fresh processes.

Each pass gets a fresh directory with an empty store and its own HOME,
XDG_CACHE_HOME and TMPDIR, so no cache carries work between passes.
Stages run one at a time from this process; each child's peak RSS
comes from ``os.wait4`` on that child alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from corpora import GROUP, LAM, A, Workload, expected_file, expected_uloc

CURVE_TOL = 0.01  # criterion 4: curve within +-0.01 of the analytic form
FIT_A_TOL = 0.02  # criterion 4: A within +-0.02
FIT_LAM_REL = 0.10  # criterion 4: lambda within 10%
# `curves --metric file` is the shortest timed stage and the noisiest, so
# each pass times it this many times on the same store.
FILE_CURVE_RUNS = 3


def stage_argv(corpus: Path, out: Path) -> list[tuple[str, list[str]]]:
    store = out / "store"
    return [
        ("scan", ["scan", "--manifest", str(corpus / "manifest.json"), "--store", str(store)]),
        ("curves_uloc", ["curves", "--store", str(store), "--group", GROUP, "--metric", "uloc",
                         "--out", str(out / "curves_uloc.csv")]),
        ("curves_file", ["curves", "--store", str(store), "--group", GROUP, "--metric", "file",
                         "--out", str(out / "curves_file.csv")]),
        ("fit_uloc", ["fit", "--curves", str(out / "curves_uloc.csv"), "--group", GROUP,
                      "--metric", "uloc", "--out", str(out / "fit_uloc.json")]),
        ("fit_file", ["fit", "--curves", str(out / "curves_file.csv"), "--group", GROUP,
                      "--metric", "file", "--out", str(out / "fit_file.json")]),
        ("bounds", ["bounds", "--fit-uloc", str(out / "fit_uloc.json"), "--fit-file",
                    str(out / "fit_file.json"), "--horizon", "10", "--out", str(out / "bounds")]),
    ]


def isolated_env(src: Path, home: Path) -> dict[str, str]:
    """A minimal child environment whose caches all live under ``home``."""
    for sub in ("cache", "tmp"):
        (home / sub).mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(src),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / "cache"),
        "TMPDIR": str(home / "tmp"),
    }


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict[str, str], log: Path, deadline: float) -> ChildRun:
    """Run one child to completion, killing it at ``deadline`` (a perf_counter value).

    Returns its wall time, CPU time and its own peak RSS.
    """
    with log.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        log.read_text(errors="replace")[-400:],
    )


STAGES = ("scan", "curves_uloc", "curves_file", "fit_uloc", "fit_file", "bounds")


@dataclass
class PassResult:
    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    store_bytes: int = 0
    file_curve_reruns: list[float] = field(default_factory=list)  # wall s of the extra runs
    failed: dict[str, str] = field(default_factory=dict)  # stage -> reason
    digests: dict[str, str] = field(default_factory=dict)


def run_pass(workload: Workload, src: Path, corpus: Path, out: Path, deadline: float) -> PassResult:
    (out / "logs").mkdir(parents=True)
    env = isolated_env(src, out / "home")
    result = PassResult()
    codes = {}
    for stage, args in stage_argv(corpus, out):
        child = run_child(
            [sys.executable, "-m", "codesurvival.cli", *args], env, out / "logs" / f"{stage}.err", deadline
        )
        result.wall[stage] = child.wall_s
        result.cpu[stage] = child.cpu_s
        result.rss_mb[stage] = child.rss_mb
        codes[stage] = child.returncode
        if child.returncode != 0:
            result.failed[stage] = f"exit {child.returncode}: {child.stderr.strip()}"
            break
        if stage == "scan":
            result.store_bytes = sum(p.stat().st_size for p in (out / "store").iterdir())
        if stage == "curves_file":
            rerun_file_curves(args, env, out, result, deadline)
    settle(workload, out, codes, result)
    return result


def rerun_file_curves(args: list[str], env: dict[str, str], out: Path, result: PassResult, deadline: float) -> None:
    """Time the file-curves stage again; each rerun must write the same bytes."""
    first = Path(args[-1]).read_bytes()
    for k in range(1, FILE_CURVE_RUNS):
        rerun = out / f"curves_file.{k}.csv"
        child = run_child(
            [sys.executable, "-m", "codesurvival.cli", *args[:-1], str(rerun)], env,
            out / "logs" / f"curves_file.{k}.err", deadline,
        )
        result.file_curve_reruns.append(child.wall_s)
        if child.returncode != 0 or not rerun.is_file() or rerun.read_bytes() != first:
            result.failed["curves_file"] = f"rerun {k}: exit {child.returncode}, or its CSV differs from the first run"
        rerun.unlink(missing_ok=True)


def settle(workload: Workload, out: Path, codes: dict[str, int], result: PassResult) -> None:
    """Record stage failures, then check and digest the artifacts of a full chain."""
    for stage in STAGES:
        if codes.get(stage, None) != 0:
            result.failed.setdefault(stage, f"exit {codes[stage]}" if stage in codes else "not run")
    if result.failed:
        return
    try:
        problems = check_artifacts(workload, out)
        result.digests = digest_artifacts(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed artifacts
        problems = {"check": [f"{type(exc).__name__}: {exc}"]}
    for stage, reasons in problems.items():
        result.failed[stage] = "; ".join(reasons)


# --- correctness gate -----------------------------------------------------------


def _pooled_by_offset(path: Path) -> tuple[int, dict[int, float]]:
    sums: dict[int, list[float]] = defaultdict(lambda: [0.0, 0])
    rows = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            acc = sums[int(row[3])]
            acc[0] += float(row[4])
            acc[1] += 1
            rows += 1
    return rows, {n: s / c for n, (s, c) in sums.items()}


def check_artifacts(workload: Workload, out: Path) -> dict[str, list[str]]:
    """Per-stage check failures for the artifacts of one finished pass.

    Curves are checked pooled over baselines at each offset: the corpora
    are smaller than criterion 4's, so single points carry more sampling
    noise than the +-0.01 tolerance, while the pooled curve does not.
    """
    problems: dict[str, list[str]] = defaultdict(list)
    for stage, metric, expected in (
        ("curves_uloc", "uloc", expected_uloc),
        ("curves_file", "file", lambda n: expected_file(workload, n)),
    ):
        rows, pooled = _pooled_by_offset(out / f"curves_{metric}.csv")
        if rows != workload.pairs:
            problems[stage].append(f"{rows} rows, expected {workload.pairs}")
        worst = max(pooled, key=lambda n: abs(pooled[n] - expected(n)))
        if abs(pooled[worst] - expected(worst)) > CURVE_TOL:
            problems[stage].append(
                f"offset {worst}: pooled {pooled[worst]:.4f} vs analytic {expected(worst):.4f}"
            )
    (fit,) = json.loads((out / "fit_uloc.json").read_text())["fits"]
    if abs(fit["A"] - A) > FIT_A_TOL or abs(fit["lambda"] / LAM - 1.0) > FIT_LAM_REL:
        problems["fit_uloc"].append(f"fit A={fit['A']:.4f} lambda={fit['lambda']:.5f}")
    if not sorted(out.glob("bounds.*.json")):
        problems["bounds"].append("no bounds JSON written")
    return problems


def digest_artifacts(out: Path) -> dict[str, str]:
    """Digest of each stage's deterministic outputs (the store, CSVs and JSONs)."""
    groups = {
        "scan": sorted((out / "store").iterdir()),
        "curves_uloc": [out / "curves_uloc.csv"],
        "curves_file": [out / "curves_file.csv"],
        "fit_uloc": [out / "fit_uloc.json"],
        "fit_file": [out / "fit_file.json"],
        "bounds": sorted(out.glob("bounds.*")),
    }
    digests = {}
    for stage, paths in groups.items():
        h = hashlib.blake2b(digest_size=16)
        for path in paths:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[stage] = h.hexdigest()
    return digests
