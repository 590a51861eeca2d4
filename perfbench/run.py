"""Pipeline benchmark for codesurvival: scan -> curves -> fit -> bounds.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-dirs --seed 1 --seconds 40 --trace 0

The corpus is generated from ``--seed`` with ``codesurvival.synth``.
With ``--trace 0`` the CLI chain runs as six fresh processes per pass,
passes repeat for ``--seconds``, and the end-to-end metrics are medians
over passes.  With ``--trace 1`` untraced passes alternate with
in-process traced passes and the per-layer metrics are reported.  Every
pass goes through the correctness gate.  The last line of standard
output is one JSON object; a fuller record goes to
``.perfbench/results/``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import tarfile
import time
from pathlib import Path

import corpora
from stages import STAGES, PassResult, isolated_env, run_child, run_pass, settle
from tracing import ScanCounter, Tracer, layer_metrics, probe_normalize, traced_pass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Set-up repeats at least SETUP_REPS times and at most SETUP_MAX_REPS
# times while it stays within SETUP_SECONDS.
SETUP_REPS = 3
SETUP_MAX_REPS = 5
SETUP_SECONDS = 10.0
MIN_PASSES = 3
# A run must end within 180 s even when the disk is slow or a stage hangs:
# no set-up repeat and no pass starts that would end after RUN_BUDGET_S,
# and a child still running then is killed.
RUN_BUDGET_S = 150.0


def source_identity() -> dict:
    """Digest of the program's sources, plus the commit when a .git is present."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((SRC / "codesurvival").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"source_digest": h.hexdigest(), "commit": commit}


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, failed: dict[str, str], count: int) -> None:
        self.attempted += count
        self.failures += [f"{label} {stage}: {why}" for stage, why in sorted(failed.items())]


def digest_mismatches(reference: dict[str, str], digests: dict[str, str]) -> dict[str, str]:
    """Stages whose artifacts differ from the first pass of this run (criterion 9)."""
    return {
        stage: "artifact digest differs from the first pass"
        for stage, digest in digests.items()
        if reference and digest != reference.get(stage)
    }


def measure_passes(workload, corpus: Path, work: Path, seconds: float, ledger: Ledger, deadline: float,
                   min_passes: int = MIN_PASSES, between=None):
    """Untraced passes until ``seconds`` would be exceeded (at least ``min_passes``).

    ``between(reference, index)`` runs after each pass, inside its time.
    """
    passes = []
    reference: dict[str, str] = {}
    started = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        result = run_pass(workload, SRC, corpus, out, deadline)
        if result.digests and not reference:
            reference = result.digests
        result.failed.update(digest_mismatches(reference, result.digests))
        ledger.record(out.name, result.failed, len(STAGES) + len(result.file_curve_reruns))
        passes.append(result)
        if between is not None:
            between(reference, len(passes) - 1)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        typical = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes
        if time.perf_counter() + typical > deadline:
            return passes


def end_to_end(workload, seed: int, seconds: float, work: Path, ledger: Ledger, record: dict,
               deadline: float) -> dict:
    setup: list[float] = []
    digests = []
    setup_ends = time.perf_counter() + SETUP_SECONDS
    for rep in range(SETUP_MAX_REPS):
        if setup:
            next_end = time.perf_counter() + max(setup)
            if next_end > (setup_ends if rep >= SETUP_REPS else deadline - RUN_BUDGET_S / 2):
                break
        out = work / f"corpus{rep}"
        started = time.perf_counter()
        corpora.build(workload, seed, out)
        setup.append(time.perf_counter() - started)
        digests.append(corpora.digest_tree(out))
        if rep:
            shutil.rmtree(out)
    ledger.record(
        "setup", {f"rep{i}": "corpus digest differs from rep0" for i, d in enumerate(digests) if d != digests[0]},
        len(setup),
    )
    record["corpus_digest"] = digests[0]
    passes = measure_passes(workload, work / "corpus0", work, seconds, ledger, deadline)

    def samples(get) -> list[float]:
        values = []
        for p in passes:
            try:
                values.append(get(p))
            except KeyError:
                pass
        return values

    series = {
        "setup_s": setup,
        "pipeline_s": samples(lambda p: sum(p.wall[s] for s in STAGES)),
        "scan_s": samples(lambda p: p.wall["scan"]),
        "curves_uloc_s": samples(lambda p: p.wall["curves_uloc"]),
        "curves_file_s": samples(lambda p: p.wall["curves_file"]) + [t for p in passes for t in p.file_curve_reruns],
        "scan_rss_mb": samples(lambda p: p.rss_mb["scan"]),
        "curves_rss_mb": samples(lambda p: max(p.rss_mb["curves_uloc"], p.rss_mb["curves_file"])),
        "store_mb": [p.store_bytes / 1e6 for p in passes if p.store_bytes],
    }
    record["samples"] = series
    record["stage_samples"] = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "rss_mb": [p.rss_mb for p in passes],
    }
    return {name: statistics.median(v) if v else None for name, v in series.items()}


def corpus_volume(corpus: Path) -> tuple[int, int]:
    """Bytes and lines of every group file in the corpus, counted from its releases."""
    total_bytes = total_lines = 0
    for release in sorted(p for p in corpus.iterdir() if p.name.startswith("v")):
        if release.is_dir():
            blobs = [p.read_bytes() for p in release.iterdir()]
        else:
            with tarfile.open(release) as tar:
                blobs = [tar.extractfile(m).read() for m in tar.getmembers() if m.isreg()]
        total_bytes += sum(len(blob) for blob in blobs)
        total_lines += sum(blob.count(b"\n") for blob in blobs)
    return total_bytes, total_lines


def traced(workload, seed: int, seconds: float, work: Path, ledger: Ledger, record: dict,
           deadline: float) -> dict:
    from codesurvival.ingest import ExtensionGroup

    tracer = Tracer()
    corpus = work / "corpus0"
    with tracer.span("synth.generate") as gen:
        corpora.build(workload, seed, corpus)
    record["corpus_digest"] = corpora.digest_tree(corpus)
    counters: list[ScanCounter] = []
    per_pass: list[dict[str, float]] = []
    store_records: list[int] = []
    points: list[int] = []

    def traced_after(reference: dict[str, str], index: int) -> None:
        out = work / f"traced{index}"
        counter = ScanCounter(corpora.GROUP)
        codes, spans = traced_pass(tracer, SRC, corpus, out, counter, deadline)
        result = PassResult()
        settle(workload, out, codes, result)
        # In-process stages must write the same bytes as the CLI processes.
        result.failed.update(digest_mismatches(reference, result.digests))
        ledger.record(out.name, result.failed, len(STAGES))
        if not result.failed:
            counters.append(counter)
            per_pass.append(layer_metrics(spans))
            store_records.append(
                sum(p.read_bytes().count(b"\n") for p in (out / "store").iterdir() if p.suffix == ".snap")
            )
            points.append(
                sum(json.loads((out / f"fit_{m}.json").read_text())["fits"][0]["n_points"] for m in ("uloc", "file"))
            )
        shutil.rmtree(out)

    passes = measure_passes(workload, corpus, work, seconds, ledger, deadline, min_passes=1, between=traced_after)
    middle = sorted(p for p in corpus.iterdir() if p.name.startswith("v"))[workload.versions // 2]
    metrics = probe_normalize(tracer, middle, ExtensionGroup(name=corpora.GROUP, extensions=(corpora.EXT,)))
    record["spans"] = tracer.to_json()
    if not per_pass:
        return metrics
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    untraced = statistics.median(sum(p.wall.values()) for p in passes if len(p.wall) == len(STAGES))
    metrics["trace.untraced_pipeline_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - untraced
    metrics["synth.generate.s"] = gen.seconds
    counter = counters[0]
    sizes = counter.uloc_sizes
    uloc_keys = sum(sizes)
    metrics.update({
        "ingest.files": counter.files,
        "ingest.uloc_keys": uloc_keys,
        "ingest.distinct_keys": len(counter.distinct),
        "ingest.distinct_key_share": len(counter.distinct) / uloc_keys,
        "ingest.unchanged_file_share": counter.unchanged_files / counter.later_files,
        "ingest.store_records": store_records[0],
        "survival.pairs": workload.pairs,
        # Computed, not measured: a sorted-probe intersection touches min(|base|, |later|) keys.
        "survival.uloc.keys_probed": sum(
            min(sizes[i], sizes[j]) for i in range(len(sizes)) for j in range(i + 1, len(sizes))
        ),
        "fitting.points": points[0],
    })
    metrics["ingest.bytes_read"], metrics["ingest.lines"] = corpus_volume(corpus)
    return metrics


def main(argv: list[str] | None = None) -> int:
    deadline = time.perf_counter() + RUN_BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "codesurvival" / "cli.py").is_file():
        print(f"error: no codesurvival sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = corpora.WORKLOADS[args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    base = ROOT / ".perfbench"
    work = base / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **source_identity()}
    try:
        # Untimed warm-up: the first import in a fresh checkout compiles bytecode.
        run_child([sys.executable, "-c", "import codesurvival.cli"], isolated_env(SRC, work / "warmup"),
                  work / "warmup.err", deadline)
        measure = traced if args.trace else end_to_end
        values = measure(workload, args.seed, args.seconds, work, ledger, record, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(name for name in units if values.get(name) is None)
    ledger.record("report", {"metrics": f"not measured: {missing}"} if missing else {}, 1)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items() if name not in missing
        },
    }
    record.update(failures=ledger.failures, result=result)
    (base / "results").mkdir(parents=True, exist_ok=True)
    out = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for failure in ledger.failures:
        print(f"FAIL {failure}")
    for name, series in record.get("samples", {}).items():
        print(f"{name:<16} median {statistics.median(series):10.4f}  max {max(series):10.4f}  "
              f"n={len(series)}  {units[name]}")
    if args.trace:
        for name, unit in units.items():
            if name not in missing:
                print(f"{name:<40} {values[name]:14.6g} {unit}")
    print(f"corpus {record['corpus_digest']}  source {record['source_digest']}  commit {record['commit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
