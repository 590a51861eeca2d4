"""The traced run: the same CLI chain in-process, with a span around each layer call.

Spans are recorded from the benchmark's side only.  For the length of a
traced pass the public functions that ``codesurvival.cli`` (and, inside
it, ``ingest`` and ``survival``) call are replaced by wrappers that open
a span named ``<module>.<function>``; the originals are restored
afterwards.  Each CLI stage is one ``cli.<stage>`` span whose first
child is ``cli.import``, a fresh process that only imports
``codesurvival.cli``, the start-up cost each real stage pays.

Spans are held in memory as (id, name, parent, start, end) and written
out with the results when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import sys
import tarfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from stages import isolated_env, run_child, stage_argv


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, time.perf_counter() - self._origin)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter() - self._origin

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` under a span; ``on_result`` sees its result in a ``bench.count`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                with self.span("bench.count"):
                    on_result(result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


class ScanCounter:
    """Counts taken from each snapshot scan_version returns, outside its span."""

    def __init__(self, group: str) -> None:
        self.group = group
        self.files = 0
        self.unchanged_files = 0
        self.later_files = 0
        self.uloc_sizes: list[int] = []
        self.distinct: set[bytes] = set()
        self._previous: set[tuple[str, bytes]] | None = None

    def __call__(self, snapshot) -> None:
        payload = snapshot.groups[self.group]
        records = {(r.relpath, r.content_digest) for r in payload.files}
        if self._previous is not None:
            self.later_files += len(records)
            self.unchanged_files += len(records & self._previous)
        self._previous = records
        self.files += len(records)
        self.uloc_sizes.append(len(payload.uloc))
        self.distinct.update(payload.uloc)


def _patch_targets():
    from codesurvival import cli, ingest, survival

    return [
        (cli, "load_manifest", "ingest.load_manifest"),
        (ingest, "scan_version", "ingest.scan_version"),
        (ingest, "store_snapshot", "ingest.store_snapshot"),
        (survival, "load_all_snapshots", "ingest.load_all_snapshots"),
        (cli, "build_curve_family", "survival.build_curve_family"),
        (cli, "write_curves_csv", "survival.write_curves_csv"),
        (cli, "read_curves_csv", "survival.read_curves_csv"),
        (cli, "apply_plan", "screening.apply_plan"),
        (cli, "fit_saturation", "fitting.fit_saturation"),
        (cli, "bounds", "discoverability.bounds"),
        (cli, "persistence_summary", "discoverability.persistence_summary"),
        (cli, "write_bounds_csv", "discoverability.write_bounds_csv"),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, counter: ScanCounter):
    targets = _patch_targets()
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            hook = counter if attr == "scan_version" else None
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), hook))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def traced_pass(tracer: Tracer, src: Path, corpus: Path, out: Path, counter: ScanCounter, deadline: float):
    """Run the six stages in-process under spans.

    Returns each stage's exit code and the pass's spans, root first.
    """
    from codesurvival import cli

    (out / "logs").mkdir(parents=True)
    env = isolated_env(src, out / "home")
    codes: dict[str, int] = {}
    first = len(tracer.spans)
    with tracer.span("pass"), patched(tracer, counter):
        for stage, args in stage_argv(corpus, out):
            with tracer.span(f"cli.{stage}"):
                with tracer.span("cli.import"):
                    child = run_child(
                        [sys.executable, "-c", "import codesurvival.cli"], env,
                        out / "logs" / f"import-{stage}.err", deadline,
                    )
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(args)
                    except Exception:  # a crashed stage is a failed operation; keep the traceback
                        traceback.print_exc()
                        code = 1
                (out / "logs" / f"{stage}.err").write_text(err.getvalue())
                codes[stage] = child.returncode or code
    return codes, tracer.spans[first:]


def probe_normalize(tracer: Tracer, version_source: Path, group) -> dict[str, float]:
    """Time line digesting alone on one version's files, next to scanning that version."""
    from codesurvival import ingest

    if version_source.is_dir():
        blobs = [p.read_bytes() for p in sorted(version_source.iterdir())]
    else:
        with tarfile.open(version_source) as tar:
            blobs = [tar.extractfile(m).read() for m in tar.getmembers() if m.isreg()]
    with tracer.span("probe"):
        with tracer.span("ingest.scan_version") as scan:
            ingest.scan_version(version_source, [group])
        with tracer.span("ingest.normalize_lines") as norm:
            lines = sum(len(ingest.normalize_lines(blob)) for blob in blobs)
    return {
        "ingest.normalize_lines.s": norm.seconds,
        "ingest.normalize_lines.lines_per_s": lines / norm.seconds,
        "ingest.digest_share": norm.seconds / scan.seconds,
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-call-site seconds and per-layer self time of one traced pass.

    ``spans`` are one pass's spans, its root first.  Self time is a span's
    duration minus the part its direct children cover.
    """
    root, inside = spans[0], spans[1:]
    by_id = {s.id: s for s in spans}
    own = {s.id: s.seconds for s in spans}
    for s in inside:
        own[s.parent] -= s.seconds

    def stage_metric(span: Span) -> str:
        while not by_id[span.parent].name.startswith("cli."):
            span = by_id[span.parent]
        return by_id[span.parent].name.rsplit("_", 1)[-1]

    metrics: dict[str, float] = defaultdict(float)
    for s in inside:
        metrics[f"self_s.{s.name.split('.')[0]}"] += own[s.id]
        if s.name.startswith("cli."):
            continue
        if s.name == "survival.build_curve_family":
            # Its store load is a child span, so self time is the curve work alone.
            metrics[f"{s.name}.{stage_metric(s)}.s"] += own[s.id]
        elif s.name == "fitting.fit_saturation":
            metrics[f"{s.name}.{stage_metric(s)}.s"] += s.seconds
        else:
            metrics[f"{s.name}.s"] += s.seconds
    imports = [s.seconds for s in inside if s.name == "cli.import"]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.total_s"] = root.seconds
    return dict(metrics)
