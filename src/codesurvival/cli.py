"""Command-line pipeline: scan -> curves -> fit -> bounds, plus synth.

Each subcommand reads and writes on-disk intermediates (lifetime store,
CSV, JSON) so every stage can be inspected and rerun on its own, and
every number printed to the console is also present in a machine
readable artifact.  Outputs are deterministic for fixed inputs and
flags; the optional --report run report is the one exception, since it
includes wall-clock timings.

Each subcommand imports only the modules it runs: only ``synth`` and
``scan`` import numpy, and ``curves`` loads no fitting code.

Exit codes: 0 success, 2 input or usage error, 3 data or computation
error (for example a screening plan that excludes every point).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .curves import MetricKind, read_curves_csv, write_curves_csv
from .errors import CodeSurvivalError, DataError, UsageError

__all__ = ["main"]

# The names each stage module lends this one, loaded by the subcommands
# that call them (``_load``) or on first attribute access from outside.
_STAGE_NAMES = {
    "ingest": ("ExtensionGroup", "ScanCounters", "load_manifest", "scan_corpus"),
    "store": ("STORE_FILENAME",),
    "survival": ("build_curve_family",),
    "screening": ("ScreeningPlan", "apply_plan", "load_plan"),
    "fitting": ("FitResult", "fit_saturation"),
    "discoverability": ("bounds", "persistence_summary", "write_bounds_csv"),
    "synth": ("SynthSpec", "generate", "write_expected_csv"),
}

FIT_SCHEMA = "codesurvival.fit/1"
BOUNDS_SCHEMA = "codesurvival.bounds/1"
REPORT_SCHEMA = "codesurvival.report/1"


def _load(*modules: str) -> None:
    """Import stage modules and bind their names here.

    A name already bound is kept, so a wrapper set on this module before
    the stage ran is the function the stage calls.
    """
    for module in modules:
        imported = importlib.import_module(f"{__package__}.{module}")
        for name in _STAGE_NAMES[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    for module, names in _STAGE_NAMES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _tool_version() -> str:
    from codesurvival import __version__

    return __version__


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _one_line(text: str) -> str:
    """``text`` with each unprintable character escaped, so that it prints on one console line."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in text)


def cmd_scan(args: argparse.Namespace) -> tuple[list[Path], list[str], dict]:
    _load("ingest", "store")
    manifest = load_manifest(args.manifest)
    store = Path(args.store)
    store.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[int, str, str, int, int, int]] = []
    warnings: list[str] = []
    counters: dict[str, ScanCounters] = {}
    print(f"{'ordinal':>7}  {'label':<12} {'group':<8} {'files':>7} {'uloc':>9} {'skipped':>7}")
    for snapshot in scan_corpus(manifest, store=store, counters=counters):
        for name in sorted(snapshot.groups):
            payload = snapshot.groups[name]
            row = (
                snapshot.ordinal,
                snapshot.version_label,
                name,
                payload.file_count,
                payload.uloc_count,
                payload.skipped_files,
            )
            rows.append(row)
            print(f"{row[0]:>7}  {_one_line(row[1]):<12} {row[2]:<8} {row[3]:>7} {row[4]:>9} {row[5]:>7}")
            if payload.skipped_files:
                warnings.append(
                    f"version {snapshot.version_label!r} group {name!r}: "
                    f"{payload.skipped_files} unreadable file(s) skipped"
                )
    counts_csv = store / "counts.csv"
    with counts_csv.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("ordinal", "label", "group", "files", "uloc", "skipped"))
        writer.writerows(rows)
    artifacts = [counts_csv, store / STORE_FILENAME]
    digest = hashlib.blake2b(Path(args.manifest).read_bytes(), digest_size=16).hexdigest()
    scan = {name: dataclasses.asdict(counters[name]) for name in sorted(counters)}
    return artifacts, warnings, {"manifest_digest": digest, "scan": scan}


def cmd_curves(args: argparse.Namespace) -> tuple[list[Path], list[str], dict]:
    _load("survival")
    family = build_curve_family(args.store, args.group, MetricKind(args.metric))
    write_curves_csv(family, args.out)
    n_rows = sum(len(c.points) for c in family.curves)
    print(f"{n_rows} curve rows ({len(family.curves)} baselines) -> {args.out}")
    for warning in family.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return [Path(args.out)], list(family.warnings), {"store_sections": dict(family.inputs)}


def cmd_fit(args: argparse.Namespace) -> tuple[list[Path], list[str], dict]:
    _load("screening", "fitting")
    plan = load_plan(args.plan) if args.plan else ScreeningPlan()
    group = args.group or plan.group
    metric = args.metric or plan.metric or MetricKind.ULOC.value
    try:
        family = read_curves_csv(
            args.curves, group=group, metric=MetricKind(metric), software=plan.software
        )
    except OSError as exc:
        raise UsageError(f"cannot read curves CSV {args.curves}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fits = [
        dataclasses.replace(fit_saturation(point_set), group=group, metric=metric)
        for point_set in apply_plan(family, plan)
    ]
    document = {
        "schema_version": FIT_SCHEMA,
        "software": plan.software,
        "group": group,
        "metric": metric,
        "plan": {
            "cut": plan.stabilization_cut,
            "exclude": list(plan.excluded_ordinals),
            "splits": list(plan.regime_splits),
            "provenance": plan.provenance,
        },
        "fits": [fit.to_dict() for fit in fits],
    }
    _write_json(document, Path(args.out))
    print(f"{'regime':<10} {'lambda':>9} {'A':>7} {'base rate':>9} {'rms':>9}  warnings")
    warnings: list[str] = []
    for fit in fits:
        flags = ",".join(sorted(fit.warnings)) or "-"
        print(
            f"{fit.regime:<10} {fit.params.lam:>9.4g} {fit.params.A:>7.3g} "
            f"{fit.params.base_rate:>9.4g} {fit.residual_rms:>9.3g}  {flags}"
        )
        warnings.extend(f"{fit.regime}: {w}" for w in sorted(fit.warnings))
    return [Path(args.out)], warnings, {}


def _load_fits(path: str) -> dict[str, FitResult]:
    fit_path = Path(path)
    if not fit_path.is_file():
        raise UsageError(f"fit file not found: {fit_path}")
    try:
        document = json.loads(fit_path.read_text(encoding="utf-8"))
        fits = [FitResult.from_dict(raw) for raw in document["fits"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse fit file {fit_path}: {exc}") from exc
    return {fit.regime: fit for fit in fits}


def cmd_bounds(args: argparse.Namespace) -> tuple[list[Path], list[str], dict]:
    _load("fitting", "discoverability")
    if args.horizon < 0:
        raise UsageError(f"--horizon must be >= 0, got {args.horizon}")
    subtle_fits = _load_fits(args.fit_uloc)
    obvious_fits = _load_fits(args.fit_file)
    shared = sorted(set(subtle_fits) & set(obvious_fits))
    if not shared:
        raise DataError(
            f"no regime label occurs in both fit files "
            f"({sorted(subtle_fits)} vs {sorted(obvious_fits)})"
        )
    artifacts: list[Path] = []
    warnings: list[str] = []
    out = Path(args.out)
    print(f"{'regime':<10} {'n':>4} {'subtle P':>9} {'obvious P':>9}")
    for regime in shared:
        subtle, obvious = subtle_fits[regime], obvious_fits[regime]
        result = bounds(subtle, obvious, args.horizon)
        csv_path = out.parent / f"{out.name}.{regime}.csv"
        json_path = out.parent / f"{out.name}.{regime}.json"
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_bounds_csv(result, csv_path)
        summary = {
            "schema_version": BOUNDS_SCHEMA,
            "regime": regime,
            "bounds": result.summary(),
            "subtle_persistence": (
                dataclasses.asdict(persistence_summary(subtle, args.horizon))
                if args.horizon >= 1
                else None
            ),
            "obvious_persistence": (
                dataclasses.asdict(persistence_summary(obvious, args.horizon))
                if args.horizon >= 1
                else None
            ),
        }
        _write_json(summary, json_path)
        artifacts += [csv_path, json_path]
        for (n, sp), (_, op) in zip(result.subtle, result.obvious):
            print(f"{regime:<10} {n:>4} {sp:>9.4f} {op:>9.4f}")
        if result.clamped:
            warnings.append(f"{regime}: probabilities clamped to 1 (linear-regime fit)")
        if result.ordering_violations:
            warnings.append(
                f"{regime}: obvious curve below subtle at offsets {list(result.ordering_violations)}"
            )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return artifacts, warnings, {}


def cmd_synth(args: argparse.Namespace) -> tuple[list[Path], list[str], dict]:
    _load("ingest", "synth")
    try:
        spec = SynthSpec(
            A=args.A,
            lam=args.lam,
            versions=args.versions,
            lines_per_version=args.lines,
            files=args.files,
            group=ExtensionGroup(name=args.group, extensions=(args.ext,)),
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    generate(spec, out)
    expected_csv = out / "expected.csv"
    write_expected_csv(spec, spec.versions - 1, expected_csv)
    print(
        f"wrote {spec.versions} versions x {spec.lines_per_version} lines "
        f"({spec.files} files per version) under {out}"
    )
    return [out / "manifest.json", expected_csv], [], {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codesurvival",
        description="Measure code survival across releases and fit saturation-model "
        "bounds on zero-day discoverability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="digest every version of a corpus into a lifetime store")
    scan.add_argument("--manifest", required=True, help="corpus manifest JSON")
    scan.add_argument("--store", required=True, help="output store directory")
    scan.set_defaults(func=cmd_scan)

    curves = sub.add_parser("curves", help="build all-pairs changed-fraction curves")
    curves.add_argument("--store", required=True, help="store directory written by scan")
    curves.add_argument("--group", required=True, help="extension group name")
    curves.add_argument("--metric", required=True, choices=[m.value for m in MetricKind])
    curves.add_argument("--out", required=True, help="output curves CSV")
    curves.set_defaults(func=cmd_curves)

    fit = sub.add_parser("fit", help="fit the saturation model per screening regime")
    fit.add_argument("--curves", required=True, help="curves CSV from the curves step")
    fit.add_argument("--plan", help="screening plan JSON (default: keep everything)")
    fit.add_argument("--group", default="", help="group label for the output (default: from plan)")
    fit.add_argument("--metric", default="", choices=["", *(m.value for m in MetricKind)])
    fit.add_argument("--out", required=True, help="output fit JSON")
    fit.set_defaults(func=cmd_fit)

    bnd = sub.add_parser("bounds", help="pair uloc and file fits into discoverability bounds")
    bnd.add_argument("--fit-uloc", required=True, help="fit JSON for the uloc metric (subtle)")
    bnd.add_argument("--fit-file", required=True, help="fit JSON for the file metric (obvious)")
    bnd.add_argument("--horizon", type=int, required=True, help="max version offset")
    bnd.add_argument("--out", required=True, help="output base path; writes <out>.<regime>.{csv,json}")
    bnd.set_defaults(func=cmd_bounds)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with known parameters")
    synth.add_argument("--A", type=float, required=True, help="mutable line fraction in [0, 1]")
    synth.add_argument("--lambda", dest="lam", type=float, required=True, help="rate parameter")
    synth.add_argument("--versions", type=int, required=True)
    synth.add_argument("--lines", type=int, required=True, help="lines per version")
    synth.add_argument("--files", type=int, default=20, help="files per version")
    synth.add_argument("--group", default="syn", help="extension group name")
    synth.add_argument("--ext", default=".txt", help="file extension including the dot")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output corpus directory")
    synth.set_defaults(func=cmd_synth)

    for command in (scan, curves, fit, bnd, synth):
        command.add_argument(
            "--report", help="also write a run report JSON (includes wall-clock timings)"
        )
    return parser


def _write_report(args: argparse.Namespace, artifacts: list[Path], warnings: list[str], extra: dict, elapsed: float) -> None:
    for artifact in artifacts:
        if not artifact.exists():
            raise DataError(f"run report refers to missing artifact {artifact}")
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "report") and not k.startswith("_")
    }
    payload = {
        "schema_version": REPORT_SCHEMA,
        "tool_version": _tool_version(),
        "command": args.command,
        "config": config,
        "artifacts": [str(a) for a in artifacts],
        "warnings": warnings,
        "timings": {"wall_seconds": elapsed},
        **extra,
    }
    _write_json(payload, Path(args.report))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        artifacts, warnings, extra = args.func(args)
        if args.report:
            _write_report(args, artifacts, warnings, extra, time.monotonic() - started)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CodeSurvivalError, OSError) as exc:  # data errors and I/O failures
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
