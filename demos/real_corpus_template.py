#!/usr/bin/env python3
"""Template for analyzing a real release history you have on disk.

The tool never downloads anything: you collect release archives (or
unpacked trees), describe them in a manifest.json, and run the pipeline.
This script builds a three-release stand-in corpus so it can execute
end to end; point MANIFEST at your own file and delete the stand-in
block to use it for real.

Equivalent CLI session:

    codesurvival scan --manifest corpus/manifest.json --store store/
    codesurvival curves --store store/ --group c --metric uloc --out curves.csv
    codesurvival fit --curves curves.csv --plan plans/myproject_c_uloc.json --out fit.json
    codesurvival bounds --fit-uloc fit.json --fit-file fit_file.json --horizon 10 --out bounds
"""

import json
import tempfile
from pathlib import Path

from codesurvival.curves import MetricKind
from codesurvival.fitting import fit_saturation
from codesurvival.ingest import load_manifest, scan_corpus
from codesurvival.screening import ScreeningPlan, apply_plan, detect_jumps
from codesurvival.survival import build_curve_family

STAND_IN = {
    "v1.0": {"src/main.c": "int a;\nint b;\nint c;\n", "src/util.h": "#define U 1\n"},
    "v1.1": {"src/main.c": "int a;\nint b2;\nint c;\n", "src/util.h": "#define U 1\n"},
    "v1.2": {"src/main.c": "int a;\nint b3;\nint c9;\n", "src/util.h": "#define U 2\n"},
}


def write_stand_in(root: Path) -> Path:
    """Real corpora: skip this and write manifest.json by hand."""
    versions = []
    for i, (label, files) in enumerate(STAND_IN.items()):
        vdir = root / f"rel{i}"
        for relpath, text in files.items():
            path = vdir / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        versions.append({"label": label, "path": vdir.name})
    manifest = {
        "software": "myproject",
        # Group files by extension; a file belongs to the longest matching
        # suffix. Tar archives (.tar, .tar.gz, ...) work as version paths too.
        "groups": [
            {"name": "c", "extensions": [".c"]},
            {"name": "h", "extensions": [".h"]},
        ],
        "versions": versions,
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = write_stand_in(Path(tmp))
        manifest = load_manifest(manifest_path)
        store = Path(tmp) / "store"
        list(scan_corpus(manifest, store))

        for group in ("c", "h"):
            family = build_curve_family(store, group, MetricKind.ULOC)
            for curve in family.curves:
                print(f"group {group} baseline {curve.baseline_label}: {curve.points}")
            # Real histories: screen before fitting and record the plan.
            for event in detect_jumps(family, abs_threshold=0.3):
                print(f"  would exclude ordinal {event.ordinal} ({event.classification})")

        # Three versions give three points: enough to run the machinery,
        # far too few to trust. Real histories want 15+ releases.
        family = build_curve_family(store, "c", MetricKind.ULOC)
        (points,) = apply_plan(family, ScreeningPlan())
        result = fit_saturation(points.points)
        print(f"toy fit (do not trust 3 points): A={result.params.A:.3f} lambda={result.params.lam:.4f}")


if __name__ == "__main__":
    main()
