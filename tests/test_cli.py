"""End-to-end subcommand behavior: outputs, artifacts, and exit codes."""

from __future__ import annotations

import csv
import importlib
import json
import multiprocessing
import tarfile
from pathlib import Path

import pytest

from codesurvival import cli, ingest
from codesurvival.cli import BOUNDS_SCHEMA, FIT_SCHEMA, REPORT_SCHEMA, main
from codesurvival.ingest import STORE_FILENAME, load_all_snapshots
from codesurvival.survival import MetricKind, read_curves_csv, write_curves_csv
from codesurvival.synth import analytic_family

from conftest import write_tree


def run(*argv):
    return main([str(a) for a in argv])


def synth_corpus(path, versions=5, lines=300, seed=1):
    assert run(
        "synth", "--A", 0.5, "--lambda", 0.2, "--versions", versions,
        "--lines", lines, "--seed", seed, "--out", path,
    ) == 0
    return path


def write_analytic_csv(path, lam, A, versions=20, group="cpp", metric=MetricKind.ULOC):
    family = analytic_family(A, lam, versions, group=group, metric=metric)
    write_curves_csv(family, path)
    return path


@pytest.fixture
def fitted_pair(tmp_path):
    """Fit JSONs for a uloc/file metric pair of the same group."""
    uloc_csv = write_analytic_csv(tmp_path / "uloc.csv", 0.0369, 0.777)
    file_csv = write_analytic_csv(tmp_path / "file.csv", 0.302, 0.869, metric=MetricKind.FILE)
    uloc_fit = tmp_path / "fit_uloc.json"
    file_fit = tmp_path / "fit_file.json"
    assert run("fit", "--curves", uloc_csv, "--group", "cpp", "--out", uloc_fit) == 0
    assert run(
        "fit", "--curves", file_csv, "--group", "cpp", "--metric", "file", "--out", file_fit
    ) == 0
    return uloc_fit, file_fit


# --- synth --------------------------------------------------------------------


def test_synth_writes_corpus_and_expectation(tmp_path, capsys):
    out = synth_corpus(tmp_path / "corpus")
    assert (out / "manifest.json").is_file()
    assert (out / "v000").is_dir()
    expected = (out / "expected.csv").read_text().splitlines()
    assert expected[0] == "offset,expected_changed_fraction"
    assert len(expected) == 6  # offsets 0..4
    assert "wrote 5 versions x 300 lines" in capsys.readouterr().out


def test_synth_rejects_bad_parameters(tmp_path, capsys):
    assert run("synth", "--A", 2.0, "--lambda", 0.2, "--versions", 5,
               "--lines", 100, "--out", tmp_path / "c") == 2
    assert "error:" in capsys.readouterr().err


def test_synth_is_deterministic(tmp_path):
    one = synth_corpus(tmp_path / "one")
    two = synth_corpus(tmp_path / "two")
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    for rel in files:
        assert (one / rel).read_bytes() == (two / rel).read_bytes()


# --- scan ---------------------------------------------------------------------


def test_scan_builds_the_store(tmp_path, capsys):
    corpus = synth_corpus(tmp_path / "corpus", versions=3)
    store = tmp_path / "store"
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 0
    out = capsys.readouterr().out
    assert "ordinal" in out and "uloc" in out
    assert sorted(p.name for p in store.iterdir()) == ["counts.csv", STORE_FILENAME]
    assert load_all_snapshots(store).labels == ["v0", "v1", "v2"]
    counts = (store / "counts.csv").read_text().splitlines()
    assert counts[0] == "ordinal,label,group,files,uloc,skipped"
    assert len(counts) == 4
    # Synthetic lines are unique tokens, so uloc equals the line budget.
    assert counts[1].split(",") == ["0", "v0", "syn", "20", "300", "0"]


def test_scan_missing_manifest(tmp_path, capsys):
    assert run("scan", "--manifest", tmp_path / "absent.json", "--store", tmp_path / "s") == 2
    assert "error:" in capsys.readouterr().err


def test_rescan_drops_stale_snapshots(tmp_path, capsys):
    store = tmp_path / "store"
    for versions in (6, 3):
        corpus = synth_corpus(tmp_path / f"corpus{versions}", versions=versions)
        assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 0
    assert sorted(p.name for p in store.iterdir()) == ["counts.csv", STORE_FILENAME]
    capsys.readouterr()
    assert run("curves", "--store", store, "--group", "syn",
               "--metric", "uloc", "--out", tmp_path / "c.csv") == 0
    assert "3 curve rows (2 baselines)" in capsys.readouterr().out


def truncate_into_archive(corpus: Path, k: int) -> str:
    """Point version k of a synth corpus at a .tar.gz of it cut in half."""
    manifest = json.loads((corpus / "manifest.json").read_text())
    # Synthetic lines are random tokens, so gzip cannot shrink them much.
    archive = corpus / f"v{k}.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        tar.add(corpus / manifest["versions"][k]["path"], arcname=".")
    whole = archive.read_bytes()
    archive.write_bytes(whole[: len(whole) // 2])
    manifest["versions"][k]["path"] = archive.name
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    return archive.name


def test_scan_truncated_archive_exits_2(tmp_path, capsys):
    corpus = synth_corpus(tmp_path / "corpus", versions=2, lines=4000)
    name = truncate_into_archive(corpus, 1)
    capsys.readouterr()
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert err.count("\n") == 1


def test_failed_rescan_leaves_the_store_as_it_was(tmp_path, capsys):
    store = tmp_path / "store"
    first = synth_corpus(tmp_path / "first", versions=4, lines=4000, seed=1)
    assert run("scan", "--manifest", first / "manifest.json", "--store", store) == 0
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    assert sorted(before) == ["counts.csv", STORE_FILENAME]
    # Another corpus whose versions 0-1 scan cleanly before version 2 fails.
    corpus = synth_corpus(tmp_path / "corpus", versions=4, lines=4000, seed=2)
    name = truncate_into_archive(corpus, 2)
    capsys.readouterr()
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and err.count("\n") == 1
    # Byte for byte the previous store, and no temporary file left over.
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before
    assert multiprocessing.active_children() == []


def test_scan_of_an_archive_deleted_after_the_manifest_exits_2(tmp_path, capsys, monkeypatch):
    corpus = synth_corpus(tmp_path / "corpus", versions=3, lines=400)
    # Version 1 becomes an archive; it is deleted before anything reads it.
    name = truncate_into_archive(corpus, 1)
    archive = corpus / name

    def load_then_delete(path):
        manifest = ingest.load_manifest(path)
        archive.unlink()
        return manifest

    monkeypatch.setattr(cli, "load_manifest", load_then_delete)
    capsys.readouterr()
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: snapshot source ") and name in err and err.count("\n") == 1
    assert not (tmp_path / "s" / STORE_FILENAME).exists()
    assert multiprocessing.active_children() == []


def test_scan_counts_csv_quotes_awkward_labels(tmp_path):
    corpus = synth_corpus(tmp_path / "corpus", versions=2)
    manifest = json.loads((corpus / "manifest.json").read_text())
    labels = ["1.0, beta", '2"q']
    for entry, label in zip(manifest["versions"], labels):
        entry["label"] = label
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    store = tmp_path / "store"
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 0
    with (store / "counts.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ordinal", "label", "group", "files", "uloc", "skipped"]
    assert [row[:3] for row in rows[1:]] == [["0", labels[0], "syn"], ["1", labels[1], "syn"]]


def test_scan_is_reproducible(tmp_path):
    corpus = synth_corpus(tmp_path / "corpus", versions=3)
    stores = []
    for name in ("s1", "s2"):
        store = tmp_path / name
        assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 0
        stores.append(store)
    for path in stores[0].iterdir():
        assert path.read_bytes() == (stores[1] / path.name).read_bytes()


# --- curves -------------------------------------------------------------------


def test_curves_emits_all_pairs(tmp_path, capsys):
    corpus = synth_corpus(tmp_path / "corpus", versions=5)
    store = tmp_path / "store"
    run("scan", "--manifest", corpus / "manifest.json", "--store", store)
    capsys.readouterr()
    out_csv = tmp_path / "curves.csv"
    assert run("curves", "--store", store, "--group", "syn",
               "--metric", "uloc", "--out", out_csv) == 0
    assert "10 curve rows (4 baselines)" in capsys.readouterr().out
    family = read_curves_csv(out_csv, group="syn")
    assert sum(len(c.points) for c in family.curves) == 10


def test_curves_unknown_group(tmp_path, capsys):
    corpus = synth_corpus(tmp_path / "corpus", versions=3)
    store = tmp_path / "store"
    run("scan", "--manifest", corpus / "manifest.json", "--store", store)
    assert run("curves", "--store", store, "--group", "js",
               "--metric", "uloc", "--out", tmp_path / "c.csv") == 2
    err = capsys.readouterr().err
    assert "js" in err and "syn" in err


def test_curves_refuses_mixed_digests(tmp_path, capsys):
    corpus = synth_corpus(tmp_path / "corpus", versions=2)
    store = tmp_path / "store"
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", store) == 0
    path = store / STORE_FILENAME
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    assert header["digest"] == "blake2b-128"
    header["digest"] = "sha256"
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    capsys.readouterr()
    out_csv = tmp_path / "c.csv"
    assert run("curves", "--store", store, "--group", "syn",
               "--metric", "uloc", "--out", out_csv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sha256" in err and "blake2b-128" in err
    assert not out_csv.exists()


def test_curves_refuses_a_format_1_store(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    for ordinal in range(2):
        (store / f"{ordinal:05d}_syn.snap").write_text(
            f"H 1 blake2b-128 {ordinal} v{ordinal} syn 0\n"
            f"F a.txt a.txt {'00' * 16}\n"
            f"L {'11' * 16}\n"
        )
    out_csv = tmp_path / "c.csv"
    assert run("curves", "--store", store, "--group", "syn",
               "--metric", "uloc", "--out", out_csv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "format 1" in err and "rescan" in err
    assert not out_csv.exists()


def test_curves_refuses_a_format_2_store(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    for ordinal in range(2):
        header = {"algorithm": "blake2b-128", "files": [["a.txt", "00" * 16]], "format": 2,
                  "group": "syn", "label": f"v{ordinal}", "lines": 1, "ordinal": ordinal,
                  "skipped": 0}
        (store / f"{ordinal:05d}_syn.snap").write_bytes(
            json.dumps(header).encode() + b"\n" + b"\x11" * 16
        )
    out_csv = tmp_path / "c.csv"
    for metric in ("uloc", "file"):
        assert run("curves", "--store", store, "--group", "syn",
                   "--metric", metric, "--out", out_csv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "format 1 or 2" in err and "rescan" in err
    assert not out_csv.exists()


def test_curves_missing_store(tmp_path, capsys):
    assert run("curves", "--store", tmp_path / "void", "--group", "syn",
               "--metric", "uloc", "--out", tmp_path / "c.csv") == 2
    assert "at least 2" in capsys.readouterr().err


# --- fit ----------------------------------------------------------------------


def test_fit_recovers_known_parameters(tmp_path, capsys):
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.0369, 0.777)
    out = tmp_path / "fit.json"
    assert run("fit", "--curves", csv_path, "--group", "cpp", "--out", out) == 0
    document = json.loads(out.read_text())
    assert document["schema_version"] == FIT_SCHEMA
    assert document["group"] == "cpp"
    assert document["metric"] == "uloc"
    assert document["plan"] == {"cut": 0, "exclude": [], "splits": [], "provenance": "manual"}
    (fit,) = document["fits"]
    assert fit["regime"] == "all"
    assert fit["A"] == pytest.approx(0.777, rel=1e-3)
    assert fit["lambda"] == pytest.approx(0.0369, rel=1e-3)
    assert fit["base_rate"] == pytest.approx(0.0287, rel=0.015)
    assert fit["converged"] is True
    assert fit["warnings"] == []
    table = capsys.readouterr().out
    assert "regime" in table and "all" in table and "0.0369" in table


def test_fit_reports_linear_regime(tmp_path, capsys):
    # lambda * n_max = 0.06 never bends; only the product is identified.
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.004, 2.5, versions=16)
    out = tmp_path / "fit.json"
    assert run("fit", "--curves", csv_path, "--group", "cpp", "--out", out) == 0
    (fit,) = json.loads(out.read_text())["fits"]
    assert "LinearRegime" in fit["warnings"]
    assert fit["base_rate"] == pytest.approx(0.01, rel=0.05)
    assert "LinearRegime" in capsys.readouterr().out


def test_fit_honors_plan(tmp_path):
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.1, 0.5, versions=10)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cut": 3, "group": "cpp", "metric": "uloc"}))
    out = tmp_path / "fit.json"
    assert run("fit", "--curves", csv_path, "--plan", plan, "--out", out) == 0
    document = json.loads(out.read_text())
    assert document["group"] == "cpp"  # taken from the plan
    assert document["plan"]["cut"] == 3
    (fit,) = document["fits"]
    assert fit["n_points"] == sum(9 - i for i in range(3, 9))


def test_fit_splits_produce_one_fit_per_regime(tmp_path):
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.1, 0.5, versions=20)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"splits": [10]}))
    out = tmp_path / "fit.json"
    assert run("fit", "--curves", csv_path, "--group", "cpp", "--plan", plan, "--out", out) == 0
    fits = json.loads(out.read_text())["fits"]
    assert [f["regime"] for f in fits] == ["v0-v9", "v10-v19"]
    for fit in fits:
        assert fit["A"] == pytest.approx(0.5, rel=1e-3)


def test_fit_plan_errors(tmp_path, capsys):
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.1, 0.5, versions=2)
    # The only pair spans the excluded version: nothing left to fit.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"exclude": [1]}))
    assert run("fit", "--curves", csv_path, "--plan", plan,
               "--out", tmp_path / "fit.json") == 3
    assert run("fit", "--curves", csv_path, "--plan", tmp_path / "absent.json",
               "--out", tmp_path / "fit.json") == 2
    assert run("fit", "--curves", tmp_path / "absent.csv",
               "--out", tmp_path / "fit.json") == 2
    capsys.readouterr()


def _write_manifest(tmp_path, payload):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    return ("scan", "--manifest", path, "--store", tmp_path / "store")


def _write_plan(tmp_path, payload):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    curves = write_analytic_csv(tmp_path / "c.csv", 0.1, 0.5, versions=5)
    return ("fit", "--curves", curves, "--plan", path, "--out", tmp_path / "fit.json")


def _write_curves(tmp_path, insert_at, row):
    path = write_analytic_csv(tmp_path / "c.csv", 0.1, 0.5, versions=5)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:insert_at] + [row] + lines[insert_at:]))
    return ("fit", "--curves", path, "--out", tmp_path / "fit.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda t: _write_plan(t, []), "p.json"),
        (lambda t: _write_plan(t, {"cut": 2.5}), "p.json: cut must be an integer, got 2.5"),
        (lambda t: _write_plan(t, {"cut": True}), "cut must be an integer, got True"),
        (lambda t: _write_plan(t, {"exclude": [3.9]}), "exclude entry must be an integer, got 3.9"),
        (lambda t: _write_plan(t, {"splits": ["4"]}), "splits entry must be an integer, got '4'"),
        (lambda t: _write_plan(t, {"metric": 5}), "p.json: metric must be a string, got 5"),
        (lambda t: _write_plan(t, {"group": 7}), "p.json: group must be a string, got 7"),
        (lambda t: _write_plan(t, {"software": [1]}), "p.json: software must be a string, got [1]"),
        (lambda t: _write_plan(t, {"provenance": None}), "p.json: provenance must be a string, got None"),
        (lambda t: _write_plan(t, {"notes": {}}), "p.json: notes must be a string, got {}"),
        (lambda t: _write_manifest(t, 5), "m.json"),
        (
            lambda t: _write_manifest(t, {"software": "s", "groups": [], "versions": 5}),
            "versions",
        ),
        (
            lambda t: _write_manifest(
                t, {"software": "s", "groups": [], "versions": [{"label": "v", "path": ".", "date": 5}]}
            ),
            "invalid date",
        ),
        (
            lambda t: _write_manifest(
                t, {"software": "s", "groups": [], "versions": [{"label": 5, "path": "."}]}
            ),
            "m.json: version entry 0 has label 5",
        ),
        (lambda t: _write_curves(t, 3, "0,v0,10\n"), "c.csv:4"),
        (lambda t: _write_curves(t, 2, "\n"), "c.csv:3"),
        (lambda t: _write_curves(t, 3, "0,v0,10,1,abc\n"), "c.csv:4"),
    ],
    ids=[
        "plan-not-object",
        "plan-cut-float",
        "plan-cut-bool",
        "plan-exclude-float",
        "plan-split-string",
        "plan-metric-int",
        "plan-group-int",
        "plan-software-list",
        "plan-provenance-null",
        "plan-notes-object",
        "manifest-not-object",
        "versions-not-list",
        "date-not-string",
        "label-not-string",
        "short-row",
        "blank-row",
        "non-numeric-field",
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, message):
    args = argv(tmp_path)
    capsys.readouterr()
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# --- bounds -------------------------------------------------------------------


def test_bounds_pairs_fits(tmp_path, fitted_pair, capsys):
    uloc_fit, file_fit = fitted_pair
    capsys.readouterr()
    out = tmp_path / "bounds"
    assert run("bounds", "--fit-uloc", uloc_fit, "--fit-file", file_fit,
               "--horizon", 10, "--out", out) == 0
    printed = capsys.readouterr().out
    assert printed.count("\nall") == 11  # offsets 0..10
    csv_rows = (tmp_path / "bounds.all.csv").read_text().splitlines()
    assert csv_rows[0] == "n,subtle_P,obvious_P"
    assert len(csv_rows) == 12
    last = csv_rows[-1].split(",")
    assert float(last[1]) == pytest.approx(0.23976245608011032, rel=1e-3)
    assert float(last[2]) == pytest.approx(0.8265917412434107, rel=1e-3)
    summary = json.loads((tmp_path / "bounds.all.json").read_text())
    assert summary["schema_version"] == BOUNDS_SCHEMA
    assert summary["bounds"]["group"] == "cpp"
    # A=0.777 crosses 0.5 around n = -ln(1 - 0.5/0.777)/0.0369 = 27.9.
    assert summary["subtle_persistence"]["median_crossing"] == 28
    assert summary["obvious_persistence"]["median_crossing"] == 3


def test_bounds_horizon_zero(tmp_path, fitted_pair, capsys):
    uloc_fit, file_fit = fitted_pair
    capsys.readouterr()
    out = tmp_path / "b0"
    assert run("bounds", "--fit-uloc", uloc_fit, "--fit-file", file_fit,
               "--horizon", 0, "--out", out) == 0
    assert len((tmp_path / "b0.all.csv").read_text().splitlines()) == 2
    summary = json.loads((tmp_path / "b0.all.json").read_text())
    assert summary["subtle_persistence"] is None


def test_bounds_missing_fit_file(tmp_path, fitted_pair, capsys):
    uloc_fit, _ = fitted_pair
    assert run("bounds", "--fit-uloc", uloc_fit, "--fit-file", tmp_path / "absent.json",
               "--horizon", 5, "--out", tmp_path / "b") == 2
    capsys.readouterr()


def test_bounds_requires_shared_regimes(tmp_path, capsys):
    csv_path = write_analytic_csv(tmp_path / "u.csv", 0.1, 0.5, versions=20)
    split_plan = tmp_path / "plan.json"
    split_plan.write_text(json.dumps({"splits": [10]}))
    split_fit = tmp_path / "split.json"
    run("fit", "--curves", csv_path, "--group", "cpp", "--plan", split_plan, "--out", split_fit)
    plain_fit = tmp_path / "plain.json"
    run("fit", "--curves", csv_path, "--group", "cpp", "--out", plain_fit)
    assert run("bounds", "--fit-uloc", split_fit, "--fit-file", plain_fit,
               "--horizon", 5, "--out", tmp_path / "b") == 3
    assert "no regime label" in capsys.readouterr().err


def test_bounds_rejects_group_mismatch(tmp_path, capsys):
    uloc_csv = write_analytic_csv(tmp_path / "u.csv", 0.1, 0.5)
    file_csv = write_analytic_csv(tmp_path / "f.csv", 0.3, 0.9, metric=MetricKind.FILE)
    cpp_fit, js_fit = tmp_path / "cpp.json", tmp_path / "js.json"
    run("fit", "--curves", uloc_csv, "--group", "cpp", "--out", cpp_fit)
    run("fit", "--curves", file_csv, "--group", "js", "--metric", "file", "--out", js_fit)
    assert run("bounds", "--fit-uloc", cpp_fit, "--fit-file", js_fit,
               "--horizon", 5, "--out", tmp_path / "b") == 2
    assert "different groups" in capsys.readouterr().err


def test_bounds_warns_when_clamped(tmp_path, capsys):
    uloc_csv = write_analytic_csv(tmp_path / "u.csv", 0.05, 0.5)
    linear_csv = write_analytic_csv(tmp_path / "f.csv", 0.004, 2.5, metric=MetricKind.FILE)
    uloc_fit, linear_fit = tmp_path / "u.json", tmp_path / "f.json"
    run("fit", "--curves", uloc_csv, "--group", "cpp", "--out", uloc_fit)
    run("fit", "--curves", linear_csv, "--group", "cpp", "--metric", "file", "--out", linear_fit)
    capsys.readouterr()
    assert run("bounds", "--fit-uloc", uloc_fit, "--fit-file", linear_fit,
               "--horizon", 500, "--out", tmp_path / "b") == 0
    assert "clamped" in capsys.readouterr().err


# --- run reports ----------------------------------------------------------------


def test_report_records_the_run(tmp_path):
    corpus = synth_corpus(tmp_path / "corpus", versions=3)
    store = tmp_path / "store"
    report = tmp_path / "report.json"
    assert run("scan", "--manifest", corpus / "manifest.json", "--store", store,
               "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == REPORT_SCHEMA
    assert payload["command"] == "scan"
    assert payload["tool_version"]
    assert payload["manifest_digest"]
    assert isinstance(payload["timings"]["wall_seconds"], float)
    assert "report" not in payload["config"]
    assert payload["config"]["store"] == str(store)
    assert payload["artifacts"] == [str(store / "counts.csv"), str(store / STORE_FILENAME)]
    for artifact in payload["artifacts"]:
        assert Path(artifact).exists()


def test_scan_report_counts_the_work(tmp_path):
    tree = {"a.cpp": "int a;\nint b;\n", "src/b.cpp": "int b;\r\nint c;\n"}
    for label in ("v1", "v2"):
        write_tree(tmp_path / label, tree)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "software": "demo",
        "groups": [{"name": "cpp", "extensions": [".cpp"]}, {"name": "h", "extensions": [".h"]}],
        "versions": [{"label": label, "path": label} for label in ("v1", "v2")],
    }))
    report = tmp_path / "report.json"
    assert run("scan", "--manifest", manifest, "--store", tmp_path / "store", "--report", report) == 0
    # v2 is v1 again: both its files are reused and none of its lines digested.
    assert json.loads(report.read_text())["scan"] == {
        "cpp": {"files": 4, "files_reused": 2, "lines": 8, "lines_digested": 3,
                "memo_lines_max": 3, "index_rows": 3},
        "h": {"files": 0, "files_reused": 0, "lines": 0, "lines_digested": 0,
              "memo_lines_max": 0, "index_rows": 0},
    }


def test_report_on_fit(tmp_path):
    csv_path = write_analytic_csv(tmp_path / "curves.csv", 0.1, 0.5)
    report = tmp_path / "report.json"
    assert run("fit", "--curves", csv_path, "--group", "cpp",
               "--out", tmp_path / "fit.json", "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["seed"] == 0
    assert payload["artifacts"] == [str(tmp_path / "fit.json")]


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


# --- the benchmark's tracing contract ------------------------------------------
#
# perfbench/tracing.py swaps these functions for timed wrappers during a
# traced pass and reads what they return; a rename or a lazy import
# would leave a span unrecorded.


def test_traced_entry_points_are_module_globals(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing._patch_targets():
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"

    corpus = synth_corpus(tmp_path / "corpus", versions=3)
    calls = []
    for name in ("scan_version", "store_snapshot"):
        original = getattr(ingest, name)
        monkeypatch.setattr(
            ingest, name, lambda *a, _name=name, _f=original, **k: calls.append(_name) or _f(*a, **k)
        )
    manifest = ingest.load_manifest(corpus / "manifest.json")
    snaps = list(ingest.scan_corpus(manifest, tmp_path / "store"))
    assert calls == ["scan_version", "store_snapshot"] * 3

    payload = snaps[0].group(manifest.groups[0].name)
    assert payload.files and all(
        isinstance(r.relpath, str) and len(r.content_digest) == 16 for r in payload.files
    )
    assert isinstance(payload.uloc, frozenset) and len(payload.uloc) == payload.uloc_count
    assert all(isinstance(d, bytes) and len(d) == 16 for d in payload.uloc)

    monkeypatch.undo()
    source = manifest.versions[0].source
    alone = ingest.scan_version(source, [manifest.groups[0]])
    assert alone.group(manifest.groups[0].name).uloc == payload.uloc
    blob = next(p for p in sorted(source.rglob("*")) if p.is_file()).read_bytes()
    assert len(ingest.normalize_lines(blob)) == blob.count(b"\n")
