"""Changed-fraction measurement between version pairs and curve families."""

from __future__ import annotations

import hashlib
import random

import pytest

from codesurvival.ingest import (
    ExtensionGroup,
    VersionSnapshot,
    load_all_snapshots,
    scan_version,
)
from codesurvival.survival import (
    CURVES_CSV_HEADER,
    ChangeCurve,
    CurveFamily,
    MetricKind,
    build_curve_family,
    read_curves_csv,
    write_curves_csv,
)
from conftest import (
    indexed_uloc,
    random_corpus_history,
    raw_file_fraction,
    raw_uloc_fraction,
    write_snapshots,
    write_tree,
)

X = ExtensionGroup(name="x", extensions=(".x",))
Y = ExtensionGroup(name="y", extensions=(".y",))


def snap(tree_writer, files, subdir, ordinal=0):
    return scan_version(tree_writer(files, subdir), [X, Y], label=subdir, ordinal=ordinal)


# --- one baseline and one later version -------------------------------------


def pair_fraction(base, later, group, metric):
    """The only changed fraction of the family built from two versions."""
    family = build_curve_family([base, later], group, metric)
    [curve] = family.curves
    [(_, fraction)] = curve.points
    return fraction


def test_uloc_fraction_counts_missing_lines(tree_writer):
    base = snap(tree_writer, {"a.x": "a\nb\nc\nd\n"}, "v0")
    later = snap(tree_writer, {"a.x": "a\nb\nnew\nalso new\nmore\n"}, "v1")
    # 2 of 4 baseline lines survive; later growth is irrelevant.
    assert pair_fraction(base, later, "x", MetricKind.ULOC) == 0.5


def test_uloc_fraction_pools_lines_across_files(tree_writer):
    base = snap(tree_writer, {"a.x": "a\nb\n", "b.x": "b\nc\n"}, "v0")
    later = snap(tree_writer, {"other.x": "c\n"}, "v1")
    # Baseline uloc is {a, b, c}; only c survives, wherever it lives.
    assert pair_fraction(base, later, "x", MetricKind.ULOC) == pytest.approx(2.0 / 3.0)


def test_uloc_identical_versions_change_nothing(tree_writer):
    base = snap(tree_writer, {"a.x": "a\nb\n"}, "v0")
    later = snap(tree_writer, {"a.x": "a\nb\n"}, "v1")
    assert pair_fraction(base, later, "x", MetricKind.ULOC) == 0.0


def test_uloc_empty_baseline_is_an_error(tree_writer):
    base = snap(tree_writer, {"a.x": ""}, "v0")
    later = snap(tree_writer, {"a.x": "a\n"}, "v1")
    family = build_curve_family([base, later], "x", MetricKind.ULOC)
    assert family.curves == ()
    assert family.warnings == ("baseline 'v0' omitted: version 'v0' group 'x' has an empty uloc set",)


def test_file_fraction_semantics(tree_writer):
    base = snap(
        tree_writer,
        {
            "kept.x": "k\n",
            "old.x": "r\n",
            "deep/moved.x": "m\n",
            "edit.x": "before\n",
            "gone.x": "g\n",
        },
        "v0",
    )
    later = snap(
        tree_writer,
        {
            "kept.x": "k\n",
            "new.x": "r\n",          # renamed: changed
            "elsewhere/moved.x": "m\n",  # moved: unchanged
            "edit.x": "after\n",     # edited: changed
        },
        "v1",
    )
    # kept and moved survive; renamed, edited, deleted do not.
    assert pair_fraction(base, later, "x", MetricKind.FILE) == pytest.approx(3.0 / 5.0)


def test_file_fraction_denominator_is_baseline_size(tree_writer):
    base = snap(tree_writer, {"a.x": "a\n"}, "v0")
    later = snap(tree_writer, {"a.x": "a\n", "b.x": "b\n", "c.x": "c\n"}, "v1")
    assert pair_fraction(base, later, "x", MetricKind.FILE) == 0.0


def test_file_fraction_any_duplicate_copy_counts(tree_writer):
    base = snap(tree_writer, {"a/f.x": "one\n"}, "v0")
    later = snap(tree_writer, {"b/f.x": "two\n", "c/f.x": "one\n"}, "v1")
    # Path is ignored, so the c/ copy preserves the baseline file.
    assert pair_fraction(base, later, "x", MetricKind.FILE) == 0.0


def test_file_empty_baseline_is_an_error(tree_writer):
    base = snap(tree_writer, {"a.y": "y\n"}, "v0")
    later = snap(tree_writer, {"a.x": "a\n"}, "v1")
    family = build_curve_family([base, later], "x", MetricKind.FILE)
    assert family.curves == ()
    assert family.warnings == ("baseline 'v0' omitted: version 'v0' group 'x' has no files",)


def test_groups_are_independent(tree_writer):
    base = snap(tree_writer, {"a.x": "a\n", "a.y": "p\nq\n"}, "v0")
    later = snap(tree_writer, {"a.x": "a\n", "a.y": "p\nz\n"}, "v1")
    assert pair_fraction(base, later, "x", MetricKind.ULOC) == 0.0
    assert pair_fraction(base, later, "y", MetricKind.ULOC) == 0.5


# --- curve families ----------------------------------------------------------


def test_reintroduced_lines_count_as_present(tree_writer):
    snaps = [
        snap(tree_writer, {"a.x": "a\nb\n"}, "v0", 0),
        snap(tree_writer, {"a.x": "a\n"}, "v1", 1),
        snap(tree_writer, {"a.x": "a\nb\n"}, "v2", 2),
    ]
    family = build_curve_family(snaps, "x", MetricKind.ULOC)
    # Pairs are compared independently: b is back at offset 2.
    assert family.curves[0].points == ((1, 0.5), (2, 0.0))


def test_family_has_all_version_pairs(tree_writer):
    snaps = [
        snap(tree_writer, {"a.x": f"line {i}\ncommon\n"}, f"v{i}", i) for i in range(5)
    ]
    family = build_curve_family(snaps, "x", MetricKind.ULOC, software="demo")
    assert family.software == "demo"
    assert [c.baseline_ordinal for c in family.curves] == [0, 1, 2, 3]
    assert [len(c.points) for c in family.curves] == [4, 3, 2, 1]
    assert all(p == 0.5 for curve in family.curves for _, p in curve.points)
    assert family.curves[0].baseline_size == 2


def test_family_omits_empty_baselines_with_warning(tree_writer):
    snaps = [
        snap(tree_writer, {"a.x": ""}, "v0", 0),
        snap(tree_writer, {"a.x": "a\n"}, "v1", 1),
        snap(tree_writer, {"a.x": "a\nb\n"}, "v2", 2),
    ]
    family = build_curve_family(snaps, "x", MetricKind.ULOC)
    assert [c.baseline_ordinal for c in family.curves] == [1]
    assert len(family.warnings) == 1
    assert "v0" in family.warnings[0]


def test_family_missing_group_is_a_key_error(tree_writer):
    snaps = [snap(tree_writer, {"a.x": "a\n"}, f"v{i}", i) for i in range(3)]
    snaps[2] = VersionSnapshot("v2", 2, {"y": snaps[2].group("y")})
    for metric in MetricKind:
        with pytest.raises(KeyError, match="no group 'x'"):
            build_curve_family(snaps, "x", metric)


def test_family_needs_two_versions(tree_writer):
    only = snap(tree_writer, {"a.x": "a\n"}, "v0")
    with pytest.raises(ValueError, match="at least 2"):
        build_curve_family([only], "x", MetricKind.ULOC)


def test_family_from_store_directory(tree_writer, tmp_path):
    store = tmp_path / "store"
    write_snapshots(
        [snap(tree_writer, {"a.x": text}, f"v{i}", i) for i, text in enumerate(["a\nb\n", "a\n", "c\n"])],
        store,
    )
    family = build_curve_family(store, "x", MetricKind.ULOC)
    assert family.curves[0].points == ((1, 0.5), (2, 1.0))


def test_digest_ending_in_nul_survives_store_and_kernel(tree_writer, tmp_path):
    # numpy drops trailing NULs when an S item becomes bytes; the store
    # and the kernel must keep every digest at full width.
    line = next(
        f"line {i}" for i in range(100_000)
        if hashlib.blake2b(f"line {i}".encode(), digest_size=16).digest()[-1] == 0
    )
    digest = hashlib.blake2b(line.encode(), digest_size=16).digest()
    store = tmp_path / "store"
    snaps = [
        snap(tree_writer, {"a.x": text}, f"v{i}", i)
        for i, text in enumerate([f"{line}\nother\n", f"{line}\n", "other\n"])
    ]
    assert digest in snaps[0].group("x").uloc
    write_snapshots(snaps, store)
    loaded = load_all_snapshots(store).group("x")
    assert indexed_uloc(loaded, 0) == snaps[0].group("x").uloc
    assert indexed_uloc(loaded, 1) == {digest}
    family = build_curve_family(store, "x", MetricKind.ULOC)
    assert [c.points for c in family.curves] == [((1, 0.5), (2, 0.5)), ((1, 1.0),)]
    assert family == build_curve_family(snaps, "x", MetricKind.ULOC)


def test_change_curve_validation():
    with pytest.raises(ValueError, match="contiguous"):
        ChangeCurve(0, "v0", ((2, 0.1),), 10)
    with pytest.raises(ValueError, match="out of range"):
        ChangeCurve(0, "v0", ((1, 1.5),), 10)
    curve = ChangeCurve(0, "v0", ((1, 0.25), (2, 0.5)), 10)
    assert curve.fraction_at(2) == 0.5


def test_curve_family_rejects_duplicate_baselines():
    curve = ChangeCurve(0, "v0", ((1, 0.1),), 5)
    with pytest.raises(ValueError, match="duplicate"):
        CurveFamily("demo", "x", MetricKind.ULOC, (curve, curve))


# --- CSV round trip ----------------------------------------------------------


def test_curves_csv_round_trip(tree_writer, tmp_path):
    snaps = [
        snap(tree_writer, {"a.x": "a\nb\nc\n"}, "v0", 0),
        snap(tree_writer, {"a.x": "a\nd\n"}, "v1", 1),
        snap(tree_writer, {"a.x": "e\n"}, "v2", 2),
    ]
    family = build_curve_family(snaps, "x", MetricKind.ULOC, software="demo")
    path = tmp_path / "curves.csv"
    write_curves_csv(family, path)
    loaded = read_curves_csv(path, group="x", metric=MetricKind.ULOC, software="demo")
    assert len(loaded.curves) == len(family.curves)
    for got, want in zip(loaded.curves, family.curves):
        assert got.baseline_ordinal == want.baseline_ordinal
        assert got.baseline_label == want.baseline_label
        assert got.baseline_size == want.baseline_size
        assert got.points == want.points  # repr() emission makes this exact


def test_curves_csv_names_the_line_of_a_non_numeric_field(tmp_path):
    path = tmp_path / "curves.csv"
    header = ",".join(CURVES_CSV_HEADER)
    for row in ("0,v0,10,1,abc", "0,v0,ten,1,0.5", "x,v0,10,1,0.5", "0,v0,10,1.5,0.5"):
        path.write_text(f"{header}\n0,v0,10,1,0.25\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"curves\.csv:3: .*not a number"):
            read_curves_csv(path)


def test_curves_csv_header_is_checked(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("wrong,header\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_curves_csv(path)


# --- randomized cross-check against the raw-string oracle --------------------


def test_fractions_match_brute_force_oracle(tmp_path):
    rng = random.Random(20260814)
    for corpus_id in range(10):
        history = random_corpus_history(rng, versions=5)
        snaps = []
        for i, tree in enumerate(history):
            root = tmp_path / f"c{corpus_id}" / f"v{i}"
            root.mkdir(parents=True)
            write_tree(root, tree)
            snaps.append(scan_version(root, [X, Y], label=f"v{i}", ordinal=i))
        for group, ext in (("x", ".x"), ("y", ".y")):
            for metric, oracle in (
                (MetricKind.ULOC, raw_uloc_fraction),
                (MetricKind.FILE, raw_file_fraction),
            ):
                family = build_curve_family(snaps, group, metric)
                by_ordinal = {c.baseline_ordinal: c for c in family.curves}
                for i, base in enumerate(history[:-1]):
                    expected = [oracle(base, later, ext) for later in history[i + 1 :]]
                    if expected[0] is None:
                        assert i not in by_ordinal
                        continue
                    got = [p for _, p in by_ordinal[i].points]
                    assert got == expected  # exact: identical integer divisions


def _edge_case_history(rng: random.Random, versions: int) -> list[dict[str, str]]:
    """A random history with empty y groups and same-content basename copies."""
    history = random_corpus_history(rng, versions)
    for i, tree in enumerate(history):
        if i % 4 == 0:
            # An empty baseline, and an empty later version for earlier ones.
            for rel in [r for r in tree if r.endswith(".y")]:
                del tree[rel]
        if i % 3 == 0:
            for rel in [r for r in tree if r.endswith(".x")][:2]:
                tree["dup/" + rel.split("/")[-1]] = tree[rel]
            tree["dup/same.x"] = tree["lib/same.x"] = f"shared {i // 6}\n"
    return history


@pytest.mark.parametrize("versions", [2, 8, 9, 64, 65, 70])
def test_all_pairs_kernel_matches_oracle(tmp_path, versions):
    # 8/9 and 64/65 straddle a presence-mask byte and a 64-bit word.
    rng = random.Random(versions)
    history = _edge_case_history(rng, versions)
    snaps = []
    for i, tree in enumerate(history):
        root = tmp_path / f"v{i}"
        root.mkdir()  # the tree may be empty
        snaps.append(scan_version(write_tree(root, tree), [X, Y], label=f"v{i}", ordinal=i))
    assert any(rel.startswith("dup/") for tree in history for rel in tree)
    for group, ext in (("x", ".x"), ("y", ".y")):
        for metric, oracle in (
            (MetricKind.ULOC, raw_uloc_fraction),
            (MetricKind.FILE, raw_file_fraction),
        ):
            family = build_curve_family(snaps, group, metric)
            by_ordinal = {c.baseline_ordinal: c for c in family.curves}
            omitted = []
            for i, base in enumerate(history[:-1]):
                expected = [oracle(base, later, ext) for later in history[i + 1 :]]
                if expected[0] is None:
                    assert i not in by_ordinal
                    omitted.append(f"baseline 'v{i}' omitted")
                    continue
                assert [p for _, p in by_ordinal[i].points] == expected
            assert [w.split(":")[0] for w in family.warnings] == omitted
    # Group y is empty in v0, so its first curve is always omitted.
    assert build_curve_family(snaps, "y", MetricKind.FILE).warnings
