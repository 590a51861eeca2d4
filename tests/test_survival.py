"""Changed-fraction measurement between version pairs and curve families."""

from __future__ import annotations

import hashlib
import random
import struct

import numpy as np
import pytest

from codesurvival import ingest, survival
from codesurvival.curves import (
    CURVES_CSV_HEADER,
    ChangeCurve,
    CurveFamily,
    MetricKind,
    read_curves_csv,
    write_curves_csv,
)
from codesurvival.errors import UsageError
from codesurvival.ingest import ExtensionGroup
from codesurvival.store import GroupIndex, GroupVersion, KeySet, LifetimeIndex, load_all_snapshots, write_store
from codesurvival.survival import build_curve_family
from conftest import (
    file_row_digest,
    indexed_rows,
    random_corpus_history,
    raw_file_fraction,
    raw_uloc_fraction,
    row_versions,
    scan_sources,
)

# One group per extension: "x" and "y".
XY = (".x", ".y")


def family_of(root, trees, group, metric, **kwargs):
    """The curve family of a group, from a store of these trees as versions v0, v1, ..."""
    _, _, store = scan_sources(root, trees, XY)
    return build_curve_family(store, group, metric, **kwargs)


# --- one baseline and one later version -------------------------------------


def pair_fraction(root, base, later, group, metric):
    """The only changed fraction of the family built from two versions."""
    family = family_of(root, [base, later], group, metric)
    [curve] = family.curves
    [(_, fraction)] = curve.points
    return fraction


def test_uloc_fraction_counts_missing_lines(tmp_path):
    base = {"a.x": "a\nb\nc\nd\n"}
    later = {"a.x": "a\nb\nnew\nalso new\nmore\n"}
    # 2 of 4 baseline lines survive; later growth is irrelevant.
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.ULOC) == 0.5


def test_uloc_fraction_pools_lines_across_files(tmp_path):
    base = {"a.x": "a\nb\n", "b.x": "b\nc\n"}
    later = {"other.x": "c\n"}
    # Baseline uloc is {a, b, c}; only c survives, wherever it lives.
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.ULOC) == pytest.approx(2.0 / 3.0)


def test_uloc_identical_versions_change_nothing(tmp_path):
    tree = {"a.x": "a\nb\n"}
    assert pair_fraction(tmp_path, tree, tree, "x", MetricKind.ULOC) == 0.0


def test_uloc_empty_baseline_is_an_error(tmp_path):
    family = family_of(tmp_path, [{"a.x": ""}, {"a.x": "a\n"}], "x", MetricKind.ULOC)
    assert family.curves == ()
    assert family.warnings == ("baseline 'v0' omitted: version 'v0' group 'x' has an empty uloc set",)


def test_file_fraction_semantics(tmp_path):
    base = {
        "kept.x": "k\n",
        "old.x": "r\n",
        "deep/moved.x": "m\n",
        "edit.x": "before\n",
        "gone.x": "g\n",
    }
    later = {
        "kept.x": "k\n",
        "new.x": "r\n",          # renamed: changed
        "elsewhere/moved.x": "m\n",  # moved: unchanged
        "edit.x": "after\n",     # edited: changed
    }
    # kept and moved survive; renamed, edited, deleted do not.
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.FILE) == pytest.approx(3.0 / 5.0)


def test_file_fraction_denominator_is_baseline_size(tmp_path):
    base = {"a.x": "a\n"}
    later = {"a.x": "a\n", "b.x": "b\n", "c.x": "c\n"}
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.FILE) == 0.0


def test_file_fraction_any_duplicate_copy_counts(tmp_path):
    base = {"a/f.x": "one\n"}
    later = {"b/f.x": "two\n", "c/f.x": "one\n"}
    # Path is ignored, so the c/ copy preserves the baseline file.
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.FILE) == 0.0


def test_file_empty_baseline_is_an_error(tmp_path):
    family = family_of(tmp_path, [{"a.y": "y\n"}, {"a.x": "a\n"}], "x", MetricKind.FILE)
    assert family.curves == ()
    assert family.warnings == ("baseline 'v0' omitted: version 'v0' group 'x' has no files",)


def test_groups_are_independent(tmp_path):
    base = {"a.x": "a\n", "a.y": "p\nq\n"}
    later = {"a.x": "a\n", "a.y": "p\nz\n"}
    assert pair_fraction(tmp_path, base, later, "x", MetricKind.ULOC) == 0.0
    assert pair_fraction(tmp_path, base, later, "y", MetricKind.ULOC) == 0.5


# --- the files key set -------------------------------------------------------


def b2(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def stored_files(root, trees):
    """The file family of group x from a store of the trees, and the store's files key set."""
    _, _, store = scan_sources(root, trees, XY)
    return build_curve_family(store, "x", MetricKind.FILE), load_all_snapshots(store).group("x").files


def test_files_key_set_keeps_records_that_share_a_key(tmp_path):
    trees = [
        {"a/f.x": "1\n", "b/f.x": "1\n", "c/g.x": "2\n"},
        {"a/f.x": "1\n"},
        {"b/f.x": "1\n", "c/g.x": "2\n"},
    ]
    family, files = stored_files(tmp_path, trees)
    # Both f.x copies of v0 are in v1 by key; g.x is not.
    assert [(c.baseline_size, c.points) for c in family.curves] == [
        (3, ((1, 1.0 - 2 / 3), (2, 0.0))),
        (1, ((1, 0.0),)),
    ]
    assert row_versions(files) == {
        file_row_digest("a/f.x", b2(b"1\n")): [0, 1],
        file_row_digest("b/f.x", b2(b"1\n")): [0, 2],
        file_row_digest("c/g.x", b2(b"2\n")): [0, 2],
    }
    # The f.x rows, a/f.x's run and b/f.x's two, share their first 16
    # bytes, the key.  They are not adjacent in life order, so the multi
    # section lists all three under the key's number, and g.x's two runs
    # under the other's; shared keys are numbered in digest order.
    raw = files.digests.tobytes()
    keys = [raw[k * 32 : k * 32 + 16] for k in range(files.rows)]
    f, g = b2(b"f.x\0" + b2(b"1\n")), b2(b"g.x\0" + b2(b"2\n"))
    assert keys.count(f) == 3 and keys.count(g) == 2
    n_f, n_g = (0, 1) if f < g else (1, 0)
    assert sorted(struct.iter_unpack("<IHH", files.section("multi"))) == sorted(
        [(n_f, 0, 1), (n_f, 0, 2), (n_f, 2, 3), (n_g, 0, 1), (n_g, 2, 3)]
    )


def test_files_key_set_merges_a_revived_file(tmp_path):
    family, files = stored_files(tmp_path, [{"a.x": "1\n"}, {"b.x": "2\n"}, {"a.x": "1\n"}])
    assert [c.points for c in family.curves] == [((1, 1.0), (2, 0.0)), ((1, 1.0),)]
    # a.x took a second row in v2, and the store keeps both, one per run, in life order.
    assert files.runs.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert row_versions(files) == {
        file_row_digest("a.x", b2(b"1\n")): [0, 2],
        file_row_digest("b.x", b2(b"2\n")): [1],
    }


def test_files_key_set_moved_and_renamed_files(tmp_path):
    trees = [{"src/a.x": "1\n", "b.x": "2\n"}, {"lib/a.x": "1\n", "c.x": "2\n"}]
    family, files = stored_files(tmp_path, trees)
    # The moved a.x survives; the renamed b.x does not.
    assert [c.points for c in family.curves] == [((1, 0.5),)]
    assert row_versions(files) == {
        file_row_digest("src/a.x", b2(b"1\n")): [0],
        file_row_digest("b.x", b2(b"2\n")): [0],
        file_row_digest("lib/a.x", b2(b"1\n")): [1],
        file_row_digest("c.x", b2(b"2\n")): [1],
    }


# --- curve families ----------------------------------------------------------


def test_reintroduced_lines_count_as_present(tmp_path):
    trees = [{"a.x": "a\nb\n"}, {"a.x": "a\n"}, {"a.x": "a\nb\n"}]
    family = family_of(tmp_path, trees, "x", MetricKind.ULOC)
    # Pairs are compared independently: b is back at offset 2.
    assert family.curves[0].points == ((1, 0.5), (2, 0.0))


def test_family_has_all_version_pairs(tmp_path):
    trees = [{"a.x": f"line {i}\ncommon\n"} for i in range(5)]
    family = family_of(tmp_path, trees, "x", MetricKind.ULOC, software="demo")
    assert family.software == "demo"
    assert [c.baseline_ordinal for c in family.curves] == [0, 1, 2, 3]
    assert [len(c.points) for c in family.curves] == [4, 3, 2, 1]
    assert all(p == 0.5 for curve in family.curves for _, p in curve.points)
    assert family.curves[0].baseline_size == 2


def test_family_omits_empty_baselines_with_warning(tmp_path):
    family = family_of(tmp_path, [{"a.x": ""}, {"a.x": "a\n"}, {"a.x": "a\nb\n"}], "x", MetricKind.ULOC)
    assert [c.baseline_ordinal for c in family.curves] == [1]
    assert len(family.warnings) == 1
    assert "v0" in family.warnings[0]


def test_family_missing_group_is_a_usage_error(tmp_path):
    _, _, store = scan_sources(tmp_path, [{"a.x": "a\n", "a.y": "y\n"}] * 3, (".y",))
    for metric in MetricKind:
        with pytest.raises(UsageError, match="no group 'x'; available: \\['y'\\]"):
            build_curve_family(store, "x", metric)


def test_family_needs_two_versions(tmp_path):
    with pytest.raises(UsageError, match="at least 2"):
        family_of(tmp_path, [{"a.x": "a\n"}], "x", MetricKind.ULOC)


def test_family_from_store_directory(tmp_path):
    family = family_of(tmp_path, [{"a.x": "a\nb\n"}, {"a.x": "a\n"}, {"a.x": "c\n"}], "x", MetricKind.ULOC)
    assert family.curves[0].points == ((1, 0.5), (2, 1.0))


def test_life_order_splits_a_keys_rows(tmp_path):
    # "gone" is revived in v2 and "mid" dies between its runs; f.x is in
    # d1 from v0 and in d2 from v2, and a.x changes every version.
    trees = [
        {"a.x": "keep\ngone\nmid\n", "d1/f.x": "same\n"},
        {"a.x": "keep\nmid\n", "d1/f.x": "same\n"},
        {"a.x": "keep\ngone\nnew\n", "d1/f.x": "same\n", "d2/f.x": "same\n"},
        {"a.x": "keep\nnew\n", "d2/f.x": "same\n"},
    ]
    _, _, store = scan_sources(tmp_path, trees, XY)
    loaded = load_all_snapshots(store).group("x")
    # The scan's own rows, from the row maps of a second scan of the same
    # versions, each a (death, birth, digest) triple: life order is their order.
    memo = {"x": ingest._GroupRows(GroupIndex())}
    for i in range(len(trees)):
        ingest.scan_version(tmp_path / f"v{i}", [ExtensionGroup(name="x", extensions=(".x",))], ordinal=i, memo=memo)
    # The store's runs, expanded from its run table, and its digests are
    # those rows in life order, row for row.
    for kind in ("lines", "files"):
        stored, held = getattr(loaded, kind), getattr(memo["x"], kind).key_set()
        raw, width = held.digests.tobytes(), held.width
        rows = sorted((d, b, raw[k * width : (k + 1) * width]) for k, (b, d) in enumerate(held.runs.tolist()))
        assert stored.runs.tolist() == [[b, d] for d, b, _ in rows]
        assert stored.digests.tobytes() == b"".join(digest for *_, digest in rows)
    # Another run's rows lie between the rows of gone, and of f.x.
    raw = loaded.lines.digests.tobytes()
    gone = [k for k in range(loaded.lines.rows) if raw[16 * k : 16 * k + 16] == b2(b"gone")]
    assert [loaded.lines.runs.tolist()[k] for k in gone] == [[0, 1], [2, 3]] and gone[1] - gone[0] > 1
    raw = loaded.files.digests.tobytes()
    f_x = [k for k in range(loaded.files.rows) if raw[32 * k : 32 * k + 16] == b2(b"f.x\0" + b2(b"same\n"))]
    assert [loaded.files.runs.tolist()[k] for k in f_x] == [[0, 3], [2, 4]] and f_x[1] - f_x[0] > 1
    for metric, oracle in ((MetricKind.ULOC, raw_uloc_fraction), (MetricKind.FILE, raw_file_fraction)):
        family = build_curve_family(store, "x", metric)
        assert [[p for _, p in c.points] for c in family.curves] == [
            [oracle(base, later, ".x") for later in trees[i + 1 :]] for i, base in enumerate(trees[:-1])
        ]


def test_digest_ending_in_nul_survives_store_and_kernel(tmp_path):
    # numpy drops trailing NULs when an S item becomes bytes; the store
    # and the kernel must keep every digest at full width.
    line = next(
        f"line {i}" for i in range(100_000)
        if hashlib.blake2b(f"line {i}".encode(), digest_size=16).digest()[-1] == 0
    )
    digest = hashlib.blake2b(line.encode(), digest_size=16).digest()
    trees = [{"a.x": f"{line}\nother\n"}, {"a.x": f"{line}\n"}, {"a.x": "other\n"}]
    snaps, _, store = scan_sources(tmp_path, trees, XY)
    assert digest in snaps[0].groups["x"].uloc
    loaded = load_all_snapshots(store).group("x")
    assert indexed_rows(loaded.lines, 0) == snaps[0].groups["x"].uloc
    assert indexed_rows(loaded.lines, 1) == {digest}
    family = build_curve_family(store, "x", MetricKind.ULOC)
    assert [c.points for c in family.curves] == [((1, 0.5), (2, 0.5)), ((1, 1.0),)]


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


def test_curves_csv_round_trip(tmp_path):
    trees = [{"a.x": "a\nb\nc\n"}, {"a.x": "a\nd\n"}, {"a.x": "e\n"}]
    family = family_of(tmp_path, trees, "x", MetricKind.ULOC, software="demo")
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
        _, _, store = scan_sources(tmp_path / f"c{corpus_id}", history, XY)
        for group, ext in (("x", ".x"), ("y", ".y")):
            for metric, oracle in (
                (MetricKind.ULOC, raw_uloc_fraction),
                (MetricKind.FILE, raw_file_fraction),
            ):
                family = build_curve_family(store, group, metric)
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
    # 8/9 and 64/65 straddle a byte and a 64-bit word.
    rng = random.Random(versions)
    history = _edge_case_history(rng, versions)
    _, _, store = scan_sources(tmp_path, history, XY)
    assert any(rel.startswith("dup/") for tree in history for rel in tree)
    for group, ext in (("x", ".x"), ("y", ".y")):
        for metric, oracle in (
            (MetricKind.ULOC, raw_uloc_fraction),
            (MetricKind.FILE, raw_file_fraction),
        ):
            family = build_curve_family(store, group, metric)
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
    assert build_curve_family(store, "y", MetricKind.FILE).warnings


@pytest.mark.parametrize("versions", [8, 9, 64, 65])
def test_files_key_set_in_a_store_matches_oracle(tmp_path, versions):
    # The file curves read back from a store, at byte and word edges.
    history = _edge_case_history(random.Random(1000 + versions), versions)
    _, _, store = scan_sources(tmp_path, history, XY)
    for group, ext in (("x", ".x"), ("y", ".y")):
        family = build_curve_family(store, group, MetricKind.FILE)
        got = {c.baseline_ordinal: [p for _, p in c.points] for c in family.curves}
        expected = {}
        for i, base in enumerate(history[:-1]):
            fractions = [raw_file_fraction(base, later, ext) for later in history[i + 1 :]]
            if fractions[0] is not None:
                expected[i] = fractions
        assert got == expected


# --- the all-pairs kernel on key sets built directly ------------------------


def _random_key_set(rng: random.Random, versions: int, files: bool) -> tuple[KeySet, list[bytes], list[tuple[int, int]]]:
    """A canonical key set of random rows, with each row's key and run.

    A digest has one or more rows, each born at least one version after
    the one before it died, as a line or record revived after an absence.
    In the files form up to three digests share a 16-byte key, as records
    with one basename and content in several directories do, and their
    runs may overlap.
    """
    keys = sorted({rng.randbytes(16) for _ in range(150)})
    digests = sorted(
        key + rng.randbytes(16) if files else key
        for key in keys
        for _ in range(rng.randint(1, 3) if files else 1)
    )
    rows, runs = [], []
    for digest in digests:
        birth = rng.randrange(versions)
        while birth < versions:
            death = rng.randint(birth + 1, versions)
            rows.append(digest)
            runs.append((birth, death))
            birth = death + 1 + rng.randrange(3) if rng.random() < 0.5 else versions
    key_set = KeySet(
        np.frombuffer(b"".join(rows), dtype=f"S{len(rows[0])}"),
        np.array(runs, dtype="<u2"),
        len(rows[0]),
    )
    return key_set, [row[:16] for row in rows], runs


@pytest.mark.parametrize("versions", [1, 2, 8, 9, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("files", [False, True], ids=["lines", "files"])
def test_shared_counts_match_per_pair_counts(tmp_path, versions, files):
    key_set, keys, runs = _random_key_set(random.Random(versions * 2 + files), versions, files)
    if versions > 2:
        assert key_set.rows > len(set(key_set.digests.tolist()))  # revived digests
    if files:
        assert len(set(keys)) < len(set(key_set.digests.tolist()))  # keys shared across directories
    kind = "files" if files else "lines"
    group = GroupIndex(**{kind: key_set}, versions=[GroupVersion(0, 0)] * versions)
    write_store(LifetimeIndex([f"v{i}" for i in range(versions)], {"x": group}), tmp_path)
    stored = getattr(load_all_snapshots(tmp_path).group("x"), kind)
    holding = [[r for r, (birth, death) in enumerate(runs) if birth <= v < death] for v in range(versions)]
    key_sets = [{keys[r] for r in rows} for rows in holding]
    expected = [
        [sum(keys[r] in key_sets[j] for r in holding[i]) for j in range(versions)]
        for i in range(versions)
    ]
    assert survival._shared_counts(stored, versions) == expected
    # The kernel read the run table and the rows of shared keys, and no digest.
    assert sorted(stored.checked) == ["multi", "table"]
    assert versions <= 2 or len(stored.section("multi"))
