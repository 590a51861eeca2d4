"""Snapshot scanning, line normalization, manifests, and the store format."""

from __future__ import annotations

import hashlib
import io
import json
import random
import tarfile
from pathlib import Path

import pytest

from codesurvival.errors import (
    ManifestError,
    MissingSourceError,
    StoreFormatError,
    UsageError,
)
from codesurvival.ingest import (
    CorpusManifest,
    ExtensionGroup,
    VersionEntry,
    load_all_snapshots,
    load_manifest,
    load_snapshot,
    normalize_lines,
    scan_corpus,
    scan_version,
    store_ordinals,
    store_snapshot,
)

from conftest import random_corpus_history, write_tree

CPP = ExtensionGroup(name="cpp", extensions=(".cpp",))
H = ExtensionGroup(name="h", extensions=(".h",))


def b2(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


# --- normalize_lines --------------------------------------------------------


def test_normalize_empty_content_has_no_lines():
    assert normalize_lines(b"") == []


def test_normalize_single_newline_is_one_empty_line():
    assert normalize_lines(b"\n") == [b2(b"")]


def test_normalize_digest_matches_hashlib():
    assert normalize_lines(b"hello\n") == [b2(b"hello")]


def test_normalize_trailing_newline_is_irrelevant():
    assert normalize_lines(b"a\nb") == normalize_lines(b"a\nb\n")


def test_normalize_crlf_equals_lf():
    assert normalize_lines(b"a\r\nb\r\n") == normalize_lines(b"a\nb\n")


def test_normalize_strips_one_trailing_cr_only():
    # An interior CR is content; only the line-ending CR is folded away.
    assert normalize_lines(b"a\rb\n") == [b2(b"a\rb")]
    assert normalize_lines(b"x\r\r\n") == [b2(b"x\r")]


def test_normalize_keeps_duplicates_in_order():
    lines = normalize_lines(b"same\nsame\nother\n")
    assert lines == [b2(b"same"), b2(b"same"), b2(b"other")]


def test_normalize_no_whitespace_trimming():
    assert normalize_lines(b"  x \n") == [b2(b"  x ")]
    assert normalize_lines(b"x\n") != normalize_lines(b"x \n")


# --- scan_version -----------------------------------------------------------


def test_scan_routes_files_to_groups(tree_writer):
    root = tree_writer(
        {
            "a.cpp": "int a;\n",
            "src/b.cpp": "int b;\nint a;\n",
            "inc/c.h": "struct c;\n",
            "README.md": "ignored\n",
            "data.txt": "ignored\n",
        }
    )
    snap = scan_version(root, [CPP, H], label="v1", ordinal=3)
    assert snap.version_label == "v1"
    assert snap.ordinal == 3
    cpp = snap.group("cpp")
    assert [f.relpath for f in cpp.files] == ["a.cpp", "src/b.cpp"]
    assert [f.basename for f in cpp.files] == ["a.cpp", "b.cpp"]
    # "int a;" appears in two files but pools to one line digest.
    assert cpp.uloc == frozenset({b2(b"int a;"), b2(b"int b;")})
    assert cpp.uloc_count == 2
    assert snap.group("h").file_count == 1


def test_scan_label_defaults_to_source_name(tree_writer):
    root = tree_writer({"a.cpp": "x\n"})
    assert scan_version(root, [CPP]).version_label == root.name


def test_scan_content_digest_matches_hashlib(tree_writer):
    root = tree_writer({"a.cpp": "int a;\n"})
    record = scan_version(root, [CPP]).group("cpp").files[0]
    assert record.content_digest == b2(b"int a;\n")


def test_scan_longest_suffix_wins(tree_writer):
    incl = ExtensionGroup(name="incl", extensions=(".inc.h",))
    root = tree_writer({"gen.inc.h": "g\n", "plain.h": "p\n"})
    snap = scan_version(root, [H, incl])
    assert [f.basename for f in snap.group("incl").files] == ["gen.inc.h"]
    assert [f.basename for f in snap.group("h").files] == ["plain.h"]


def test_scan_suffix_match_is_case_sensitive(tree_writer):
    root = tree_writer({"A.CPP": "x\n", "b.cpp": "y\n"})
    assert [f.basename for f in scan_version(root, [CPP]).group("cpp").files] == ["b.cpp"]


def test_scan_skips_symlinks(tree_writer):
    root = tree_writer({"real.cpp": "x\n"})
    (root / "link.cpp").symlink_to(root / "real.cpp")
    snap = scan_version(root, [CPP])
    assert [f.basename for f in snap.group("cpp").files] == ["real.cpp"]
    assert snap.group("cpp").skipped_files == 0


def test_scan_counts_unreadable_files(tree_writer, monkeypatch):
    root = tree_writer({"ok.cpp": "x\n", "locked.cpp": "y\n"})
    original = Path.read_bytes

    def flaky(self):
        if self.name == "locked.cpp":
            raise OSError("permission denied")
        return original(self)

    monkeypatch.setattr(Path, "read_bytes", flaky)
    snap = scan_version(root, [CPP])
    assert [f.basename for f in snap.group("cpp").files] == ["ok.cpp"]
    assert snap.group("cpp").skipped_files == 1


def test_scan_missing_source_is_an_error(tmp_path):
    with pytest.raises(MissingSourceError):
        scan_version(tmp_path / "nowhere", [CPP])


def test_scan_rejects_overlapping_groups(tree_writer):
    root = tree_writer({"a.cpp": "x\n"})
    other = ExtensionGroup(name="other", extensions=(".cpp", ".cc"))
    with pytest.raises(ManifestError):
        scan_version(root, [CPP, other])


def test_snapshot_unknown_group_lists_available(tree_writer):
    snap = scan_version(tree_writer({"a.cpp": "x\n"}), [CPP])
    with pytest.raises(KeyError, match="cpp"):
        snap.group("js")


# --- tar archives -----------------------------------------------------------


def make_tar(src: Path, dest: Path, mode: str = "w") -> Path:
    with tarfile.open(dest, mode) as tar:
        tar.add(src, arcname=".")
    return dest


def test_scan_tar_equals_scan_directory(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "int a;\n", "src/b.cpp": "int b;\n", "inc/c.h": "h\n"})
    archive = make_tar(root, tmp_path / "v1.tar")
    from_dir = scan_version(root, [CPP, H], label="v1")
    from_tar = scan_version(archive, [CPP, H], label="v1")
    for name in ("cpp", "h"):
        assert from_tar.group(name).files == from_dir.group(name).files
        assert from_tar.group(name).uloc == from_dir.group(name).uloc


def test_scan_compressed_tar(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "int a;\n"})
    archive = make_tar(root, tmp_path / "v1.tar.gz", "w:gz")
    assert scan_version(archive, [CPP]).group("cpp").uloc == frozenset({b2(b"int a;")})


def test_tar_keeps_leading_dots_of_member_names(tmp_path):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        for name, data in ((".cfg/x.txt", b"x\n"), ("./.y.txt", b"y\n")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    root = write_tree(tmp_path / "tree", {".cfg/x.txt": "x\n", ".y.txt": "y\n"})
    from_tar = scan_version(archive, [txt], label="v1")
    files = from_tar.group("txt").files
    assert [(r.basename, r.relpath) for r in files] == [("x.txt", ".cfg/x.txt"), (".y.txt", ".y.txt")]
    assert from_tar == scan_version(root, [txt], label="v1")


def test_tar_and_directory_give_identical_snapshots(tmp_path):
    x = ExtensionGroup(name="x", extensions=(".x",))
    y = ExtensionGroup(name="y", extensions=(".y",))
    rng = random.Random(20261018)
    for corpus_id in range(6):
        for i, tree in enumerate(random_corpus_history(rng, versions=4)):
            # Hide some files and directories behind a leading dot.
            tree = {
                (("." + rel) if rng.random() < 0.3 else rel): text for rel, text in tree.items()
            }
            root = write_tree(tmp_path / f"c{corpus_id}" / f"v{i}", tree)
            archive = make_tar(root, tmp_path / f"c{corpus_id}" / f"v{i}.tar.gz", "w:gz")
            from_dir = scan_version(root, [x, y], label=f"v{i}", ordinal=i)
            assert scan_version(archive, [x, y], label=f"v{i}", ordinal=i) == from_dir


@pytest.mark.parametrize("mode, suffix", [("w:gz", ".tar.gz"), ("w:xz", ".tar.xz")])
def test_tar_corrupted_mid_stream_is_refused(tmp_path, mode, suffix):
    rng = random.Random(20261018)
    data = "".join(f"{rng.getrandbits(128):032x}\n" for _ in range(4000)).encode()
    archive = tmp_path / f"v1{suffix}"
    with tarfile.open(archive, mode) as tar:
        info = tarfile.TarInfo("a.cpp")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    whole = bytearray(archive.read_bytes())
    middle = len(whole) // 2
    whole[middle : middle + 64] = bytes(b ^ 0xFF for b in whole[middle : middle + 64])
    archive.write_bytes(bytes(whole))
    with pytest.raises(UsageError, match=archive.name):
        scan_version(archive, [CPP])


# --- manifests --------------------------------------------------------------


def write_manifest(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def manifest_payload() -> dict:
    return {
        "software": "demo",
        "groups": [{"name": "cpp", "extensions": [".cpp"]}],
        "versions": [
            {"label": "v1", "path": "v1", "date": "2003-06-05"},
            {"label": "v2", "path": "v2"},
        ],
    }


def test_load_manifest_resolves_relative_paths(tree_writer, tmp_path):
    tree_writer({"a.cpp": "x\n"}, "v1")
    tree_writer({"a.cpp": "y\n"}, "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    assert manifest.software == "demo"
    assert [v.label for v in manifest.versions] == ["v1", "v2"]
    assert [v.ordinal for v in manifest.versions] == [0, 1]
    assert manifest.versions[0].source == tmp_path / "v1"
    assert str(manifest.versions[0].release_date) == "2003-06-05"
    assert manifest.versions[1].release_date is None


def test_load_manifest_missing_fields(tmp_path, tree_writer):
    tree_writer({}, "v1")
    for key in ("software", "groups", "versions"):
        payload = manifest_payload()
        del payload[key]
        with pytest.raises(ManifestError, match=key):
            load_manifest(write_manifest(tmp_path, payload))


def test_load_manifest_rejects_bad_date(tmp_path, tree_writer):
    tree_writer({"a.cpp": "x\n"}, "v1")
    tree_writer({"a.cpp": "y\n"}, "v2")
    payload = manifest_payload()
    payload["versions"][0]["date"] = "June 2003"
    with pytest.raises(ManifestError, match="date"):
        load_manifest(write_manifest(tmp_path, payload))


def test_load_manifest_missing_snapshot_source(tmp_path, tree_writer):
    tree_writer({"a.cpp": "x\n"}, "v1")
    with pytest.raises(MissingSourceError, match="v2"):
        load_manifest(write_manifest(tmp_path, manifest_payload()))


def test_load_manifest_duplicate_labels(tmp_path, tree_writer):
    tree_writer({"a.cpp": "x\n"}, "v1")
    tree_writer({"a.cpp": "y\n"}, "v2")
    payload = manifest_payload()
    payload["versions"][1]["label"] = "v1"
    with pytest.raises(ManifestError, match="duplicate version label 'v1'"):
        load_manifest(write_manifest(tmp_path, payload))


def test_load_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("not json {", encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "absent.json")


# --- validation of the building blocks --------------------------------------


def test_extension_group_validation():
    with pytest.raises(ManifestError):
        ExtensionGroup(name="bad name", extensions=(".c",))
    with pytest.raises(ManifestError):
        ExtensionGroup(name="empty", extensions=())
    with pytest.raises(ManifestError):
        ExtensionGroup(name="dup", extensions=(".c", ".c"))
    with pytest.raises(ManifestError):
        ExtensionGroup(name="nodot", extensions=("cpp",))


def test_corpus_manifest_requires_contiguous_ordinals(tmp_path):
    entries = (
        VersionEntry(label="v1", ordinal=0, source=tmp_path),
        VersionEntry(label="v2", ordinal=2, source=tmp_path),
    )
    with pytest.raises(ManifestError, match="contiguous"):
        CorpusManifest(software="demo", versions=entries, groups=(CPP,))


def test_corpus_manifest_rejects_group_collisions(tmp_path):
    entry = (VersionEntry(label="v1", ordinal=0, source=tmp_path),)
    with pytest.raises(ManifestError):
        CorpusManifest(software="demo", versions=entry, groups=(CPP, CPP))
    shadow = ExtensionGroup(name="cxx", extensions=(".cpp",))
    with pytest.raises(ManifestError, match=".cpp"):
        CorpusManifest(software="demo", versions=entry, groups=(CPP, shadow))


# --- snapshot store ---------------------------------------------------------


def test_store_round_trip(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "int a;\nint b;\n", "inc/c.h": "h\n"})
    snap = scan_version(root, [CPP, H], label="v1", ordinal=0)
    store = tmp_path / "store"
    store_snapshot(snap, store)
    loaded = load_snapshot(store, 0)
    assert loaded.version_label == "v1"
    assert set(loaded.groups) == {"cpp", "h"}
    for name in ("cpp", "h"):
        assert loaded.group(name).files == snap.group(name).files
        assert loaded.group(name).uloc == snap.group(name).uloc
        assert loaded.group(name).skipped_files == snap.group(name).skipped_files


def test_store_write_is_deterministic(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "z\ny\nx\n", "b.cpp": "q\n"})
    snap = scan_version(root, [CPP], label="v1", ordinal=0)
    first, second = tmp_path / "s1", tmp_path / "s2"
    store_snapshot(snap, first)
    store_snapshot(snap, second)
    assert (first / "00000_cpp.snap").read_bytes() == (second / "00000_cpp.snap").read_bytes()


def test_store_round_trips_awkward_names(tree_writer, tmp_path):
    root = tree_writer({"dir with space/my file.cpp": "x\n", "d\u00e9j\u00e0/\u00fc.cpp": "y\n"})
    label = "release 1.0 beta\nnext \"line\""
    snap = scan_version(root, [CPP], label=label, ordinal=2)
    store_snapshot(snap, tmp_path / "store")
    loaded = load_snapshot(tmp_path / "store", 2)
    assert loaded == snap
    assert loaded.version_label == label
    assert [(r.basename, r.relpath) for r in loaded.group("cpp").files] == [
        ("my file.cpp", "dir with space/my file.cpp"),
        ("\u00fc.cpp", "d\u00e9j\u00e0/\u00fc.cpp"),
    ]


def test_store_rejects_corruption(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "x\ny\n"})
    store = tmp_path / "store"
    store_snapshot(scan_version(root, [CPP], ordinal=0), store)
    path = store / "00000_cpp.snap"
    good = path.read_bytes()
    line, block = good.split(b"\n", 1)
    header = json.loads(line)
    assert header["format"] == 2 and header["lines"] == 2 and len(block) == 32

    def with_header(**changes) -> bytes:
        return json.dumps({**header, **changes}).encode() + b"\n" + block

    unlabelled = {k: v for k, v in header.items() if k != "label"}
    cases = [
        (b"nonsense\n" + good, "header"),
        (b"", "header"),
        (line, "header"),  # no newline, so no block either
        (b"\xff\xfe\n" + block, "header"),  # not UTF-8
        (b"[2]\n" + block, "header"),
        (b"H 1 blake2b-128 0 tree cpp 0\nL " + block[:16].hex().encode() + b"\n", "rescan"),
        (with_header(format=9), "version"),
        (with_header(algorithm="md5"), "unknown digest"),
        (with_header(algorithm="sha256"), "'sha256'.*'blake2b-128'"),
        (json.dumps(unlabelled).encode() + b"\n" + block, "'label'"),
        (with_header(lines="2"), "'lines'"),
        (good + b"trailing junk", "block"),
        (good[:-5], "block"),  # truncated
        (with_header(lines=3), "block"),
        (with_header(files=[["a.cpp"]]), "file record"),
        (with_header(files=[["a.cpp", "not hex"]]), "file record"),
        (with_header(files=[[7, "00"]]), "file record"),
        (with_header(ordinal=3), "ordinal"),
    ]
    for data, match in cases:
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match=match):
            load_snapshot(store, 0)

    path.write_bytes(good)
    assert load_snapshot(store, 0).group("cpp").uloc == {b2(b"x"), b2(b"y")}
    with pytest.raises(StoreFormatError):
        load_snapshot(store, 7)


def test_store_ordinals_and_bulk_load(tree_writer, tmp_path):
    store = tmp_path / "store"
    for ordinal, text in enumerate(["a\n", "b\n", "c\n"]):
        root = tree_writer({"a.cpp": text}, f"v{ordinal}")
        store_snapshot(scan_version(root, [CPP], label=f"v{ordinal}", ordinal=ordinal), store)
    assert store_ordinals(store) == [0, 1, 2]
    snaps = load_all_snapshots(store)
    assert [s.version_label for s in snaps] == ["v0", "v1", "v2"]
    assert snaps[2].group("cpp").uloc == frozenset({b2(b"c")})


def test_scan_corpus_yields_in_order_and_persists(tree_writer, tmp_path):
    tree_writer({"a.cpp": "one\n"}, "v1")
    tree_writer({"a.cpp": "two\n"}, "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    store = tmp_path / "store"
    snaps = list(scan_corpus(manifest, store))
    assert [(s.version_label, s.ordinal) for s in snaps] == [("v1", 0), ("v2", 1)]
    assert store_ordinals(store) == [0, 1]
    reloaded = load_all_snapshots(store)
    assert reloaded[0].group("cpp").uloc == snaps[0].group("cpp").uloc


def test_scan_corpus_removes_snapshots_it_did_not_write(tree_writer, tmp_path):
    tree_writer({"a.cpp": "one\n", "a.h": "h\n"}, "v1")
    tree_writer({"a.cpp": "two\n"}, "v2")
    store = tmp_path / "store"
    for ordinal in range(4):
        root = tree_writer({"a.cpp": f"old {ordinal}\n"}, f"old{ordinal}")
        store_snapshot(scan_version(root, [CPP, H], label=f"old{ordinal}", ordinal=ordinal), store)
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    list(scan_corpus(manifest, store))
    # Ordinals 2-3 and the h group, which this manifest drops, are gone.
    assert sorted(p.name for p in store.glob("*.snap")) == ["00000_cpp.snap", "00001_cpp.snap"]
    assert [s.version_label for s in load_all_snapshots(store)] == ["v1", "v2"]
