"""Snapshot scanning, line normalization, manifests, and the store format."""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import multiprocessing
import os
import random
import tarfile
from pathlib import Path

import numpy as np
import pytest

from codesurvival import ingest
from codesurvival.errors import (
    ManifestError,
    MissingSourceError,
    StoreFormatError,
    UsageError,
)
from codesurvival.ingest import (
    STORE_FILENAME,
    CorpusManifest,
    ExtensionGroup,
    FileRecord,
    GroupIndex,
    GroupPayload,
    LifetimeIndex,
    ScanCounters,
    VersionEntry,
    VersionSnapshot,
    load_all_snapshots,
    load_manifest,
    normalize_lines,
    scan_corpus,
    scan_version,
    store_snapshot,
)
from codesurvival.survival import MetricKind, build_curve_family

from conftest import indexed_uloc, random_corpus_history, write_snapshots, write_tree

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


def _per_line_normalize(data: bytes) -> list[bytes]:
    """The former per-line split, kept verbatim as the oracle."""
    if not data:
        return []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [b2(line[:-1] if line.endswith(b"\r") else line) for line in lines]


def test_normalize_matches_the_per_line_oracle():
    rng = random.Random(20261018)
    cases = [b"", b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b"x\r", b"x\r\r", b"x\r\r\n", b"\r\n\r\n"]
    for _ in range(3000):
        parts = rng.choices([b"\r", b"\n", b"\r\n", b"\r\r\n", b"a", b"bc", b" "], k=rng.randint(0, 12))
        cases.append(b"".join(parts))
    for data in cases:
        assert normalize_lines(data) == _per_line_normalize(data), data


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


@pytest.mark.parametrize("mode, suffix", [("w", ".tar"), ("w:gz", ".tar.gz")])
def test_tar_hard_link_reads_as_its_target(tmp_path, mode, suffix):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    root = write_tree(tmp_path / "tree", {"x.txt": "one\ntwo\n", "z.txt": "z\n"})
    os.link(root / "x.txt", root / "y.txt")
    archive = make_tar(root, tmp_path / f"v1{suffix}", mode)
    with tarfile.open(archive) as tar:
        assert tar.getmember("./y.txt").islnk()
    from_dir = scan_version(root, [txt], label="v1")
    assert [r.relpath for r in from_dir.group("txt").files] == ["x.txt", "y.txt", "z.txt"]
    assert scan_version(archive, [txt], label="v1") == from_dir


def test_tar_hard_link_to_a_missing_file_is_skipped(tmp_path):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        info = tarfile.TarInfo("y.txt")
        info.type, info.linkname = tarfile.LNKTYPE, "gone.txt"
        tar.addfile(info)
    payload = scan_version(archive, [txt]).group("txt")
    assert (payload.file_count, payload.skipped_files, payload.uloc_count) == (0, 1, 0)


def test_tar_member_archived_last_wins(tmp_path):
    # "tar -r" appends a second copy; extraction keeps the last one.
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        for name, data in (("x.txt", b"old\n"), ("./x.txt", b"older\n"), ("x.txt", b"new\n")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    root = write_tree(tmp_path / "tree", {"x.txt": "new\n"})
    from_tar = scan_version(archive, [txt], label="v1")
    assert (from_tar.group("txt").file_count, from_tar.group("txt").uloc_count) == (1, 1)
    assert from_tar == scan_version(root, [txt], label="v1")


def test_tar_reads_no_member_twice(tmp_path, monkeypatch):
    # A 4 MB blob no group takes, ten hard links to it, and a .cpp with a
    # hard link of its own archived after the blob.
    root = write_tree(tmp_path / "tree", {"a.cpp": "int a;\n", "blob.bin": os.urandom(4 << 20)})
    for i in range(1, 11):
        os.link(root / "blob.bin", root / f"blob{i}.bin")
    os.link(root / "a.cpp", root / "copy.cpp")
    archive = make_tar(root, tmp_path / "v1.tar.gz", "w:gz")
    rewinds = []
    original = gzip._GzipReader._rewind

    def counting(self):
        rewinds.append(1)
        return original(self)

    monkeypatch.setattr(gzip._GzipReader, "_rewind", counting)
    from_tar = scan_version(archive, [CPP], label="v1")
    assert rewinds == []
    assert [r.relpath for r in from_tar.group("cpp").files] == ["a.cpp", "copy.cpp"]
    assert from_tar == scan_version(root, [CPP], label="v1")


def _tar_oracle(archive: Path, groups) -> list:
    """What tarfile itself reads for every group member, links resolved by extractfile."""
    read = []
    with tarfile.open(archive) as tar:
        for member in tar.getmembers():
            relpath = member.name.removeprefix("./")
            group = ingest._match_group(relpath.rpartition("/")[2], groups)
            if group is None or not (member.isreg() or member.islnk()):
                continue
            try:
                reader = tar.extractfile(member)
            except KeyError:
                reader = None
            read.append((group, relpath, None if reader is None else reader.read()))
    return read


def test_tar_hard_links_resolve_as_tarfile_does(tmp_path):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    members = [
        ("x.txt", b"old\n", None),
        ("y.txt", None, "./x.txt"),  # "old": the last x.txt before it
        ("./x.txt", b"new\n", None),
        ("z.txt", None, "x.txt"),  # "new"
        ("w.txt", None, "y.txt"),  # a link to a link: "old"
        ("e.txt", b"", None),
        ("f.txt", None, "e.txt"),  # an empty file
        ("blob.bin", b"blob\n", None),
        ("v.txt", None, "blob.bin"),  # a target no group takes
        ("x.txt", None, None),  # a directory now has the name
        ("u.txt", None, "x.txt"),  # so this link reads nothing
        ("t.txt", None, "later.txt"),  # no such member before it
        ("later.txt", b"later\n", None),
    ]
    archive = tmp_path / "v1.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        for name, data, target in members:
            info = tarfile.TarInfo(name)
            if target is not None:
                info.type, info.linkname = tarfile.LNKTYPE, target
            elif data is None:
                info.type = tarfile.DIRTYPE
            else:
                info.size = len(data)
            tar.addfile(info, None if data is None else io.BytesIO(data))
    read = list(ingest._read_version(archive, [txt]))
    assert read == _tar_oracle(archive, [txt])
    assert {relpath: data for _, relpath, data in read} == {
        "x.txt": b"new\n", "y.txt": b"old\n", "z.txt": b"new\n", "w.txt": b"old\n",
        "e.txt": b"", "f.txt": b"", "v.txt": b"blob\n", "u.txt": None, "t.txt": None,
        "later.txt": b"later\n",
    }


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


@pytest.mark.parametrize("label", [5, None, ["v1"]])
def test_load_manifest_rejects_a_label_that_is_not_a_string(tmp_path, tree_writer, label):
    tree_writer({"a.cpp": "x\n"}, "v1")
    tree_writer({"a.cpp": "y\n"}, "v2")
    payload = manifest_payload()
    payload["versions"][1]["label"] = label
    with pytest.raises(ManifestError, match=r"manifest\.json: version entry 1 has label .*not a string"):
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


# --- lifetime store ---------------------------------------------------------


def assert_store_holds(loaded: LifetimeIndex, snaps: list) -> None:
    """The loaded store describes exactly these snapshots, ordinals 0, 1, ..."""
    assert loaded.labels == [s.version_label for s in snaps]
    assert set(loaded.groups) == set(snaps[0].groups)
    for name, group in loaded.groups.items():
        payloads = [s.group(name) for s in snaps]
        union = sorted({d for p in payloads for d in p.uloc})
        assert group.digests.tobytes() == b"".join(union)
        assert group.masks.shape == (len(union), (len(snaps) + 7) // 8)
        for i, payload in enumerate(payloads):
            version = group.versions[i]
            assert version.files == payload.files
            assert version.uloc_count == payload.uloc_count
            assert version.skipped_files == payload.skipped_files
            assert indexed_uloc(group, i) == payload.uloc


def test_store_round_trip(tree_writer, tmp_path):
    trees = [
        {"a.cpp": "int a;\nint b;\n", "inc/c.h": "h\n"},
        {"a.cpp": "int a;\n", "b.cpp": "int c;\nint b;\n"},
        {"inc/c.h": "h\nk\n"},
    ]
    snaps = [
        scan_version(tree_writer(tree, f"v{i}"), [CPP, H], label=f"v{i}", ordinal=i)
        for i, tree in enumerate(trees)
    ]
    path = write_snapshots(snaps, tmp_path / "store")
    assert path == tmp_path / "store" / STORE_FILENAME
    assert_store_holds(load_all_snapshots(tmp_path / "store"), snaps)


def test_store_write_is_deterministic(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "z\ny\nx\n", "b.cpp": "q\n"})
    snaps = [scan_version(root, [CPP], label=f"v{i}", ordinal=i) for i in range(2)]
    first = write_snapshots(snaps, tmp_path / "s1")
    second = write_snapshots(snaps, tmp_path / "s2")
    assert first.read_bytes() == second.read_bytes()
    # Written last and renamed into place: nothing else is left behind.
    assert [p.name for p in (tmp_path / "s1").iterdir()] == [STORE_FILENAME]


def test_store_round_trips_awkward_names(tree_writer, tmp_path):
    root = tree_writer({"dir with space/my file.cpp": "x\n", "d\u00e9j\u00e0/\u00fc.cpp": "y\n"})
    label = "release 1.0 beta\nnext \"line\""
    snaps = [
        scan_version(root, [CPP], label=label, ordinal=0),
        scan_version(root, [CPP], label="\u00e9t\u00e9 2", ordinal=1),
    ]
    write_snapshots(snaps, tmp_path / "store")
    loaded = load_all_snapshots(tmp_path / "store")
    assert_store_holds(loaded, snaps)
    assert loaded.labels[0] == label
    assert [(r.basename, r.relpath) for r in loaded.group("cpp").versions[0].files] == [
        ("my file.cpp", "dir with space/my file.cpp"),
        ("\u00fc.cpp", "d\u00e9j\u00e0/\u00fc.cpp"),
    ]


def test_store_rejects_corruption(tree_writer, tmp_path):
    snaps = [
        scan_version(tree_writer({"a.cpp": text}, f"v{i}"), [CPP], label=f"v{i}", ordinal=i)
        for i, text in enumerate(["x\ny\n", "y\nz\n"])
    ]
    store = tmp_path / "store"
    path = write_snapshots(snaps, store)
    good = path.read_bytes()
    line, body = good.split(b"\n", 1)
    header = json.loads(line)
    assert header["format"] == 3 and header["digest"] == "blake2b-128"
    assert header["groups"] == {"cpp": {"digests": 0, "keys": 3, "masks": 48}}
    assert len(body) == 3 * 16 + 3 * 1

    def with_header(**changes) -> bytes:
        return json.dumps({**header, **changes}).encode() + b"\n" + body

    def with_version(**changes) -> bytes:
        return with_header(versions=[{**header["versions"][0], **changes}, header["versions"][1]])

    def with_group(**changes) -> bytes:
        entry = header["versions"][0]["groups"]["cpp"]
        return with_version(groups={"cpp": {**entry, **changes}})

    unlabelled = {k: v for k, v in header["versions"][0].items() if k != "label"}
    cases = [
        (b"nonsense\n" + good, "header"),
        (b"", "header"),
        (line, "header"),  # no newline, so no sections either
        (b"\xff\xfe\n" + body, "header"),  # not UTF-8
        (b"[3]\n" + body, "header"),
        (with_header(format=2), "version 2"),
        (with_header(digest="sha256"), "'sha256'.*'blake2b-128'.*rescan"),
        (with_header(versions={}), "'versions'"),
        (with_header(groups=[]), "'groups'"),
        (with_header(versions=[unlabelled, header["versions"][1]]), "'label'"),
        (with_version(ordinal=1), "ordinal"),
        (with_version(groups={}), "groups"),
        (with_group(uloc="2"), "'uloc'"),
        (with_group(skipped=None), "'skipped'"),
        (with_group(files=[["a.cpp"]]), "file record"),
        (with_group(files=[["a.cpp", "not hex"]]), "file record"),
        (with_group(files=[[7, "00"]]), "file record"),
        (with_header(groups={"cpp": {"digests": 0, "keys": 2, "masks": 32}}), "bytes"),
        (with_header(groups={"cpp": {"digests": 0, "keys": 3, "masks": 32}}), "laid out"),
        (with_header(groups={"cpp": {"digests": 3, "keys": 3, "masks": 51}}), "laid out"),
        (with_header(groups={"cpp": {"digests": 0, "keys": -1, "masks": -16}}), "laid out"),
        (good + b"trailing junk", "bytes"),
        (good[:-2], "bytes"),  # truncated
    ]
    for data, match in cases:
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match=match):
            load_all_snapshots(store)

    # Masks that disagree with the recorded uloc counts are refused by the kernel.
    path.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
    with pytest.raises(StoreFormatError, match="uloc counts"):
        build_curve_family(store, "cpp", MetricKind.ULOC)

    path.write_bytes(good)
    assert_store_holds(load_all_snapshots(store), snaps)


def test_store_refuses_format_2_snapshot_files(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    header = {"algorithm": "blake2b-128", "files": [], "format": 2, "group": "cpp",
              "label": "v0", "lines": 0, "ordinal": 0, "skipped": 0}
    (store / "00000_cpp.snap").write_text(json.dumps(header) + "\n")
    with pytest.raises(StoreFormatError, match="format 1 or 2.*rescan"):
        load_all_snapshots(store)


def test_store_bulk_load(tree_writer, tmp_path):
    snaps = [
        scan_version(tree_writer({"a.cpp": text}, f"v{ordinal}"), [CPP], label=f"v{ordinal}", ordinal=ordinal)
        for ordinal, text in enumerate(["a\n", "b\n", "c\n"])
    ]
    write_snapshots(snaps, tmp_path / "store")
    loaded = load_all_snapshots(tmp_path / "store")
    assert loaded.labels == ["v0", "v1", "v2"]
    assert indexed_uloc(loaded.group("cpp"), 2) == frozenset({b2(b"c")})
    with pytest.raises(KeyError, match="no group 'h'; available: \\['cpp'\\]"):
        loaded.group("h")
    # A directory without a store file holds no versions.
    assert load_all_snapshots(tmp_path / "elsewhere") == LifetimeIndex(labels=[], groups={})


def test_store_snapshot_takes_versions_in_order(tree_writer):
    root = tree_writer({"a.cpp": "x\n", "a.h": "h\n"})
    index = LifetimeIndex(labels=[], groups={"cpp": GroupIndex(), "h": GroupIndex()})
    with pytest.raises(ValueError, match="not version 0"):
        store_snapshot(scan_version(root, [CPP, H], ordinal=1), index)
    with pytest.raises(ValueError, match="groups \\['cpp'\\]"):
        store_snapshot(scan_version(root, [CPP], ordinal=0), index)
    store_snapshot(scan_version(root, [CPP, H], ordinal=0), index)
    assert len(index.labels) == 1 and index.groups["h"].masks.tolist() == [[1]]


def _random_payload(rng: random.Random, pool: list[bytes], files, skipped: int) -> GroupPayload:
    """Distinct digests from the pool, as rows 0, 1, ... of their own."""
    block = b"".join(sorted(set(rng.sample(pool, rng.randint(0, len(pool) // 2)))))
    digests = np.frombuffer(block, dtype="S16")
    return GroupPayload(files, np.arange(len(digests)), digests, skipped)


@pytest.mark.parametrize("versions", [8, 9, 64, 65, 70])
def test_store_mask_edges(tmp_path, versions):
    # 8/9 and 64/65 straddle a mask byte and a 64-bit word; 70 is > 64.
    rng = random.Random(versions)
    pool = [rng.randbytes(15) + b"\0" for _ in range(20)] + [rng.randbytes(16) for _ in range(60)]
    snaps = []
    for i in range(versions):
        names = rng.sample(["a.x", "b.x", "c.x"], rng.randint(0, 3))
        relpaths = sorted(f"d{rng.randint(0, 1)}/{name}" for name in names)
        files = tuple(
            FileRecord(relpath=rel, content_digest=rng.choice(pool)) for rel in relpaths
        )
        snaps.append(VersionSnapshot(f"v{i}", i, {"x": _random_payload(rng, pool, files, i % 3)}))
    path = write_snapshots(snaps, tmp_path / "store")
    loaded = load_all_snapshots(tmp_path / "store")
    assert_store_holds(loaded, snaps)
    header_bytes = path.read_bytes().index(b"\n") + 1
    keys = len(loaded.group("x").digests)
    assert path.stat().st_size == header_bytes + keys * (16 + (versions + 7) // 8)
    for metric in MetricKind:
        assert build_curve_family(tmp_path / "store", "x", metric) == build_curve_family(snaps, "x", metric)


def test_scan_corpus_yields_in_order_and_persists(tree_writer, tmp_path):
    tree_writer({"a.cpp": "one\n"}, "v1")
    tree_writer({"a.cpp": "two\n"}, "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    store = tmp_path / "store"
    snaps = list(scan_corpus(manifest, store))
    assert [(s.version_label, s.ordinal) for s in snaps] == [("v1", 0), ("v2", 1)]
    assert_store_holds(load_all_snapshots(store), snaps)


def test_scan_corpus_equals_fresh_scans_of_each_version(tree_writer, tmp_path):
    # "a" leaves and comes back, "moved" goes from cpp to h and back, and
    # "crlf" is written with both line endings.
    history = [
        {"a.cpp": "a\nmoved\ncrlf\r\n", "a.h": "h\n"},
        {"a.cpp": "b\ncrlf\n", "a.h": "h\nmoved\n"},
        {"a.cpp": "a\nmoved\r\ncrlf\n", "b.cpp": "crlf\r\nb\n", "a.h": "h\n"},
        {"a.cpp": "a\nmoved\r\ncrlf\n", "b.cpp": "crlf\r\nb\n"},
    ]
    payload = manifest_payload()
    payload["groups"].append({"name": "h", "extensions": [".h"]})
    payload["versions"] = [{"label": f"v{i}", "path": f"v{i}"} for i in range(len(history))]
    for i, tree in enumerate(history):
        tree_writer(tree, f"v{i}")
    manifest = load_manifest(write_manifest(tmp_path, payload))
    assert_scans_equal(list(scan_corpus(manifest)), standalone_scans(manifest))


def standalone_scans(manifest: CorpusManifest) -> list[VersionSnapshot]:
    return [
        scan_version(v.source, manifest.groups, label=v.label, ordinal=v.ordinal)
        for v in manifest.versions
    ]


def assert_scans_equal(snaps: list[VersionSnapshot], fresh: list[VersionSnapshot]) -> None:
    """Same versions, files and line digests, whichever index numbered the rows."""
    assert [(s.version_label, s.ordinal, list(s.groups)) for s in snaps] == [
        (s.version_label, s.ordinal, list(s.groups)) for s in fresh
    ]
    for snap, alone in zip(snaps, fresh):
        for name, payload in snap.groups.items():
            other = alone.group(name)
            assert payload.uloc == other.uloc
            assert payload.uloc_count == other.uloc_count
            assert payload.files == other.files
            assert payload.skipped_files == other.skipped_files


def scan_sources(tmp_path: Path, sources: list[str], extensions=(".cpp",)) -> tuple[list, dict, Path]:
    """Scan versions under tmp_path (directories or archives) into a store.

    One group per extension, named after it; returns the snapshots, the
    scan counters and the store directory.
    """
    payload = {
        "software": "demo",
        "groups": [{"name": ext[1:], "extensions": [ext]} for ext in extensions],
        "versions": [{"label": f"v{i}", "path": path} for i, path in enumerate(sources)],
    }
    counters = {}
    store = tmp_path / "store"
    snaps = list(scan_corpus(load_manifest(write_manifest(tmp_path, payload)), store, counters=counters))
    return snaps, counters, store


def rows_by_line(store: Path, group: str = "cpp") -> dict[bytes, list[int]]:
    """Per line digest in the store, the versions whose bit its row has."""
    loaded = load_all_snapshots(store).group(group)
    raw = loaded.digests.tobytes()
    bits = np.unpackbits(loaded.masks, axis=1, bitorder="little")[:, : len(loaded.versions)]
    return {raw[k * 16 : (k + 1) * 16]: np.flatnonzero(row).tolist() for k, row in enumerate(bits)}


def test_scan_corpus_gives_a_revived_line_its_old_row(tree_writer, tmp_path, monkeypatch):
    for i, text in enumerate(["keep\ngone\n", "keep\n", "keep\ngone\n"]):
        tree_writer({"a.cpp": text}, f"v{i}")
    digested = []
    original = ingest._digest
    monkeypatch.setattr(ingest, "_digest", lambda data: digested.append(data) or original(data))
    _, counters, store = scan_sources(tmp_path, ["v0", "v1", "v2"])
    assert rows_by_line(store) == {b2(b"keep"): [0, 1, 2], b2(b"gone"): [0, 2]}
    assert digested.count(b"gone") == 2
    assert counters["cpp"] == ScanCounters(
        files=3, lines=5, lines_digested=3, memo_lines_max=2, index_rows=2
    )


def test_scan_corpus_takes_a_moved_file_from_the_memo(tree_writer, tmp_path):
    tree_writer({"a.cpp": "x\ny\n"}, "v0")
    tree_writer({"sub/a.cpp": "x\ny\n"}, "v1")
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1"])
    # Not reused, since its relpath changed, yet no line is digested again.
    assert counters["cpp"] == ScanCounters(files=2, lines=4, lines_digested=2, memo_lines_max=2, index_rows=2)
    assert rows_by_line(store) == {b2(b"x"): [0, 1], b2(b"y"): [0, 1]}


def test_scan_corpus_of_a_file_unreadable_then_unchanged(tree_writer, tmp_path, monkeypatch):
    tree = {"a.cpp": "x\ny\n", "b.cpp": "z\n"}
    for i in range(3):
        tree_writer(tree, f"v{i}")
    original = Path.read_bytes

    def flaky(self):
        if self.name == "a.cpp" and self.parent.name == "v1":
            raise OSError("permission denied")
        return original(self)

    monkeypatch.setattr(Path, "read_bytes", flaky)
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1", "v2"])
    assert [s.group("cpp").skipped_files for s in snaps] == [0, 1, 0]
    # v1 has no a.cpp to reuse, so v2 splits it and digests its lines again.
    assert counters["cpp"] == ScanCounters(
        files=5, files_reused=2, lines=7, lines_digested=5, memo_lines_max=3, index_rows=3
    )
    assert rows_by_line(store) == {b2(b"x"): [0, 2], b2(b"y"): [0, 2], b2(b"z"): [0, 1, 2]}


@pytest.mark.parametrize("reused_last", [True, False])
def test_scan_corpus_of_a_tar_holding_a_reusable_path_twice(tree_writer, tmp_path, reused_last):
    tree_writer({"x.cpp": "a\nb\n"}, "v0")
    members = [("x.cpp", b"c\n"), ("./x.cpp", b"a\nb\n")]
    if not reused_last:
        members.reverse()
    with tarfile.open(tmp_path / "v1.tar", "w") as tar:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    tree_writer({"x.cpp": "c\n"}, "v2")
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1.tar", "v2"])
    last = members[-1][1].decode()
    assert snaps[1].group("cpp").uloc == {b2(line.encode()) for line in last.split()}
    if reused_last:
        # "c" was digested in v1 but lost to the reused copy: no row until v2.
        rows = {b2(b"a"): [0, 1], b2(b"b"): [0, 1], b2(b"c"): [2]}
        reused, digested = 1, 2 + 1 + 1
    else:
        # v2 reuses the copy v1 kept.
        rows = {b2(b"a"): [0], b2(b"b"): [0], b2(b"c"): [1, 2]}
        reused, digested = 2, 2 + 1 + 0
    assert rows_by_line(store) == rows
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=reused, lines=6, lines_digested=digested, memo_lines_max=3, index_rows=3
    )


def test_scan_corpus_of_duplicate_lines(tree_writer, tmp_path):
    tree_writer({"a.cpp": "d\nd\ne\n", "b.cpp": "e\nd\n"}, "v0")
    tree_writer({"a.cpp": "d\nd\ne\nf\nf\n", "b.cpp": "e\nd\n"}, "v1")
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1"])
    assert [s.group("cpp").uloc_count for s in snaps] == [2, 3]
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=1, lines=12, lines_digested=3, memo_lines_max=3, index_rows=3
    )
    assert rows_by_line(store) == {b2(b"d"): [0, 1], b2(b"e"): [0, 1], b2(b"f"): [1]}


@pytest.mark.parametrize("versions, seed", [(5, 9), (5, 12), (8, 3), (9, 5), (64, 5), (65, 6)])
def test_scan_corpus_equals_standalone_scans_folded(tmp_path, versions, seed):
    # 8/9 and 64/65 versions straddle a mask byte and a 64-bit word.
    rng = random.Random(seed)
    sources = []
    for i, tree in enumerate(random_corpus_history(rng, versions=versions)):
        (tmp_path / f"v{i}").mkdir()  # the tree may be empty
        write_tree(tmp_path / f"v{i}", tree)
        sources.append(f"v{i}")
    snaps, counters, store = scan_sources(tmp_path, sources, extensions=(".x", ".y"))
    # The history revives lines, and leaves files unchanged.
    assert sum(c.lines_digested for c in counters.values()) > sum(c.index_rows for c in counters.values())
    assert sum(c.files_reused for c in counters.values()) > 0
    fresh = standalone_scans(load_manifest(tmp_path / "manifest.json"))
    assert_scans_equal(snaps, fresh)
    folded = write_snapshots(fresh, tmp_path / "folded")
    assert (store / STORE_FILENAME).read_bytes() == folded.read_bytes()


def test_memo_holds_the_lines_of_the_version_just_scanned(tmp_path):
    x = ExtensionGroup(name="x", extensions=(".x",))
    y = ExtensionGroup(name="y", extensions=(".y",))
    memo = {g.name: ingest._LineRows(GroupIndex()) for g in (x, y)}
    for i, tree in enumerate(random_corpus_history(random.Random(11), versions=12)):
        scan_version(write_tree(tmp_path / f"v{i}", tree), [x, y], ordinal=i, memo=memo)
        for name, lines in memo.items():
            expected = {
                line.removesuffix("\r").encode()
                for rel, text in tree.items() if rel.endswith("." + name)
                for line in text.splitlines()
            }
            assert set(lines) == expected
            # Each line maps to the row of its digest.
            rows = [lines[line] for line in sorted(expected)]
            assert lines.index.digests[rows].tobytes() == b"".join(map(b2, sorted(expected)))


def test_scan_corpus_digests_no_line_of_an_unchanged_version(tree_writer, tmp_path, monkeypatch):
    tree = {"a.cpp": "int a;\nint b;\n", "src/b.cpp": "int b;\r\nint c;\n"}
    tree_writer(tree, "v1")
    tree_writer(tree, "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    digested: list[bytes] = []
    original = ingest._digest

    def counting(data: bytes) -> bytes:
        digested.append(data)
        return original(data)

    monkeypatch.setattr(ingest, "_digest", counting)
    counters = {}
    scans = scan_corpus(manifest, counters=counters)
    next(scans)
    assert sorted(digested) == sorted(
        [b"int a;\nint b;\n", b"int b;\r\nint c;\n", b"int a;", b"int b;", b"int c;"]
    )
    assert counters == {"cpp": ScanCounters(files=2, lines=4, lines_digested=3, memo_lines_max=3, index_rows=3)}
    digested.clear()
    next(scans)
    # Only the two files' content digests: both files are v1's, reused.
    assert sorted(digested) == [b"int a;\nint b;\n", b"int b;\r\nint c;\n"]
    assert counters == {
        "cpp": ScanCounters(files=4, files_reused=2, lines=8, lines_digested=3, memo_lines_max=3, index_rows=3)
    }


def test_scan_corpus_removes_snapshots_it_did_not_write(tree_writer, tmp_path):
    # A longer corpus with one more group, then a rescan of a shorter one.
    store = tmp_path / "store"
    payload = manifest_payload()
    payload["groups"].append({"name": "h", "extensions": [".h"]})
    payload["versions"] = [{"label": f"old{i}", "path": f"old{i}"} for i in range(4)]
    for i in range(4):
        tree_writer({"a.cpp": f"old {i}\n", "a.h": "h\n"}, f"old{i}")
    list(scan_corpus(load_manifest(write_manifest(tmp_path, payload)), store))
    assert load_all_snapshots(store).labels == ["old0", "old1", "old2", "old3"]
    tree_writer({"a.cpp": "one\n", "a.h": "h\n"}, "v1")
    tree_writer({"a.cpp": "two\n"}, "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    snaps = list(scan_corpus(manifest, store))
    # Ordinals 2-3 and the h group, which this manifest drops, are gone.
    assert [p.name for p in store.iterdir()] == [STORE_FILENAME]
    loaded = load_all_snapshots(store)
    assert loaded.labels == ["v1", "v2"] and list(loaded.groups) == ["cpp"]
    assert_store_holds(loaded, snaps)


# --- archives read in worker processes -------------------------------------


def mixed_corpus(tmp_path: Path, versions: int = 6) -> tuple[CorpusManifest, CorpusManifest]:
    """One history as directories only, and with every other version a .tar.gz."""
    rng = random.Random(20261018)
    groups = [{"name": "x", "extensions": [".x"]}, {"name": "y", "extensions": [".y"]}]
    dirs, mixed = [], []
    for i, tree in enumerate(random_corpus_history(rng, versions=versions)):
        root = write_tree(tmp_path / f"v{i}", tree)
        dirs.append({"label": f"v{i}", "path": root.name})
        path = make_tar(root, tmp_path / f"v{i}.tar.gz", "w:gz").name if i % 2 else root.name
        mixed.append({"label": f"v{i}", "path": path})
    payload = {"software": "demo", "groups": groups}
    (tmp_path / "dirs.json").write_text(json.dumps({**payload, "versions": dirs}))
    (tmp_path / "mixed.json").write_text(json.dumps({**payload, "versions": mixed}))
    return load_manifest(tmp_path / "dirs.json"), load_manifest(tmp_path / "mixed.json")


def test_scan_corpus_of_archives_equals_scan_of_directories(tmp_path):
    dirs, mixed = mixed_corpus(tmp_path)
    from_dirs = list(scan_corpus(dirs, tmp_path / "dirs-store"))
    assert list(scan_corpus(mixed, tmp_path / "mixed-store")) == from_dirs
    assert multiprocessing.active_children() == []
    stores = [(tmp_path / name / STORE_FILENAME).read_bytes() for name in ("dirs-store", "mixed-store")]
    assert stores[0] == stores[1]


def test_scan_corpus_closed_early_leaves_no_worker(tmp_path):
    _, mixed = mixed_corpus(tmp_path)
    scans = scan_corpus(mixed, tmp_path / "store")
    assert next(scans).ordinal == 0
    scans.close()
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "store").exists()


def test_scan_corpus_of_an_archive_deleted_after_the_manifest(tmp_path):
    _, mixed = mixed_corpus(tmp_path)
    (tmp_path / "v3.tar.gz").unlink()
    with pytest.raises(MissingSourceError, match="v3.tar.gz"):
        list(scan_corpus(mixed, tmp_path / "store"))
    assert multiprocessing.active_children() == []
