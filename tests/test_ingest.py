"""Release scanning, line normalization, manifests, and the store format."""

from __future__ import annotations

import bz2
import gzip
import hashlib
import io
import json
import lzma
import os
import posixpath
import random
import struct
import tarfile
from pathlib import Path

import pytest

from codesurvival import ingest
from codesurvival.cli import main
from codesurvival.curves import MetricKind
from codesurvival.errors import (
    DataError,
    ManifestError,
    StoreFormatError,
    UsageError,
)
from codesurvival.ingest import (
    CorpusManifest,
    ExtensionGroup,
    ScanCounters,
    VersionEntry,
    VersionSnapshot,
    load_manifest,
    normalize_lines,
    scan_corpus,
    scan_version,
    store_snapshot,
)
from codesurvival.store import STORE_FILENAME, GroupIndex, GroupVersion, LifetimeIndex, load_all_snapshots, write_store
from codesurvival.survival import build_curve_family

from conftest import (
    assert_no_child_process,
    b2,
    indexed_rows,
    line_digests,
    nul_lines,
    oracle_store,
    random_corpus_history,
    random_release_history,
    refuse_reads,
    row_versions,
    scan_sources,
    write_tree,
)

CPP = ExtensionGroup(name="cpp", extensions=(".cpp",))
H = ExtensionGroup(name="h", extensions=(".h",))


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


def test_normalize_matches_the_per_line_oracle():
    rng = random.Random(20261018)
    cases = [b"", b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b"x\r", b"x\r\r", b"x\r\r\n", b"\r\n\r\n"]
    for _ in range(3000):
        parts = rng.choices([b"\r", b"\n", b"\r\n", b"\r\r\n", b"a", b"bc", b" "], k=rng.randint(0, 12))
        cases.append(b"".join(parts))
    for data in cases:
        assert normalize_lines(data) == line_digests(data), data


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
    cpp = snap.groups["cpp"]
    assert [f.relpath for f in cpp.files] == ["a.cpp", "src/b.cpp"]
    assert [f.basename for f in cpp.files] == ["a.cpp", "b.cpp"]
    # "int a;" appears in two files but pools to one line digest.
    assert cpp.uloc == frozenset({b2(b"int a;"), b2(b"int b;")})
    assert cpp.uloc_count == 2
    assert snap.groups["h"].file_count == 1


def test_scan_label_defaults_to_source_name(tree_writer):
    root = tree_writer({"a.cpp": "x\n"})
    assert scan_version(root, [CPP]).version_label == root.name


def test_scan_content_digest_matches_hashlib(tree_writer):
    root = tree_writer({"a.cpp": "int a;\n"})
    record = scan_version(root, [CPP]).groups["cpp"].files[0]
    assert record.content_digest == b2(b"int a;\n")


def test_scan_longest_suffix_wins(tree_writer):
    incl = ExtensionGroup(name="incl", extensions=(".inc.h",))
    root = tree_writer({"gen.inc.h": "g\n", "plain.h": "p\n"})
    snap = scan_version(root, [H, incl])
    assert [f.basename for f in snap.groups["incl"].files] == ["gen.inc.h"]
    assert [f.basename for f in snap.groups["h"].files] == ["plain.h"]


def test_scan_suffix_match_is_case_sensitive(tree_writer):
    root = tree_writer({"A.CPP": "x\n", "b.cpp": "y\n"})
    assert [f.basename for f in scan_version(root, [CPP]).groups["cpp"].files] == ["b.cpp"]


def test_scan_skips_symlinks(tree_writer):
    root = tree_writer({"real.cpp": "x\n"})
    (root / "link.cpp").symlink_to(root / "real.cpp")
    snap = scan_version(root, [CPP])
    assert [f.basename for f in snap.groups["cpp"].files] == ["real.cpp"]
    assert snap.groups["cpp"].skipped_files == 0


def test_scan_counts_unreadable_files(tree_writer, monkeypatch):
    root = tree_writer({"ok.cpp": "x\n", "locked.cpp": "y\n"})
    refuse_reads(monkeypatch, lambda path: path.name == "locked.cpp")
    snap = scan_version(root, [CPP])
    assert [f.basename for f in snap.groups["cpp"].files] == ["ok.cpp"]
    assert snap.groups["cpp"].skipped_files == 1


def test_scan_missing_source_is_an_error(tmp_path):
    with pytest.raises(ManifestError, match="nowhere does not exist"):
        scan_version(tmp_path / "nowhere", [CPP])


def test_scan_rejects_overlapping_groups(tree_writer):
    root = tree_writer({"a.cpp": "x\n"})
    other = ExtensionGroup(name="other", extensions=(".cpp", ".cc"))
    with pytest.raises(ManifestError):
        scan_version(root, [CPP, other])


# --- tar archives -----------------------------------------------------------


def make_tar(src: Path, dest: Path, mode: str = "w") -> Path:
    with tarfile.open(dest, mode) as tar:
        tar.add(src, arcname=".")
    return dest


def scan_alone(root: Path, source: Path, extensions: tuple[str, ...] = (".txt",)) -> tuple[VersionSnapshot, bytes]:
    """A corpus of this one release, scanned under root: its snapshot and its store's bytes."""
    root.mkdir(parents=True, exist_ok=True)
    [snapshot], _, store = scan_sources(root, [os.fspath(source)], extensions)
    return snapshot, (store / STORE_FILENAME).read_bytes()


def test_scan_tar_equals_scan_directory(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "int a;\n", "src/b.cpp": "int b;\n", "inc/c.h": "h\n"})
    archive = make_tar(root, tmp_path / "v1.tar")
    _, from_dir = scan_alone(tmp_path / "dir", root, (".cpp", ".h"))
    assert scan_alone(tmp_path / "tar", archive, (".cpp", ".h"))[1] == from_dir


def test_scan_compressed_tar(tree_writer, tmp_path):
    root = tree_writer({"a.cpp": "int a;\n"})
    archive = make_tar(root, tmp_path / "v1.tar.gz", "w:gz")
    assert scan_version(archive, [CPP]).groups["cpp"].uloc == frozenset({b2(b"int a;")})


def test_tar_keeps_leading_dots_of_member_names(tmp_path):
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        for name, data in ((".cfg/x.txt", b"x\n"), ("./.y.txt", b"y\n")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    root = write_tree(tmp_path / "tree", {".cfg/x.txt": "x\n", ".y.txt": "y\n"})
    from_tar, store = scan_alone(tmp_path / "tar", archive)
    files = from_tar.groups["txt"].files
    assert [(r.basename, r.relpath) for r in files] == [("x.txt", ".cfg/x.txt"), (".y.txt", ".y.txt")]
    assert store == scan_alone(tmp_path / "dir", root)[1]


def test_tar_and_directory_give_identical_snapshots(tmp_path):
    rng = random.Random(20261018)
    for root in (tmp_path / f"c{k}" for k in range(6)):
        # Hide some files and directories behind a leading dot.
        history = [
            {(("." + rel) if rng.random() < 0.3 else rel): text for rel, text in tree.items()}
            for tree in random_corpus_history(rng, versions=4)
        ]
        _, _, store = scan_sources(root / "dirs", history, (".x", ".y"))
        archives = [make_tar(root / "dirs" / f"v{i}", root / f"v{i}.tar.gz", "w:gz").name for i in range(4)]
        _, _, packed = scan_sources(root, archives, (".x", ".y"))
        assert (packed / STORE_FILENAME).read_bytes() == (store / STORE_FILENAME).read_bytes()


@pytest.mark.parametrize("mode, suffix", [("w", ".tar"), ("w:gz", ".tar.gz")])
def test_tar_hard_link_reads_as_its_target(tmp_path, mode, suffix):
    root = write_tree(tmp_path / "tree", {"x.txt": "one\ntwo\n", "z.txt": "z\n"})
    os.link(root / "x.txt", root / "y.txt")
    archive = make_tar(root, tmp_path / f"v1{suffix}", mode)
    with tarfile.open(archive) as tar:
        assert tar.getmember("./y.txt").islnk()
    from_dir, store = scan_alone(tmp_path / "dir", root)
    assert [r.relpath for r in from_dir.groups["txt"].files] == ["x.txt", "y.txt", "z.txt"]
    assert scan_alone(tmp_path / "tar", archive)[1] == store


def test_tar_hard_link_to_a_missing_file_is_skipped(tmp_path):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        info = tarfile.TarInfo("y.txt")
        info.type, info.linkname = tarfile.LNKTYPE, "gone.txt"
        tar.addfile(info)
    payload = scan_version(archive, [txt]).groups["txt"]
    assert (payload.file_count, payload.skipped_files, payload.uloc_count) == (0, 1, 0)


def test_tar_member_archived_last_wins(tmp_path):
    # "tar -r" appends a second copy; extraction keeps the last one.
    archive = tmp_path / "v1.tar"
    with tarfile.open(archive, "w") as tar:
        for name, data in (("x.txt", b"old\n"), ("./x.txt", b"older\n"), ("x.txt", b"new\n")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    root = write_tree(tmp_path / "tree", {"x.txt": "new\n"})
    from_tar, store = scan_alone(tmp_path / "tar", archive)
    assert (from_tar.groups["txt"].file_count, from_tar.groups["txt"].uloc_count) == (1, 1)
    assert store == scan_alone(tmp_path / "dir", root)[1]


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
    # Read in this process, where the rewinds are counted.
    from_tar = scan_version(archive, [CPP], label="v1")
    assert rewinds == []
    assert [r.relpath for r in from_tar.groups["cpp"].files] == ["a.cpp", "copy.cpp"]
    assert scan_alone(tmp_path / "tar", archive, (".cpp",))[1] == scan_alone(tmp_path / "dir", root, (".cpp",))[1]


def _tar_oracle(archive: Path, groups) -> list:
    """What tarfile itself reads for every group member, links resolved by extractfile."""
    read = []
    with tarfile.open(archive) as tar:
        for member in tar.getmembers():
            relpath = posixpath.normpath(member.name)
            group = ingest._match_group(relpath.rpartition("/")[2], groups)
            if group is None or not (member.isreg() or member.islnk()):
                continue
            try:
                reader = tar.extractfile(member)
            except KeyError:
                reader = None
            read.append((group, relpath, None if reader is None else reader.read()))
    return read


# Members as (name, bytes or None, link target or None); with neither, a
# directory.
HARD_LINK_MEMBERS = [
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


def test_tar_hard_links_resolve_as_tarfile_does(tmp_path):
    txt = ExtensionGroup(name="txt", extensions=(".txt",))
    archive = tmp_path / "v1.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        for name, data, target in HARD_LINK_MEMBERS:
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


TXT = ExtensionGroup(name="txt", extensions=(".txt",))
LONG_NAME = "d" * 60 + "/" + "e" * 60 + "/long.txt"  # ustar splits it into prefix and name
COMPRESS = {"": lambda raw: raw, ".gz": gzip.compress, ".bz2": bz2.compress, ".xz": lzma.compress}


def tar_bytes(members, tar_format=tarfile.PAX_FORMAT, **options) -> bytes:
    """An uncompressed tar of (TarInfo, bytes or None) members, as tarfile writes it."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tar_format, **options) as tar:
        for info, data in members:
            info.size = 0 if data is None else len(data)
            tar.addfile(info, None if data is None else io.BytesIO(data))
    return buf.getvalue()


def tar_info(name, kind=tarfile.REGTYPE, linkname=""):
    info = tarfile.TarInfo(name)
    info.type, info.linkname = kind, linkname
    return info


def with_base256_size(raw: bytes, name: str) -> bytes:
    """The tar with member ``name``'s size field rewritten in base-256.

    Its checksum is redone over signed bytes, as some old tars did, so
    the 0x80 byte makes it differ from the unsigned sum.
    """
    with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
        member = tar.getmember(name)
        start, size = member.offset_data - 512, member.size
    header = bytearray(raw[start : start + 512])
    header[124:136] = b"\x80" + size.to_bytes(11, "big")
    header[148:156] = b" " * 8
    header[148:156] = b"%06o\0 " % sum(byte - 256 if byte > 127 else byte for byte in header)
    return raw[:start] + bytes(header) + raw[start + 512 :]


def oracle_members(tar_format) -> list:
    members = []
    for name, data, target in HARD_LINK_MEMBERS:
        kind = tarfile.LNKTYPE if target else tarfile.DIRTYPE if data is None else tarfile.REGTYPE
        members.append((tar_info(name, kind, target or ""), data))
    members += [
        (tar_info(LONG_NAME), b"long\n"),
        (tar_info("\u00fcn\u00ef/\u00e7\u00f8d\u00e9.txt"), "\u00fc\n".encode()),
        (tar_info("latin-\udce9.txt"), b"not UTF-8\n"),  # a name byte UTF-8 cannot decode
        (tar_info("sub", tarfile.DIRTYPE), None),
        (tar_info("v7dir.txt/", tarfile.AREGTYPE), None),  # a directory, as v7 tar wrote one
        (tar_info("to-v7dir.txt", tarfile.LNKTYPE, "v7dir.txt"), None),  # reads nothing
        (tar_info("sub/s.txt", tarfile.SYMTYPE, "../later.txt"), None),  # not read
        (tar_info("empty.txt"), b""),
        (tar_info("cont.txt", tarfile.CONTTYPE), b"contiguous\n"),
        (tar_info("a/./n.txt"), b"n1\n"),
        (tar_info("a/n.txt"), b"n2\n"),  # the same path as the member before it
        (tar_info("b256.txt"), b"base 256\n"),
        (tar_info("blob2.bin"), b"blob 2\n"),
        (tar_info("to-blob2.txt", tarfile.LNKTYPE, "blob2.bin"), None),
    ]
    if tar_format != tarfile.USTAR_FORMAT:  # ustar has no room for a link name over 100 bytes
        members.append((tar_info("to-long.txt", tarfile.LNKTYPE, LONG_NAME), None))
    return members


@pytest.mark.parametrize("compression", ["", ".gz", ".bz2", ".xz"])
@pytest.mark.parametrize("tar_format", ["ustar", "gnu", "pax"])
def test_tar_reader_reads_what_tarfile_reads(tmp_path, tar_format, compression):
    fmt = {"ustar": tarfile.USTAR_FORMAT, "gnu": tarfile.GNU_FORMAT, "pax": tarfile.PAX_FORMAT}[tar_format]
    # A pax archive also starts with a global header.
    options = {"pax_headers": {"comment": "global"}} if fmt == tarfile.PAX_FORMAT else {}
    raw = with_base256_size(tar_bytes(oracle_members(fmt), fmt, **options), "b256.txt")
    archive = tmp_path / f"v1.tar{compression}"
    archive.write_bytes(COMPRESS[compression](raw))
    read = list(ingest._read_version(archive, [TXT]))
    assert read == _tar_oracle(archive, [TXT])
    contents = {relpath: data for _, relpath, data in read}
    assert contents[LONG_NAME] == b"long\n" and contents["b256.txt"] == b"base 256\n"
    assert contents["cont.txt"] == b"contiguous\n" and contents["latin-\udce9.txt"] == b"not UTF-8\n"
    assert contents["to-blob2.txt"] == b"blob 2\n" and contents["a/n.txt"] == b"n2\n"
    if tar_format != "ustar":
        assert contents["to-long.txt"] == b"long\n"


def test_tar_of_gzip_data_named_tar_is_read(tmp_path):
    raw = tar_bytes(oracle_members(tarfile.GNU_FORMAT), tarfile.GNU_FORMAT)
    archive = tmp_path / "v1.tar"
    archive.write_bytes(gzip.compress(raw))
    read = list(ingest._read_version(archive, [TXT]))
    assert read == _tar_oracle(archive, [TXT])
    assert (TXT, LONG_NAME, b"long\n") in read


def test_tar_global_pax_record_applies_to_later_members(tmp_path):
    archive = tmp_path / "v1.tar"
    archive.write_bytes(tar_bytes([(tar_info("a.txt"), b"a\n")], pax_headers={"path": "g.txt"}))
    read = list(ingest._read_version(archive, [TXT]))
    assert read == _tar_oracle(archive, [TXT]) == [(TXT, "g.txt", b"a\n")]


def test_tar_relpaths_are_normalized_as_on_extraction(tmp_path):
    archive = tmp_path / "v1.tar"
    members = [("a/./x.txt", b"old\n"), ("a/x.txt", b"new\n"), ("b//y.txt", b"y\n")]
    archive.write_bytes(tar_bytes([(tar_info(name), data) for name, data in members]))
    root = write_tree(tmp_path / "tree", {"a/x.txt": "new\n", "b/y.txt": "y\n"})
    from_tar, store = scan_alone(tmp_path / "tar", archive)
    assert [r.relpath for r in from_tar.groups["txt"].files] == ["a/x.txt", "b/y.txt"]
    assert from_tar.groups["txt"].uloc_count == 2
    assert store == scan_alone(tmp_path / "dir", root)[1]


def test_tar_hard_link_to_a_symbolic_link_reads_nothing(tmp_path):
    # Extraction makes it a symbolic link, which a directory scan does not follow.
    members = [
        (tar_info("x.txt"), b"x\n"),
        (tar_info("s.txt", tarfile.SYMTYPE, "x.txt"), None),
        (tar_info("h.txt", tarfile.LNKTYPE, "s.txt"), None),
    ]
    archive = tmp_path / "v1.tar"
    archive.write_bytes(tar_bytes(members))
    assert list(ingest._read_version(archive, [TXT])) == [(TXT, "x.txt", b"x\n"), (TXT, "h.txt", None)]


def refused_archive(raw: bytes, case: str) -> bytes:
    """``raw``, a tar of a.txt, blob.bin and b.txt, made unreadable as ``case`` says."""
    with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
        a, blob, b = tar.getmembers()
    if case == "bad-checksum":  # in b.txt's name: tarfile would end the archive there quietly
        return raw[: b.offset] + b"B" + raw[b.offset + 1 :]
    if case == "cut-in-a-group-file":
        return raw[: a.offset_data + 100]
    if case == "cut-in-a-skipped-file":
        return raw[: blob.offset_data + 100_000]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case", ["bad-checksum", "cut-in-a-group-file", "cut-in-a-skipped-file", "gnu-sparse", "pax-sparse"]
)
def test_tar_refusal_is_one_line_and_exit_2(tmp_path, capsys, case):
    members = [
        (tar_info("a.txt"), b"a\n" * 1000),
        (tar_info("blob.bin"), bytes(300_000)),
        (tar_info("b.txt"), b"b\n"),
    ]
    if case == "gnu-sparse":
        members[2] = (tar_info("b.txt", tarfile.GNUTYPE_SPARSE), b"b\n")
        raw = tar_bytes(members, tarfile.GNU_FORMAT)
    elif case == "pax-sparse":
        members[2][0].pax_headers = {"GNU.sparse.major": "1", "GNU.sparse.minor": "0"}
        raw = tar_bytes(members)
    else:
        raw = refused_archive(tar_bytes(members), case)
    (tmp_path / "v1.tar").write_bytes(raw)
    manifest = write_manifest(tmp_path, {
        "software": "demo",
        "groups": [{"name": "txt", "extensions": [".txt"]}],
        "versions": [{"label": "v1", "path": "v1.tar"}],
    })
    capsys.readouterr()
    assert main(["scan", "--manifest", str(manifest), "--store", str(tmp_path / "store")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read tar archive ") and "v1.tar" in err and err.count("\n") == 1
    if case.endswith("sparse"):
        assert "'b.txt' is a GNU sparse file" in err


def test_tar_gzip_trailer_checksum_is_verified(tmp_path):
    # The CRC-32 sits after the end-of-archive blocks, here 2 MiB after them.
    raw = tar_bytes([(tar_info("a.cpp"), b"int a;\n")]) + bytes(2 << 20)
    whole = bytearray(gzip.compress(raw))
    whole[-8] ^= 0xFF
    archive = tmp_path / "v1.tar.gz"
    archive.write_bytes(bytes(whole))
    with pytest.raises(UsageError, match=archive.name):
        scan_version(archive, [CPP])


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


def test_load_manifest_refuses_decreasing_dates(tmp_path, tree_writer):
    for label in ("v1", "v2", "v3", "v4"):
        tree_writer({"a.cpp": f"{label}\n"}, label)
    payload = manifest_payload()
    payload["versions"] = [
        {"label": "v1", "path": "v1", "date": "2020-03-01"},
        {"label": "v2", "path": "v2"},  # undated versions are not compared
        {"label": "v3", "path": "v3", "date": "2020-03-01"},
        {"label": "v4", "path": "v4", "date": "2021-01-01"},
    ]
    assert [v.label for v in load_manifest(write_manifest(tmp_path, payload)).versions] == ["v1", "v2", "v3", "v4"]
    payload["versions"][3]["date"] = "2019-01-01"
    with pytest.raises(ManifestError) as refused:
        load_manifest(write_manifest(tmp_path, payload))
    message = str(refused.value)
    assert "'v4' dated 2019-01-01 is listed after version 'v3' dated 2020-03-01" in message
    assert "\n" not in message


def test_load_manifest_missing_snapshot_source(tmp_path, tree_writer):
    tree_writer({"a.cpp": "x\n"}, "v1")
    with pytest.raises(ManifestError, match="v2 does not exist"):
        load_manifest(write_manifest(tmp_path, manifest_payload()))


def test_scan_names_an_unsupported_source_apart_from_a_missing_one(tmp_path, tree_writer, capsys):
    tree_writer({"a.cpp": "x\n"}, "v1")
    payload = manifest_payload()
    payload["versions"][1]["path"] = "v2.zip"
    manifest = write_manifest(tmp_path, payload)
    args = ["scan", "--manifest", str(manifest), "--store", str(tmp_path / "store")]
    capsys.readouterr()
    assert main(args) == 2
    missing = capsys.readouterr().err
    assert missing == f"error: version 'v2': snapshot source {tmp_path / 'v2.zip'} does not exist (expected a directory or tar archive)\n"
    (tmp_path / "v2.zip").write_bytes(b"PK\x05\x06" + bytes(18))
    assert main(args) == 2
    unsupported = capsys.readouterr().err
    assert unsupported == (
        f"error: version 'v2': snapshot source {tmp_path / 'v2.zip'} is neither a directory nor a tar "
        "archive (.tar, .tar.gz, .tgz, .tar.bz2, .tar.xz)\n"
    )
    assert not (tmp_path / "store").exists()


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


def test_load_manifest_refuses_an_empty_label(tmp_path, tree_writer):
    tree_writer({"a.cpp": "x\n"}, "v1")
    tree_writer({"a.cpp": "y\n"}, "v2")
    payload = manifest_payload()
    payload["versions"][1]["label"] = ""
    with pytest.raises(ManifestError, match=r"^manifest \S*manifest\.json: version entry 1 has an empty label$"):
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


def test_store_round_trip(tmp_path):
    trees = [
        {"a.cpp": "int a;\nint b;\n", "inc/c.h": "h\n"},
        {"a.cpp": "int a;\n", "b.cpp": "int c;\nint b;\n"},
        {"inc/c.h": "h\nk\n"},
    ]
    _, _, store = scan_sources(tmp_path, trees, (".cpp", ".h"))
    assert [p.name for p in store.iterdir()] == [STORE_FILENAME]
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees, (".cpp", ".h"))


def test_store_write_is_deterministic(tmp_path):
    tree = {"a.cpp": "z\ny\nx\n", "b.cpp": "q\n"}
    _, _, first = scan_sources(tmp_path / "s1", [tree, tree])
    _, _, second = scan_sources(tmp_path / "s2", [tree, tree])
    assert (first / STORE_FILENAME).read_bytes() == (second / STORE_FILENAME).read_bytes()
    # Written last and renamed into place: nothing else is left behind.
    assert [p.name for p in first.iterdir()] == [STORE_FILENAME]


def test_store_round_trips_awkward_names(tree_writer, tmp_path):
    # A name that is not UTF-8 reaches the record with surrogate escapes.
    tree = {"dir with space/my file.cpp": "x\n", "d\u00e9j\u00e0/\u00fc.cpp": "y\n", os.fsdecode(b"caf\xe9.cpp"): "z\n"}
    root = tree_writer(tree)
    labels = ["release 1.0 beta\nnext \"line\"", "\u00e9t\u00e9 2"]
    _, _, store = scan_sources(tmp_path, [root.name] * 2, labels=labels)
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, [tree] * 2, labels=labels)
    loaded = load_all_snapshots(store)
    assert loaded.labels == labels
    # Relpaths are not stored, only the digests of their parts.
    expected = {
        b2("my file.cpp".encode() + b"\0" + b2(b"x\n")) + b2("dir with space".encode()),
        b2("\u00fc.cpp".encode() + b"\0" + b2(b"y\n")) + b2("d\u00e9j\u00e0".encode()),
        b2(b"caf\xe9.cpp\0" + b2(b"z\n")) + b2(b""),
    }
    assert indexed_rows(loaded.group("cpp").files, 0) == expected


def test_store_rejects_corruption(tmp_path):
    trees = [{"a.cpp": "w\nx\ny\n", "b.cpp": "w\n"}, {"a.cpp": "y\nz\n"}]
    _, _, store = scan_sources(tmp_path, trees)
    path = store / STORE_FILENAME
    good = path.read_bytes()
    assert good == oracle_store(tmp_path, trees)
    line, body = good.split(b"\n", 1)
    header = json.loads(line)
    assert header["format"] == 7 and header["digest"] == "blake2b-128"
    layout = header["groups"]["cpp"]
    assert {kind: {k: v for k, v in entry.items() if k != "checksums"} for kind, entry in layout.items()} == {
        "lines": {"digests": 0, "keys": 4, "table": 64, "table_rows": 3, "multi": 88, "multi_rows": 0},
        "files": {"digests": 88, "keys": 3, "table": 184, "table_rows": 2, "multi": 200, "multi_rows": 0},
    }
    assert header["versions"][0]["groups"] == {"cpp": {"files": 2, "skipped": 0, "uloc": 3}}
    assert len(body) == 4 * 16 + 3 * 8 + 3 * 32 + 2 * 8
    # Per key set: where each section starts and ends in the body.
    bounds = {
        kind: {"digests": (e["digests"], e["table"]), "table": (e["table"], e["multi"]), "multi": (e["multi"], e["multi"] + 8 * e["multi_rows"])}
        for kind, e in layout.items()
    }
    for kind, sections in bounds.items():
        assert layout[kind]["checksums"] == {name: b2(body[a:z]).hex() for name, (a, z) in sections.items()}
    # Rows in life order, so each run is in the table once, with its number of rows:
    # w and x, then y, then z; a.cpp's first content and b.cpp, then a.cpp's second.
    tables = {kind: list(struct.iter_unpack("<HHI", body[slice(*bounds[kind]["table"])])) for kind in layout}
    assert tables == {"lines": [(0, 1, 2), (0, 2, 1), (1, 2, 1)], "files": [(0, 1, 2), (1, 2, 1)]}

    def with_header(**changes) -> bytes:
        return json.dumps({**header, **changes}).encode() + b"\n" + body

    def with_version(**changes) -> bytes:
        return with_header(versions=[{**header["versions"][0], **changes}, header["versions"][1]])

    def with_group(**changes) -> bytes:
        entry = header["versions"][0]["groups"]["cpp"]
        return with_version(groups={"cpp": {**entry, **changes}})

    def with_layout(**key_sets) -> bytes:
        return with_header(groups={"cpp": {**layout, **key_sets}})

    lines, files = layout["lines"], layout["files"]
    unlabelled = {k: v for k, v in header["versions"][0].items() if k != "label"}
    format_6 = {k: v for k, v in lines.items() if not k.startswith("table")} | {"runs": 64}
    cases = [
        (b"nonsense\n" + good, "header"),
        (b"", "header"),
        (line, "header"),  # no newline, so no sections either
        (b"\xff\xfe\n" + body, "header"),  # not UTF-8
        (b"[3]\n" + body, "header"),
        (with_header(format=2), "version 2"),
        (with_header(format=3), "version 3.*rescan"),
        (with_header(format=4), "version 4.*rescan"),
        (with_header(format=5), "version 5.*rescan"),
        (with_header(format=6), "version 6, only 7 is read; rescan"),
        (with_header(digest="sha256"), "'sha256'.*'blake2b-128'.*rescan"),
        (with_header(versions={}), "'versions'"),
        (with_header(groups=[]), "'groups'"),
        (with_header(versions=[unlabelled, header["versions"][1]]), "'label'"),
        (with_version(ordinal=1), "ordinal"),
        (with_version(groups={}), "groups"),
        (with_group(uloc="2"), "'uloc'"),
        (with_group(skipped=None), "'skipped'"),
        (with_group(files=[["a.cpp", "00" * 16]]), "'files'"),  # a format 3 file list
        (with_group(files=None), "'files'"),
        (with_header(groups={"cpp": lines}), "'lines'"),
        (with_header(groups={"cpp": {"lines": lines}}), "'files'"),
        (
            with_layout(
                lines={**lines, "keys": 3, "table": 48, "multi": 72},
                files={**files, "digests": 72, "table": 168, "multi": 184},
            ),
            "bytes",
        ),
        (with_layout(lines={"digests": 0, "keys": 4, "masks": 64}), "lines field 'multi_rows'"),  # format 4
        (with_layout(lines={"digests": 0, "keys": 4, "runs": 64}), "lines field 'multi_rows'"),  # format 5
        (with_layout(lines=format_6), "lines field 'table_rows'"),
        (with_layout(lines={**lines, "runs": 64}), "lines .*laid out"),
        (with_layout(lines={**lines, "table": 48}), "lines .*laid out"),
        (with_layout(lines={**lines, "digests": 3, "table": 67, "multi": 91}), "laid out"),
        (with_layout(lines={**lines, "keys": -1, "table": -16, "multi": 8}), "laid out"),
        (with_layout(lines={**lines, "multi_rows": 5}), "lines .*laid out"),  # more than its rows
        (with_layout(lines={**lines, "multi_rows": -1}), "lines .*laid out"),
        (with_layout(lines={**lines, "table_rows": 5, "multi": 104}), "lines .*laid out"),  # more than its rows
        (with_layout(lines={**lines, "table_rows": -1, "multi": 56}), "lines .*laid out"),
        (with_layout(lines={**lines, "checksums": None}), "lines .*laid out"),
        (with_layout(lines={**lines, "checksums": {"table": lines["checksums"]["table"]}}), "lines .*laid out"),
        (with_layout(lines={**lines, "checksums": {**lines["checksums"], "table": 7}}), "lines .*laid out"),
        (with_layout(files={**files, "table": 92}), "files .*laid out"),
        (with_layout(files={**files, "digests": 96, "table": 192, "multi": 208}), "files .*laid out"),
        (good + b"trailing junk", "bytes"),
        (good[:-2], "bytes"),  # truncated
    ]
    for data, match in cases:
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match=match):
            load_all_snapshots(store)

    def with_sections(kind: str, digests: list = (), table: list = (), seal: bool = True) -> bytes:
        """The good store with a key set's first row digests and table entries replaced, its checksums rewritten if ``seal``."""
        data = bytearray(body)
        for section, replacement in (("digests", b"".join(digests)), ("table", b"".join(struct.pack("<HHI", *run) for run in table))):
            first = bounds[kind][section][0]
            data[first : first + len(replacement)] = replacement
        checksums = {kind: {name: b2(data[a:z]).hex() for name, (a, z) in bounds[kind].items()}}
        if not seal:
            checksums = {}
        entries = {k: {**e, "checksums": checksums.get(k, e["checksums"])} for k, e in layout.items()}
        return json.dumps({**header, "groups": {"cpp": entries}}).encode() + b"\n" + bytes(data)

    def table_cases(kind: str) -> list:
        """Run tables a scan could not have written, each with what refuses it."""
        table, rows = tables[kind], layout[kind]["keys"]
        (b0, d0, c0), (b1, d1, c1), (b, _, c) = table[0], table[1], table[-1]
        return [
            ([*table[:-1], (b, 3, c)], "runs are not all within versions 0 to 2"),  # past V
            ([*table[:-1], (2, 2, c)], "runs are not all within versions 0 to 2"),  # empty
            ([table[1], table[0], *table[2:]], r"run table is not strictly in \(death, birth\) order"),
            ([table[0], (b0, d0, c1), *table[2:]], r"run table is not strictly in \(death, birth\) order"),  # repeated
            ([(b0, d0, c0 + c1), (b1, d1, 0), *table[2:]], "run table has a run of 0 rows"),
            ([(b0, d0, c0 + 1), *table[1:]], f"run table counts sum to {rows + 1}, not to its {rows} rows"),
        ]

    # Key sets whose rows a scan could not have written are refused when
    # their rows are first read; the other key set stays usable.
    for kind, other in (("lines", "files"), ("files", "lines")):
        first, end = bounds[kind]["digests"]
        width = (end - first) // layout[kind]["keys"]
        d = [body[k : k + width] for k in range(first, end, width)]
        # The first run holds rows 0 and 1, and the last run's row is the key set's last.
        for data, error, match in (
            (with_sections(kind, digests=[d[1], d[0]], seal=False), DataError, "digests section does not match its checksum"),
            (with_sections(kind, table=[(0, 2, 2)], seal=False), DataError, "table section does not match its checksum"),
            *((with_sections(kind, table=table), StoreFormatError, match) for table, match in table_cases(kind)),
            (with_sections(kind, digests=[d[1], d[0]]), StoreFormatError, "digests do not increase within each run"),
            (with_sections(kind, digests=[d[0], d[0]]), StoreFormatError, "digests do not increase within each run"),
            # The last row's run, [1, 2), touches the first's, [0, 1).
            (with_sections(kind, digests=[*d[:-1], d[0]]), StoreFormatError, "rows of one digest overlap or touch"),
            # One key in two directories: its rows belong in the multi section.
            (with_sections(kind, digests=[d[0], d[0][:16] + b"\xff" * (width - 16)]), StoreFormatError, "multi section does not list"),
        ):
            if kind == "lines" and "multi" in match:
                continue  # a line's key is its whole digest
            path.write_bytes(data)
            group = load_all_snapshots(store).group("cpp")
            assert len(getattr(group, other).digests) == layout[other]["keys"]
            for rows in ("digests", "runs"):
                with pytest.raises(error, match=f"{kind} {match}"):
                    getattr(getattr(group, kind), rows)
    # y's run, [0, 2), overlaps w's or x's, [0, 1).
    lines_digests = [body[k : k + 16] for k in range(0, 64, 16)]
    path.write_bytes(with_sections("lines", digests=[*lines_digests[:2], lines_digests[0]]))
    with pytest.raises(StoreFormatError, match="lines rows of one digest overlap or touch"):
        load_all_snapshots(store).group("cpp").lines.runs

    # The kernel reads the run table and multi section alone: it refuses
    # a table that does not match its checksum, that a scan could not
    # have written, or that disagrees with the recorded counts.
    for metric, kind in ((MetricKind.ULOC, "lines"), (MetricKind.FILE, "files")):
        (b0, d0, c0), (b1, d1, c1), *rest = tables[kind]
        moved = [(b0, d0, c0 - 1), (b1, d1, c1 + 1), *rest]  # a row moved to the next run
        for data, error, match in (
            (with_sections(kind, table=moved, seal=False), DataError, f"{kind} table section does not match its checksum"),
            *((with_sections(kind, table=table), StoreFormatError, f"{kind} {match}") for table, match in table_cases(kind)),
            (with_sections(kind, table=moved), StoreFormatError, f"{metric.value} counts"),
        ):
            path.write_bytes(data)
            with pytest.raises(error, match=match):
                build_curve_family(store, "cpp", metric)

    path.write_bytes(good)
    group = load_all_snapshots(store).group("cpp")
    assert (len(group.lines.runs), len(group.files.runs)) == (4, 3)


def test_store_refuses_format_2_snapshot_files(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    header = {"algorithm": "blake2b-128", "files": [], "format": 2, "group": "cpp",
              "label": "v0", "lines": 0, "ordinal": 0, "skipped": 0}
    (store / "00000_cpp.snap").write_text(json.dumps(header) + "\n")
    with pytest.raises(StoreFormatError, match="format 1 or 2.*rescan"):
        load_all_snapshots(store)


# blake2b-128 of the store and counts.csv that ``scan`` writes for
# ``pinned_history``.  A change to the scan or the store writer that moves
# any byte of either changes these; a format change must update them.
PINNED_STORE_DIGEST = "7161a6e6536643ba645cd480ad817f96"
PINNED_COUNTS_DIGEST = "2b19dd460c745aeaf9ad485fdcb43646"


def pinned_history(root: Path) -> Path:
    """A fixed five-release history of groups cpp and h; returns its manifest.

    "gone" leaves a.cpp in v1 and comes back in v3, and b.cpp in v2 and
    v4.  f.h has one content in d1 and d2.  v1 is a .tar that archives
    a.cpp twice, so the first copy's "first" line lives in no version,
    and v2 is an empty release.
    """
    write_tree(root / "v0", {"a.cpp": "keep\ngone\nsame\n", "b.cpp": "b\n", "d1/f.h": "shared\n", "d2/f.h": "shared\n"})
    with tarfile.open(root / "v1.tar", "w") as tar:
        for name, data in (("a.cpp", b"keep\nfirst\n"), ("b.cpp", b"b\n"), ("d1/f.h", b"shared\n"), ("./a.cpp", b"keep\nmid\nsame\n")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    (root / "v2").mkdir()
    write_tree(root / "v3", {"a.cpp": "keep\ngone\n", "d1/f.h": "shared\n", "d2/f.h": "shared\n"})
    write_tree(root / "v4", {"a.cpp": "keep\n", "b.cpp": "b\n", "d2/f.h": "shared\n", "d2/g.h": "g\n"})
    payload = {
        "software": "demo",
        "groups": [{"name": "cpp", "extensions": [".cpp"]}, {"name": "h", "extensions": [".h"]}],
        "versions": [{"label": f"v{i}", "path": path} for i, path in enumerate(["v0", "v1.tar", "v2", "v3", "v4"])],
    }
    return write_manifest(root, payload)


def test_store_bytes_are_pinned(tmp_path):
    # Two runs of one build agree with each other whatever they write;
    # these constants also catch a refactor that changes a byte.
    store = tmp_path / "store"
    assert main(["scan", "--manifest", str(pinned_history(tmp_path)), "--store", str(store)]) == 0
    digests = [hashlib.blake2b((store / name).read_bytes(), digest_size=16).hexdigest() for name in (STORE_FILENAME, "counts.csv")]
    assert digests == [PINNED_STORE_DIGEST, PINNED_COUNTS_DIGEST]


def test_a_loaded_store_writes_back_byte_for_byte(tmp_path):
    scanned, written = tmp_path / "scanned", tmp_path / "written"
    assert main(["scan", "--manifest", str(pinned_history(tmp_path)), "--store", str(scanned)]) == 0
    write_store(load_all_snapshots(scanned), written)
    assert (written / STORE_FILENAME).read_bytes() == (scanned / STORE_FILENAME).read_bytes()


def test_write_store_refuses_versions_the_labels_do_not_match(tmp_path):
    assert main(["scan", "--manifest", str(pinned_history(tmp_path)), "--store", str(tmp_path / "store")]) == 0
    loaded = load_all_snapshots(tmp_path / "store")
    short = {name: GroupIndex(group.lines, group.files, group.versions[:-1]) for name, group in loaded.groups.items()}
    for index, match in (
        (LifetimeIndex(loaded.labels, {**loaded.groups, "h": short["h"]}), r"^group 'h' has 4 versions and the index 5 labels$"),
        # a.cpp's "keep" is in every version, so its run ends after v4.
        (LifetimeIndex(loaded.labels[:-1], short), r"^group 'cpp' lines has runs past the index's 4 versions$"),
    ):
        with pytest.raises(ValueError, match=match):
            write_store(index, tmp_path / "refused")
        assert not (tmp_path / "refused").exists()


def test_multi_section_runs_past_the_versions_are_refused(tmp_path):
    store = tmp_path / "store"
    assert main(["scan", "--manifest", str(pinned_history(tmp_path)), "--store", str(store)]) == 0
    path = store / STORE_FILENAME
    line, _, body = path.read_bytes().partition(b"\n")
    header, body = json.loads(line), bytearray(body)
    lines = header["groups"]["cpp"]["lines"]
    start, end = lines["multi"], lines["multi"] + 8 * lines["multi_rows"]
    assert lines["multi_rows"]  # the two runs of "gone", and of "b"
    key, birth, _ = struct.unpack_from("<IHH", body, start)
    struct.pack_into("<IHH", body, start, key, birth, 6)
    lines["checksums"]["multi"] = b2(body[start:end]).hex()
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    keys = load_all_snapshots(store).group("cpp").lines
    assert keys.table()  # the run table is the scan's
    for read in (keys.multi, lambda: build_curve_family(store, "cpp", MetricKind.ULOC)):
        with pytest.raises(StoreFormatError, match="'cpp' lines runs are not all within versions 0 to 5$"):
            read()


def test_store_bulk_load(tmp_path):
    _, _, store = scan_sources(tmp_path, [{"a.cpp": "a\n"}, {"a.cpp": "b\n"}, {"a.cpp": "c\n"}])
    loaded = load_all_snapshots(store)
    assert loaded.labels == ["v0", "v1", "v2"]
    assert indexed_rows(loaded.group("cpp").lines, 2) == frozenset({b2(b"c")})
    with pytest.raises(UsageError, match="no group 'h'; available: \\['cpp'\\]"):
        loaded.group("h")
    # A directory without a store file is a usage error.
    with pytest.raises(UsageError, match="lifetime.store: no store file; run `codesurvival scan`"):
        load_all_snapshots(tmp_path / "elsewhere")


def index_is_empty(index: LifetimeIndex) -> bool:
    """No version folded in: no label, and no group holds a version."""
    return index.labels == [] and all(group.versions == [] for group in index.groups.values())


def test_store_snapshot_takes_versions_in_order(tree_writer):
    root = tree_writer({"a.cpp": "x\n", "a.h": "h\n"})
    index = LifetimeIndex(labels=[], groups={"cpp": ingest._GroupRows(), "h": ingest._GroupRows()})
    memo = index.groups
    with pytest.raises(ValueError, match="not version 0"):
        store_snapshot(scan_version(root, [CPP, H], ordinal=1), index)
    with pytest.raises(ValueError, match="groups \\['cpp'\\]"):
        store_snapshot(scan_version(root, [CPP], ordinal=0), index)
    assert index_is_empty(index)
    store_snapshot(scan_version(root, [CPP, H], ordinal=0, memo=memo), index)
    assert index.labels == [root.name] and index.groups["h"].versions == [GroupVersion(1, 1)]


def test_store_snapshot_refuses_a_payload_that_skips_a_version(tree_writer):
    # "gone" is in v0 and not in v1, so v0's payload folded in again as v2
    # would give its row a second run.
    index = LifetimeIndex(labels=[], groups={"cpp": ingest._GroupRows()})
    memo = index.groups
    first = scan_version(tree_writer({"a.cpp": "keep\ngone\n"}, "v0"), [CPP], ordinal=0, memo=memo)
    store_snapshot(first, index)
    store_snapshot(scan_version(tree_writer({"a.cpp": "keep\n"}, "v1"), [CPP], ordinal=1, memo=memo), index)
    with pytest.raises(ValueError, match=r"^rows \[1\] \(1 in all\) neither start nor continue a run at version 2$"):
        store_snapshot(VersionSnapshot("v2", 2, first.groups), index)
    # Refused before any change: the index holds v0 and v1 as they were.
    assert index.labels == ["v0", "v1"]
    assert index.groups["cpp"].versions == [GroupVersion(1, 2), GroupVersion(1, 1)]


def test_store_snapshot_refuses_a_stale_group_before_changing_any(tree_writer):
    # cpp's v1 payload would continue its runs at v2; h's v0 payload has a
    # line v1 lacks, so it is refused, and cpp's runs must not move.
    index = LifetimeIndex(labels=[], groups={"cpp": ingest._GroupRows(), "h": ingest._GroupRows()})
    memo = index.groups
    first = scan_version(tree_writer({"a.cpp": "c\n", "a.h": "keep\ngone\n"}, "v0"), [CPP, H], ordinal=0, memo=memo)
    store_snapshot(first, index)
    second = scan_version(tree_writer({"a.cpp": "c\n", "a.h": "keep\n"}, "v1"), [CPP, H], ordinal=1, memo=memo)
    store_snapshot(second, index)
    with pytest.raises(ValueError, match="neither start nor continue a run at version 2"):
        store_snapshot(VersionSnapshot("v2", 2, {"cpp": second.groups["cpp"], "h": first.groups["h"]}), index)
    assert index.labels == ["v0", "v1"]
    assert [index.groups[name].versions for name in ("cpp", "h")] == [[GroupVersion(1, 1)] * 2, [GroupVersion(1, 2), GroupVersion(1, 1)]]
    # v1 again, scanned as v2, folds in.
    third = scan_version(tree_writer({"a.cpp": "c\n", "a.h": "keep\n"}, "v2"), [CPP, H], ordinal=2, memo=memo)
    store_snapshot(third, index)
    assert index.labels == ["v0", "v1", "v2"]
    assert index.groups["h"].versions == [GroupVersion(1, 2), GroupVersion(1, 1), GroupVersion(1, 1)]


def test_store_snapshot_refuses_rows_of_another_index(tree_writer):
    root = tree_writer({"a.cpp": "x\n", "a.h": "h\n"})
    index = LifetimeIndex(labels=[], groups={"cpp": ingest._GroupRows(), "h": ingest._GroupRows()})
    memo = {"cpp": index.groups["cpp"]}
    own = scan_version(root, [CPP], memo=memo).groups["cpp"]
    alone = scan_version(root, [CPP, H], label="v0")
    # A standalone scan, and a snapshot with one group of each kind.
    for groups, foreign in ((alone.groups, "['cpp', 'h']"), ({**alone.groups, "cpp": own}, "['h']")):
        with pytest.raises(ValueError) as refused:
            store_snapshot(VersionSnapshot("v0", 0, groups), index)
        assert str(refused.value).startswith(f"snapshot 'v0' groups {foreign} hold rows of another index")
        assert "\n" not in str(refused.value)
        assert index_is_empty(index)


@pytest.mark.parametrize("versions", [8, 9, 64, 65, 70])
def test_store_mask_edges(tmp_path, monkeypatch, versions):
    # 8/9 and 64/65 straddle a byte and a 64-bit word; 70 is > 64.
    rng = random.Random(versions)
    # Lines whose digests end in NUL bytes, which an S item would drop, and others.
    pool = [*nul_lines(), *(f"other {i}" for i in range(60))]
    trees = []
    for i in range(versions):
        names = rng.sample(["a.x", "b.x", "c.x"], rng.randint(0, 3))
        tree = {f"d{rng.randint(0, 1)}/{name}": "".join(f"{line}\n" for line in rng.sample(pool, rng.randint(0, 20))) for name in names}
        # i % 3 files that cannot be read, so each version skips as many.
        trees.append({**tree, **{f"locked{k}.x": None for k in range(i % 3)}})
    refuse_reads(monkeypatch, lambda path: path.name.startswith("locked"))
    _, _, store = scan_sources(tmp_path, [{rel: "never read\n" if text is None else text for rel, text in t.items()} for t in trees], (".x",))
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees, (".x",))
    assert [v.skipped_files for v in load_all_snapshots(store).group("x").versions] == [i % 3 for i in range(versions)]
    assert any(b2(line.encode()) in rows_by_line(store, "x") for line in nul_lines())


def test_scan_corpus_yields_in_order_and_persists(tree_writer, tmp_path):
    trees = [{"a.cpp": "one\n"}, {"a.cpp": "two\n"}]
    tree_writer(trees[0], "v1")
    tree_writer(trees[1], "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    store = tmp_path / "store"
    snaps = list(scan_corpus(manifest, store))
    assert [(s.version_label, s.ordinal) for s in snaps] == [("v1", 0), ("v2", 1)]
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees, labels=["v1", "v2"])


def test_scan_corpus_equals_fresh_scans_of_each_version(tmp_path):
    # "a" leaves and comes back, "moved" goes from cpp to h and back, and
    # "crlf" is written with both line endings.
    history = [
        {"a.cpp": "a\nmoved\ncrlf\r\n", "a.h": "h\n"},
        {"a.cpp": "b\ncrlf\n", "a.h": "h\nmoved\n"},
        {"a.cpp": "a\nmoved\r\ncrlf\n", "b.cpp": "crlf\r\nb\n", "a.h": "h\n"},
        {"a.cpp": "a\nmoved\r\ncrlf\n", "b.cpp": "crlf\r\nb\n"},
    ]
    snaps, _, store = scan_sources(tmp_path, history, (".cpp", ".h"))
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, history, (".cpp", ".h"))
    for snap in snaps:
        fresh = scan_version(tmp_path / snap.version_label, [CPP, H]).groups
        assert {n: (p.uloc, p.files) for n, p in snap.groups.items()} == {n: (p.uloc, p.files) for n, p in fresh.items()}


def rows_by_line(store: Path, group: str = "cpp") -> dict[bytes, list[int]]:
    """Per line digest in the store, the versions whose bit its row has."""
    return row_versions(load_all_snapshots(store).group(group).lines)


def test_scan_corpus_gives_a_revived_line_its_old_row(tree_writer, tmp_path, monkeypatch):
    for i, text in enumerate(["keep\ngone\n", "keep\n", "keep\ngone\n"]):
        tree_writer({"a.cpp": text}, f"v{i}")
    digested = []
    original = ingest._digest
    monkeypatch.setattr(ingest, "_digest", lambda data: digested.append(data) or original(data))
    _, counters, store = scan_sources(tmp_path, ["v0", "v1", "v2"])
    assert rows_by_line(store) == {b2(b"keep"): [0, 1, 2], b2(b"gone"): [0, 2]}
    assert digested.count(b"gone") == 2
    # The scan gives the revived "gone" a third row, and the store keeps
    # it: one row per run.
    assert load_all_snapshots(store).group("cpp").lines.rows == 3
    assert counters["cpp"] == ScanCounters(
        files=3, lines=5, lines_digested=3, memo_lines_max=2
    )


def test_scan_corpus_takes_a_moved_file_from_the_memo(tmp_path):
    snaps, counters, store = scan_sources(tmp_path, [{"a.cpp": "x\ny\n"}, {"sub/a.cpp": "x\ny\n"}])
    # Reused by its content, though its relpath changed: no line is split again.
    assert counters["cpp"] == ScanCounters(
        files=2, files_reused=1, lines=4, lines_digested=2, memo_lines_max=2
    )
    assert rows_by_line(store) == {b2(b"x"): [0, 1], b2(b"y"): [0, 1]}


def test_scan_corpus_takes_a_file_under_a_renamed_top_directory(tmp_path):
    trees = [
        {"pkg-1.0/a.cpp": "x\ny\n", "pkg-1.0/b.cpp": "z\n"},
        {"pkg-1.1/a.cpp": "x\ny\n", "pkg-1.1/b.cpp": "w\n"},
    ]
    _, counters, store = scan_sources(tmp_path, trees)
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=1, lines=6, lines_digested=4, memo_lines_max=4
    )
    assert rows_by_line(store) == {b2(b"x"): [0, 1], b2(b"y"): [0, 1], b2(b"z"): [0], b2(b"w"): [1]}
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees)


def test_scan_corpus_takes_two_equal_files_of_one_release_from_the_memo(tmp_path):
    # Two equal files in each release, one of them renamed in the second.
    trees = [{"a.cpp": "x\ny\n", "sub/a.cpp": "x\ny\n"}, {"a.cpp": "x\ny\n", "sub/b.cpp": "x\ny\n"}]
    snaps, counters, store = scan_sources(tmp_path, trees)
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=2, lines=8, lines_digested=2, memo_lines_max=2
    )
    assert rows_by_line(store) == {b2(b"x"): [0, 1], b2(b"y"): [0, 1]}
    assert [s.groups["cpp"].file_count for s in snaps] == [2, 2]
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees)


def test_scan_corpus_splits_a_file_moved_and_edited(tmp_path):
    trees = [{"a.cpp": "x\ny\n"}, {"sub/a.cpp": "x\nz\n"}]
    _, counters, store = scan_sources(tmp_path, trees)
    # Its content is new, so it is split; only its new line is digested.
    assert counters["cpp"] == ScanCounters(files=2, lines=4, lines_digested=3, memo_lines_max=3)
    assert rows_by_line(store) == {b2(b"x"): [0, 1], b2(b"y"): [0], b2(b"z"): [1]}
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees)


def test_scan_corpus_of_a_file_unreadable_then_unchanged(tree_writer, tmp_path, monkeypatch):
    tree = {"a.cpp": "x\ny\n", "b.cpp": "z\n"}
    for i in range(3):
        tree_writer(tree, f"v{i}")
    refuse_reads(monkeypatch, lambda path: path.name == "a.cpp" and path.parent.name == "v1")
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1", "v2"])
    assert [s.groups["cpp"].skipped_files for s in snaps] == [0, 1, 0]
    # v1 has no a.cpp to reuse, so v2 splits it, digests its lines again
    # and gives them new rows.
    assert counters["cpp"] == ScanCounters(
        files=5, files_reused=2, lines=7, lines_digested=5, memo_lines_max=3
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
    assert snaps[1].groups["cpp"].uloc == {b2(line.encode()) for line in last.split()}
    if reused_last:
        # "c" was digested in v1 but lost to the reused copy: its v1 row
        # holds no version, and v2 gives it another.
        rows = {b2(b"a"): [0, 1], b2(b"b"): [0, 1], b2(b"c"): [2]}
        reused, digested = 1, 2 + 1 + 1
    else:
        # v2 reuses the copy v1 kept.
        rows = {b2(b"a"): [0], b2(b"b"): [0], b2(b"c"): [1, 2]}
        reused, digested = 2, 2 + 1 + 0
    assert rows_by_line(store) == rows
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=reused, lines=6, lines_digested=digested, memo_lines_max=3,
    )
    trees = [{"x.cpp": "a\nb\n"}, {"x.cpp": last}, {"x.cpp": "c\n"}]
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees)


def test_scan_corpus_of_duplicate_lines(tree_writer, tmp_path):
    tree_writer({"a.cpp": "d\nd\ne\n", "b.cpp": "e\nd\n"}, "v0")
    tree_writer({"a.cpp": "d\nd\ne\nf\nf\n", "b.cpp": "e\nd\n"}, "v1")
    snaps, counters, store = scan_sources(tmp_path, ["v0", "v1"])
    assert [s.groups["cpp"].uloc_count for s in snaps] == [2, 3]
    assert counters["cpp"] == ScanCounters(
        files=4, files_reused=1, lines=12, lines_digested=3, memo_lines_max=3
    )
    assert rows_by_line(store) == {b2(b"d"): [0, 1], b2(b"e"): [0, 1], b2(b"f"): [1]}


@pytest.mark.parametrize("versions, seed", [(5, 9), (5, 12), (8, 3), (9, 5), (64, 5), (65, 6)])
def test_scan_corpus_equals_standalone_scans_folded(tmp_path, versions, seed):
    # 8/9 and 64/65 versions straddle a byte and a 64-bit word.
    history = random_corpus_history(random.Random(seed), versions=versions)
    _, counters, store = scan_sources(tmp_path, history, extensions=(".x", ".y"))
    # The history revives lines, and leaves files unchanged.
    assert sum(c.lines_digested for c in counters.values()) > sum(len(rows_by_line(store, n)) for n in counters)
    assert sum(c.files_reused for c in counters.values()) > 0
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, history, (".x", ".y"))


def test_memo_holds_the_lines_of_the_version_just_scanned(tmp_path):
    # Each snapshot, as the scan yields it, holds its own version's lines and file records.
    history = random_corpus_history(random.Random(11), versions=12)
    scan_sources(tmp_path, history, (".x", ".y"))
    for snap, tree in zip(scan_corpus(load_manifest(tmp_path / "manifest.json"), tmp_path / "again"), history, strict=True):
        for name, payload in snap.groups.items():
            texts = {rel: text.encode() for rel, text in tree.items() if rel.endswith("." + name)}
            assert payload.uloc == {digest for data in texts.values() for digest in line_digests(data)}
            assert {(r.relpath, r.content_digest) for r in payload.files} == {(rel, b2(data)) for rel, data in texts.items()}


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
    scans = scan_corpus(manifest, tmp_path / "store", counters=counters)
    next(scans)
    contents = [b"int a;\nint b;\n", b"int b;\r\nint c;\n"]
    # The store's file rows: each record's basename and content, then its directory.
    records = [b"a.cpp\0" + b2(contents[0]), b"", b"b.cpp\0" + b2(contents[1]), b"src"]
    assert sorted(digested) == sorted(contents + [b"int a;", b"int b;", b"int c;"] + records)
    assert counters == {"cpp": ScanCounters(files=2, lines=4, lines_digested=3, memo_lines_max=3)}
    digested.clear()
    next(scans)
    # Only the two files' content digests: both files are v1's, reused.
    assert sorted(digested) == [b"int a;\nint b;\n", b"int b;\r\nint c;\n"]
    assert counters == {
        "cpp": ScanCounters(files=4, files_reused=2, lines=8, lines_digested=3, memo_lines_max=3)
    }


def test_scan_corpus_refuses_a_version_its_index_did_not_fold(tmp_path, monkeypatch):
    # The last snapshot never reaches the index: the row maps settled
    # three versions, the index folded in two, and no store is written.
    fold = ingest.store_snapshot
    monkeypatch.setattr(ingest, "store_snapshot", lambda snapshot, index: snapshot.ordinal < 2 and fold(snapshot, index))
    with pytest.raises(ValueError, match=r"^group 'cpp' lines has runs past the index's 2 versions$"):
        scan_sources(tmp_path, [{"a.cpp": "a\n"}, {"a.cpp": "b\n"}, {"a.cpp": "c\n"}])
    assert not (tmp_path / "store").exists()


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
    trees = [{"a.cpp": "one\n", "a.h": "h\n"}, {"a.cpp": "two\n"}]
    tree_writer(trees[0], "v1")
    tree_writer(trees[1], "v2")
    manifest = load_manifest(write_manifest(tmp_path, manifest_payload()))
    list(scan_corpus(manifest, store))
    # Ordinals 2-3 and the h group, which this manifest drops, are gone.
    assert [p.name for p in store.iterdir()] == [STORE_FILENAME]
    assert (store / STORE_FILENAME).read_bytes() == oracle_store(tmp_path, trees, labels=["v1", "v2"])


# --- the store oracle -------------------------------------------------------


def pack(tree_dir: Path, dest: Path, tree: dict[str, bytes], rng: random.Random) -> str:
    """The release as a .tar or .tar.gz at dest; returns its name.

    Members are named ./relpath, as ``tar -C dir .`` names them, or bare relpath.
    """
    mode, suffix = rng.choice([("w", ".tar"), ("w:gz", ".tar.gz")])
    archive = dest.with_name(dest.name + suffix)
    if rng.random() < 0.5:
        return make_tar(tree_dir, archive, mode).name
    with tarfile.open(archive, mode) as tar:
        for relpath, data in tree.items():
            info = tarfile.TarInfo(relpath)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return archive.name


def test_scan_writes_the_oracle_store(tmp_path, monkeypatch):
    # Odd seeds give files the scan cannot read, which only a directory can
    # refuse to read.  Seeds 2, 6, 10, ... are scanned again with two of
    # every three releases packed as archives: a scan in worker processes
    # costs as much as four of directories.  The last two pass 64 versions.
    for seed in range(200):
        rng = random.Random(seed)
        unreadable = seed % 2 == 1
        history = random_release_history(rng, rng.randint(2, 7) if seed < 198 else 65 + seed % 2, unreadable)
        root = tmp_path / f"s{seed}"
        refused = {root / f"v{i}" / rel for i, tree in enumerate(history) for rel, data in tree.items() if data is None}
        refuse_reads(monkeypatch, refused.__contains__)
        _, _, store = scan_sources(root, [{rel: data or b"" for rel, data in tree.items()} for tree in history], (".x", ".y"))
        expected = oracle_store(root, history, (".x", ".y"))
        assert (store / STORE_FILENAME).read_bytes() == expected, f"seed {seed}"
        if seed % 4 != 2:
            continue
        packed = root / "packed"
        packed.mkdir()
        sources = [
            os.fspath(root / f"v{i}") if i % 3 == 2 else pack(root / f"v{i}", packed / f"v{i}", tree, rng)
            for i, tree in enumerate(history)
        ]
        _, _, store = scan_sources(packed, sources, (".x", ".y"))
        assert (store / STORE_FILENAME).read_bytes() == expected, f"seed {seed}, archives {sources}"
        assert_no_child_process()


# --- archives read in reader processes -------------------------------------


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
    stores = []
    for manifest, name in zip(mixed_corpus(tmp_path), ("dirs-store", "mixed-store")):
        assert [s.ordinal for s in scan_corpus(manifest, tmp_path / name)] == list(range(6))
        stores.append((tmp_path / name / STORE_FILENAME).read_bytes())
    assert_no_child_process()
    assert stores == [oracle_store(tmp_path, random_corpus_history(random.Random(20261018), 6), (".x", ".y"))] * 2


def test_scan_corpus_closed_early_leaves_no_worker(tmp_path):
    _, mixed = mixed_corpus(tmp_path)
    scans = scan_corpus(mixed, tmp_path / "store")
    assert next(scans).ordinal == 0
    scans.close()
    assert_no_child_process()
    assert not (tmp_path / "store").exists()


def test_scan_corpus_of_an_archive_deleted_after_the_manifest(tmp_path):
    _, mixed = mixed_corpus(tmp_path)
    (tmp_path / "v3.tar.gz").unlink()
    with pytest.raises(ManifestError, match=r"v3\.tar\.gz does not exist"):
        list(scan_corpus(mixed, tmp_path / "store"))
    assert_no_child_process()


def test_scan_corpus_failing_while_digesting_leaves_no_reader(tmp_path, monkeypatch):
    _, mixed = mixed_corpus(tmp_path)
    digest = ingest.scan_version

    def fail_at_v2(source, groups, **kwargs):
        if kwargs["ordinal"] == 2:
            raise RuntimeError("digest failed")
        return digest(source, groups, **kwargs)

    monkeypatch.setattr(ingest, "scan_version", fail_at_v2)
    with pytest.raises(RuntimeError, match="digest failed"):
        list(scan_corpus(mixed, tmp_path / "store"))
    assert_no_child_process()
    assert not (tmp_path / "store").exists()


def test_a_reader_refusal_that_cannot_be_pickled_arrives_as_a_usage_error(tmp_path, monkeypatch):
    _, mixed = mixed_corpus(tmp_path)

    class Odd(Exception):  # defined in a function, so pickle cannot name it
        pass

    def refuse(source, groups):
        raise Odd("odd header")

    monkeypatch.setattr(ingest, "_read_archive", refuse)
    with pytest.raises(UsageError, match=r"cannot read tar archive \S*v1\.tar\.gz: odd header"):
        list(scan_corpus(mixed, tmp_path / "store"))
    assert_no_child_process()


def test_scan_corpus_without_fork_reads_archives_in_this_process(tmp_path, monkeypatch):
    _, mixed = mixed_corpus(tmp_path)
    list(scan_corpus(mixed, tmp_path / "forked"))
    monkeypatch.delattr(os, "fork")
    list(scan_corpus(mixed, tmp_path / "here"))
    assert (tmp_path / "here" / STORE_FILENAME).read_bytes() == (tmp_path / "forked" / STORE_FILENAME).read_bytes()
    assert_no_child_process()
