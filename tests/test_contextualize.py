import hashlib
import json
import os
import shlex
import socket
import stat
import sys
import threading
import urllib.request

import pytest

import phenocloud
from phenocloud import contextualize as contextualize_mod
from phenocloud.catalog import serialize_catalog
from phenocloud.contextualize import (
    Contextualizer,
    DownloadError,
    ImageRecord,
    MetadataSource,
    MetadataFormatError,
    FetchError,
    fetch_metadata,
    filter_ready_images,
)
from phenocloud.errors import PhenocloudError

SRC = os.path.dirname(os.path.dirname(phenocloud.__file__))


def write_script(scripts_dir, name, body="exit 0\n"):
    path = os.path.join(scripts_dir, name)
    with open(path, "w") as fh:
        fh.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def catalog_with_archives(tmp_path, deps):
    """Catalog whose download URLs are file:// archives under tmp_path."""
    archive_dir = tmp_path / "archives"
    archive_dir.mkdir(exist_ok=True)
    doc = {}
    for name, dep_list in deps.items():
        archive = archive_dir / f"{name}.tar.gz"
        archive.write_bytes(b"payload of " + name.encode())
        doc[name] = {
            "installer": f"{name}.sh",
            "dependencies": dep_list,
            "base_url": archive_dir.as_uri(),
            "file": f"{name}.tar.gz",
            "versions": {"1.0": {"version_name": "1.0"}},
        }
    from phenocloud.catalog import parse_catalog

    return parse_catalog(json.dumps(doc))


def tree_digest(root):
    """Recursive content hash of a directory tree."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# --- metadata ----------------------------------------------------------------


def test_fetch_metadata_file(tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_text('{"FormCalc": "7.4"}')
    request = fetch_metadata(MetadataSource("local-file", str(meta)))
    assert request == {"FormCalc": "7.4"}


def test_fetch_metadata_empty_object(tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_text("{}")
    assert fetch_metadata(MetadataSource("local-file", str(meta))) == {}


def test_fetch_metadata_array_is_format_error(tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_text('["FormCalc"]')
    with pytest.raises(MetadataFormatError):
        fetch_metadata(MetadataSource("local-file", str(meta)))


def test_fetch_metadata_non_string_values_rejected(tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_text('{"FormCalc": {"version": "7.4"}}')
    with pytest.raises(MetadataFormatError):
        fetch_metadata(MetadataSource("local-file", str(meta)))


def test_fetch_metadata_not_utf8_is_format_error_naming_the_file(tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_bytes(b'{"FormCalc": "7.4\xff"}')
    with pytest.raises(MetadataFormatError, match=str(meta)):
        fetch_metadata(MetadataSource("local-file", str(meta)))


def test_fetch_metadata_unreachable(tmp_path):
    with pytest.raises(FetchError):
        fetch_metadata(MetadataSource("local-file", str(tmp_path / "missing")))


def test_metadata_source_validation():
    with pytest.raises(ValueError):
        MetadataSource("carrier-pigeon", "x")
    with pytest.raises(ValueError):
        MetadataSource("local-file", "")


# --- image gating ------------------------------------------------------------


def test_filter_ready_images_predicate():
    images = [
        ImageRecord("a", {"feynapps": "true"}),
        ImageRecord("b", {"feynapps": "false"}),
        ImageRecord("c", {}),
        ImageRecord("d", {"feynapps": "True"}),  # value match is case-sensitive
    ]
    assert [i.image_id for i in filter_ready_images(images)] == ["a"]


def test_filter_ready_images_empty():
    assert filter_ready_images([]) == []


def test_filter_ready_images_preserves_order():
    import random

    rng = random.Random(7)
    images = [
        ImageRecord(f"img{i}", {"feynapps": "true"} if i in (2, 5, 8) else {})
        for i in range(10)
    ]
    shuffled = images[:]
    rng.shuffle(shuffled)
    expected = [i for i in shuffled if i.properties.get("feynapps") == "true"]
    assert filter_ready_images(shuffled) == expected
    assert len(expected) == 3


# --- contextualize -----------------------------------------------------------


def test_dry_run_resolves_plan_and_touches_nothing(tmp_path, feyn_catalog):
    root = tmp_path / "root"
    root.mkdir()
    (root / "existing.txt").write_text("untouched")
    before = tree_digest(root)
    ctx = Contextualizer(feyn_catalog, scripts_dir=str(tmp_path), root=str(root))
    report = ctx.run({"FormCalc": "7.0.2"}, dry_run=True)
    assert report.ok and report.dry_run
    assert [s.app for s in report.steps] == ["FeynHiggs", "FormCalc"]
    assert report.steps[1].download_url.startswith(
        "https://devel.ifca.es/~enol/feynapps/"
    )
    assert tree_digest(root) == before


def test_execute_runs_installers_in_plan_order(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": [], "B": ["A"]})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    marker = tmp_path / "order.log"
    for name in ("A", "B"):
        write_script(
            scripts, f"{name}.sh",
            f'echo "$APP_NAME $APP_VERSION" >> {marker}\n'
            'test -f "$APP_ARCHIVE" || exit 3\n'
            'test -n "$INSTALL_PREFIX" || exit 4\n',
        )
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))
    report = ctx.run({"B": "1.0"})
    assert report.ok, [s.output for s in report.steps]
    assert marker.read_text().splitlines() == ["A 1.0", "B 1.0"]
    assert [s.download for s in report.steps] == ["downloaded", "downloaded"]


def test_execute_empty_request_is_empty_success(tmp_path, feyn_catalog):
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(feyn_catalog, scripts_dir=str(tmp_path), root=str(root))
    report = ctx.run({})
    assert report.ok and report.steps == []


def test_failing_installer_stops_the_pipeline(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": [], "B": ["A"]})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh", "echo boom >&2\nexit 1\n")
    write_script(scripts, "B.sh")
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))
    report = ctx.run({"B": "1.0"})
    assert not report.ok
    assert report.failed_at == 0
    assert len(report.steps) == 1  # the second step never runs
    assert report.steps[0].exit_status == 1
    assert "boom" in report.steps[0].output


def test_second_run_uses_the_download_cache(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))
    first = ctx.run({"A": "1.0"})
    second = ctx.run({"A": "1.0"})
    assert [s.download for s in first.steps] == ["downloaded"]
    assert [s.download for s in second.steps] == ["cached"]


def test_downloaded_archive_gets_the_mode_open_gives(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    root = tmp_path / "root"
    root.mkdir()
    report = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root)).run({"A": "1.0"})
    assert [s.download for s in report.steps] == ["downloaded"]
    (archive,) = (root / "downloads").iterdir()
    assert archive.read_bytes() == b"payload of A"
    with open(tmp_path / "reference", "w"):
        pass
    assert stat.S_IMODE(archive.stat().st_mode) == stat.S_IMODE(
        (tmp_path / "reference").stat().st_mode)


def test_download_failure_marks_step_failed(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    os.unlink(tmp_path / "archives" / "A.tar.gz")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))
    report = ctx.run({"A": "1.0"})
    assert not report.ok
    assert report.failed_at == 0
    assert report.steps[0].download == "failed"


def test_report_json_shape(tmp_path, feyn_catalog):
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(feyn_catalog, scripts_dir=str(tmp_path), root=str(root))
    report = ctx.run({"FormCalc": "7.4"}, dry_run=True)
    doc = json.loads(report.to_json())
    assert doc["overall"] == "success"
    assert [s["app"] for s in doc["steps"]] == ["FeynHiggs", "FormCalc"]


def one_app_catalog(installer):
    from phenocloud.catalog import parse_catalog

    return parse_catalog(json.dumps(
        {"A": {"installer": installer, "versions": {"1.0": {"version_name": "1.0"}}}}
    ))


@pytest.mark.parametrize("where,dry_run", [
    pytest.param(where, dry_run, id=where + ("-dry-run" if dry_run else ""))
    for dry_run in (False, True) for where in ("parent-dir", "absolute", "symlink")
])
def test_installer_outside_scripts_dir_never_runs(tmp_path, where, dry_run):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    marker = tmp_path / "escaped"
    evil = write_script(tmp_path, "evil.sh", f"touch {marker}\n")
    installer = {"parent-dir": "../evil.sh", "absolute": evil, "symlink": "link.sh"}[where]
    if where == "symlink":
        os.symlink(evil, scripts / "link.sh")
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(one_app_catalog(installer), scripts_dir=str(scripts), root=str(root))
    report = ctx.run({"A": "1.0"}, dry_run=dry_run)
    assert not marker.exists()
    assert not report.ok and report.failed_at == 0
    assert report.steps[0].exit_status is None
    assert "outside scripts dir" in report.to_dict()["steps"][0]["output"]


@pytest.mark.parametrize("spelling,dry_run", [
    pytest.param(spelling, dry_run, id=spelling + ("-dry-run" if dry_run else ""))
    for dry_run in (False, True) for spelling in ("absolute-version", "parent-dir-name")
])
def test_install_prefix_outside_root_never_runs(tmp_path, spelling, dry_run):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    marker = tmp_path / "ran"
    write_script(scripts, "install.sh", f"touch {marker}\n")
    (tmp_path / "A.tar.gz").write_bytes(b"payload")
    name, version = {"absolute-version": ("A", str(tmp_path / "elsewhere")),
                     "parent-dir-name": ("../../..", "1.0")}[spelling]
    from phenocloud.catalog import parse_catalog

    catalog = parse_catalog(json.dumps({name: {
        "installer": "install.sh", "base_url": tmp_path.as_uri(), "file": "A.tar.gz",
        "versions": {version: {}},
    }}))
    root = tmp_path / "root"
    root.mkdir()
    before = tree_digest(root)
    report = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root)).run(
        {name: version}, dry_run=dry_run)
    assert not marker.exists()
    assert tree_digest(root) == before  # nothing downloaded
    assert not report.ok and report.failed_at == 0
    step = report.to_dict()["steps"][0]
    assert step["download"] == "skipped" and step["exit_status"] is None
    assert f"is not below {root / 'apps'}" in step["output"]


def test_relative_scripts_dir_is_read_from_the_working_directory(tmp_path, monkeypatch):
    (tmp_path / "scripts").mkdir()
    write_script(tmp_path / "scripts", "A.sh")
    root = tmp_path / "root"
    root.mkdir()
    monkeypatch.chdir(tmp_path)
    report = Contextualizer(one_app_catalog("A.sh"), scripts_dir="scripts", root=str(root)).run(
        {"A": "1.0"}
    )
    assert report.ok, [s.output for s in report.steps]


def test_relative_root_is_read_from_the_working_directory(tmp_path, monkeypatch):
    # The installer runs inside the root, so APP_ARCHIVE and INSTALL_PREFIX
    # must not be relative to the caller's directory.
    catalog = catalog_with_archives(tmp_path, {"A": []})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh", (
        'test -f "$APP_ARCHIVE" || { echo "no archive at $APP_ARCHIVE from $(pwd)"; exit 1; }\n'
        'mkdir -p "$INSTALL_PREFIX" && cp "$APP_ARCHIVE" "$INSTALL_PREFIX/installed"\n'
    ))
    (tmp_path / "root").mkdir()
    monkeypatch.chdir(tmp_path)
    report = Contextualizer(catalog, scripts_dir=str(scripts), root="root").run({"A": "1.0"})
    assert report.ok, [s.output for s in report.steps]
    installed = tmp_path / "root" / "apps" / "A" / "1.0" / "installed"
    assert installed.read_bytes() == b"payload of A"
    assert not (tmp_path / "root" / "root").exists()


def test_failed_download_reports_its_reason(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    os.unlink(tmp_path / "archives" / "A.tar.gz")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    root = tmp_path / "root"
    root.mkdir()
    report = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root)).run({"A": "1.0"})
    step = report.to_dict()["steps"][0]
    assert step["download"] == "failed"
    assert "download of " in step["output"] and "A.tar.gz" in step["output"]


@pytest.fixture
def silent_url():
    """URL of a loopback server whose kernel accepts connections that nobody answers."""
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        yield "http://127.0.0.1:%d/x.tar.gz" % server.getsockname()[1]


def raised_within(limit_s, fn, *args):
    """Run fn(*args) in a thread; return what it raised, failing if it is still blocked."""
    raised = []

    def target():
        try:
            fn(*args)
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(limit_s)
    assert not thread.is_alive(), f"still blocked after {limit_s} s"
    return raised[0] if raised else None


def test_download_from_a_silent_server_times_out(tmp_path, silent_url, monkeypatch):
    monkeypatch.setattr(contextualize_mod, "URL_TIMEOUT_S", 0.5)
    dest = str(tmp_path / "x.tar.gz")
    exc = raised_within(10, contextualize_mod._download, silent_url, dest)
    assert isinstance(exc, DownloadError)


def test_metadata_from_a_silent_server_times_out(silent_url, monkeypatch):
    monkeypatch.setattr(contextualize_mod, "URL_TIMEOUT_S", 0.5)
    exc = raised_within(10, fetch_metadata, MetadataSource("fixed-url", silent_url))
    assert isinstance(exc, PhenocloudError)


def test_archives_with_one_basename_keep_their_own_bytes(tmp_path):
    from phenocloud.catalog import parse_catalog

    doc = {}
    for name, payload in (("A", b"AAAA"), ("B", b"BBBB")):
        archive_dir = tmp_path / name.lower()
        archive_dir.mkdir()
        (archive_dir / "pkg.tar.gz").write_bytes(payload)
        doc[name] = {
            "installer": "copy.sh",
            "base_url": archive_dir.as_uri(),
            "file": "pkg.tar.gz",
            "versions": {"1.0": {"version_name": "1.0"}},
        }
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "copy.sh",
                 'mkdir -p "$INSTALL_PREFIX"\ncp "$APP_ARCHIVE" "$INSTALL_PREFIX/archive"\n')
    root = tmp_path / "root"
    root.mkdir()
    ctx = Contextualizer(parse_catalog(json.dumps(doc)), scripts_dir=str(scripts), root=str(root))
    for expected in ("downloaded", "cached"):
        report = ctx.run({"A": "1.0", "B": "1.0"})
        assert report.ok
        assert [s.download for s in report.steps] == [expected, expected]
        for name, payload in (("A", b"AAAA"), ("B", b"BBBB")):
            assert (root / "apps" / name / "1.0" / "archive").read_bytes() == payload


def test_interrupted_download_leaves_no_file_in_downloads(tmp_path, monkeypatch):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    root = tmp_path / "root"
    root.mkdir()

    class BrokenResponse:
        chunks = [b"x" * 1024]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self, size):
            if self.chunks:
                return self.chunks.pop()
            raise OSError("connection reset")

    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: BrokenResponse())
    report = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root)).run({"A": "1.0"})
    assert not report.ok
    assert report.steps[0].download == "failed"
    assert os.listdir(root / "downloads") == []


def test_cache_hit_does_not_depend_on_how_root_is_spelled(tmp_path, monkeypatch):
    catalog = catalog_with_archives(tmp_path, {"A": []})
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    write_script(scripts, "A.sh")
    (tmp_path / "root").mkdir()
    monkeypatch.chdir(tmp_path)
    downloads = []
    for root in (str(tmp_path / "root"), "root", "./root"):
        report = Contextualizer(catalog, scripts_dir=str(scripts), root=root).run({"A": "1.0"})
        assert report.ok, [s.output for s in report.steps]
        downloads += [s.download for s in report.steps]
    assert downloads == ["downloaded", "cached", "cached"]


def test_runs_sharing_a_root_keep_each_others_archives(tmp_path):
    catalog = catalog_with_archives(tmp_path, {"A": [], "B": []})
    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(serialize_catalog(catalog))
    (tmp_path / "b.json").write_text('{"B": "1.0"}')
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    root = tmp_path / "root"
    root.mkdir()
    # A's installer contextualizes B on the same root while A's run is open.
    write_script(scripts, "A.sh", (
        f"PYTHONPATH={shlex.quote(SRC)} timeout 60 {shlex.quote(sys.executable)}"
        f" -m phenocloud.cli ctx run --catalog {shlex.quote(str(catalog_file))}"
        f" --metadata {shlex.quote(str(tmp_path / 'b.json'))}"
        f" --root {shlex.quote(str(root))} --scripts {shlex.quote(str(scripts))}\n"
    ))
    write_script(scripts, "B.sh")
    ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))
    outer = ctx.run({"A": "1.0"})
    assert outer.ok, [s.output for s in outer.steps]
    write_script(scripts, "A.sh")
    report = ctx.run({"A": "1.0", "B": "1.0"})
    assert report.ok
    assert [s.download for s in report.steps] == ["cached", "cached"]
