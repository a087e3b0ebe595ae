import os
import stat

import pytest

from phenocloud.errors import PhenocloudError, replace_file


def test_new_file_holds_the_chunks_with_the_mode_open_gives(tmp_path):
    dest = tmp_path / "out.dat"
    replace_file(str(dest), iter([b"one\n", b"", b"two\n"]))
    assert dest.read_bytes() == b"one\ntwo\n"
    with open(tmp_path / "reference", "w"):
        pass
    assert stat.S_IMODE(dest.stat().st_mode) == stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["out.dat", "reference"]


def test_a_chunk_source_that_raises_leaves_the_previous_target_and_no_temp(tmp_path):
    dest = tmp_path / "out.dat"
    dest.write_bytes(b"previous\n")

    def chunks():
        yield b"x" * 4096
        raise OSError("connection reset")

    with pytest.raises(OSError, match="connection reset"):
        replace_file(str(dest), chunks())
    assert dest.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["out.dat"]


def test_a_failed_rename_leaves_no_temp(tmp_path):
    dest = tmp_path / "out.dat"

    def chunks():  # the target becomes a directory after the check, so the rename fails
        os.mkdir(dest)
        yield b"data\n"

    with pytest.raises(IsADirectoryError):
        replace_file(str(dest), chunks())
    assert os.listdir(tmp_path) == ["out.dat"]
    assert dest.is_dir() and os.listdir(dest) == []


def test_a_temp_name_clash_leaves_the_other_file_alone(tmp_path, monkeypatch):
    dest = tmp_path / "out.dat"
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    other = tmp_path / "out.dat.000000000000.tmp"
    other.write_bytes(b"another writer's bytes\n")
    with pytest.raises(FileExistsError):
        replace_file(str(dest), [b"mine\n"])
    assert other.read_bytes() == b"another writer's bytes\n"
    assert sorted(os.listdir(tmp_path)) == [other.name]


def test_temp_names_differ_per_call(tmp_path, monkeypatch):
    names = []
    real_replace = os.replace

    def spy(src, dst):
        names.append(os.path.basename(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    for _ in range(2):
        replace_file(str(tmp_path / "out.dat"), [b"x"])
    assert len(set(names)) == 2 and all(n.startswith("out.dat.") for n in names)
    assert all(n.endswith(".tmp") for n in names)


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_a_target_that_is_not_a_regular_file_is_refused_before_anything_is_created(
        tmp_path, kind):
    dest = tmp_path / "target"
    (os.mkfifo if kind == "fifo" else os.mkdir)(dest)
    with pytest.raises(PhenocloudError, match="exists and is not a regular file"):
        replace_file(str(dest), [b"data\n"])
    assert os.listdir(tmp_path) == ["target"]
    mode = dest.lstat().st_mode
    assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISDIR(mode)
