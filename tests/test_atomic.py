import errno
import os

import numpy as np
import pytest

from text2vis import atomic, data, nn, textvec
from text2vis.atomic import atomic_write

# Each writer, given a target path and a version number that changes what it writes.
WRITERS = {
    "checkpoint": lambda path, version: nn.save_checkpoint(
        nn.init_model(6, 4, 3, seed=version), path),
    "features": lambda path, version: data.save_features(
        path, [1, 2], np.full((2, 3), version, dtype=np.float32)),
    "csv": lambda path, version: data.write_csv(path, ["a", "b"], [[version, 1], [2, 3]]),
    "vocabulary": lambda path, version: textvec.Vocabulary(
        ["dog", f"cat{version}"], textvec.MODE_UNIGRAM).save(path),
    "captions": lambda path, version: data.save_captions(path, [(version, ["a dog"])]),
}


class _FullDiskFile:
    """A file whose first write stores half its bytes, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, chunk):
        self._fh.write(chunk[: len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "target"
    WRITERS[writer](path, 0)
    before = path.read_bytes()
    monkeypatch.setattr(atomic, "open", lambda *a, **kw: _FullDiskFile(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](path, 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["target"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_old_file(writer, tmp_path):
    path = tmp_path / "target"
    WRITERS[writer](path, 0)
    before = path.read_bytes()
    WRITERS[writer](path, 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["target"]


def test_new_file_has_plain_open_permissions(tmp_path):
    (tmp_path / "plain").write_text("x")
    with atomic_write(tmp_path / "atomic") as fh:
        fh.write("x")
    assert (os.stat(tmp_path / "atomic").st_mode
            == os.stat(tmp_path / "plain").st_mode)


def test_interrupted_block_leaves_no_file(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "out.bin", "wb") as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == []
