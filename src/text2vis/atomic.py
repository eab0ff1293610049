"""Atomic file replacement: a reader of the target sees the old file or the
new one, never a partly written one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new temporary file beside ``path`` for writing (``mode`` is "w"
    or "wb"; ``open_kwargs`` go to ``open``).

    When the block completes, the temporary file replaces ``path`` with one
    ``os.replace``.  When it raises, the temporary file is removed and ``path``
    is left as it was.  This guards against a write that fails or is
    interrupted part way; nothing is fsynced, so it promises nothing across a
    power loss.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
