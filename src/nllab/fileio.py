"""Atomic file writes: a temp file in the target's directory, then a rename.

A reader sees either the old file or the complete new one, never a partial
write.  This module imports nothing else from nllab, so the checkpoint and run
log modules stay free of the model's import chain.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: str | bytes) -> None:
    """Write `data` to `path` atomically, creating the parent directory.

    On any failure the temp file is removed and an existing `path` is left
    unchanged.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
