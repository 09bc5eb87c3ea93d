"""Output files that appear whole or not at all."""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path
from typing import IO, Iterator, Optional


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, newline: Optional[str] = None) -> Iterator[IO[str]]:
    """Open `path` for writing UTF-8 text, so that readers never see it half written.

    The block writes a new temporary file beside `path`, which then
    replaces `path` in one `os.replace`.  If the block raises, the
    temporary file is removed and `path` keeps its previous content (or
    stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x", newline=newline, encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
