"""The code fingerprint: which source a document was produced by.

BENCH documents and perfbench results record it as provenance; touch
any file under ``src/repro`` and it changes.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib

__all__ = ["code_fingerprint"]


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro``
    package (relative path + contents, sorted), memoized per process."""
    import repro

    pkg_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_root.rglob("*.py")):
        rel = path.relative_to(pkg_root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
