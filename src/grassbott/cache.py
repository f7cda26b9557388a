"""Content-addressed persistence of computed values across CLI runs.

One JSON file per entry under the cache root; the filename is the
SHA-256 of (schema version, operation, canonical key).  Writes go to a
temp file in the same directory followed by an atomic rename, so
concurrent writers of the same key converge to one valid entry and
readers never observe partial writes.  Corrupt or mismatched entries
are treated as misses.  Problems with the store never fail a
computation: they are reported through :func:`warnings.warn` and the
store falls back to misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

SCHEMA_VERSION = 1
ENV_VAR = "GBK_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "grassbott"


class Store:
    """A file-backed memo table; misses are always safe."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._disabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            warnings.warn(f"cache disabled: cannot create {self.root} ({err})")
            self._disabled = True

    def _path(self, operation: str, key: str) -> Path:
        digest = hashlib.sha256(
            f"{SCHEMA_VERSION}\x00{operation}\x00{key}".encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, operation: str, key: str):
        if self._disabled:
            return None
        path = self._path(operation, key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as err:  # bad JSON or not UTF-8
            warnings.warn(f"corrupt cache entry {path.name} ignored ({err})")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != SCHEMA_VERSION
            or entry.get("operation") != operation
            or entry.get("key") != key
        ):
            return None
        return entry.get("value")

    def put(self, operation: str, key: str, value) -> None:
        if self._disabled:
            return
        entry = {
            "schema": SCHEMA_VERSION,
            "operation": operation,
            "key": key,
            "value": value,
        }
        path = self._path(operation, key)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as err:
            warnings.warn(f"cache disabled: cannot write {path.name} ({err})")
            self._disabled = True
