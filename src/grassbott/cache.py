"""Content-addressed persistence of computed values across CLI runs.

The package stores one operation, ``power``: the plethysm results of
:func:`grassbott.schur._power_fast` as ``[first, second, multiplicity]``
rows, keyed by the input decomposition (see :func:`grassbott.schur.set_store`).
Schema-1 files, with decomposition JSON values and ``evaluate`` and
``cohomology`` entries, are never read again.

One JSON file per entry under the cache root; the filename is a 64-bit
digest (CRC-32 then Adler-32, in hex) of (schema version, operation,
canonical key).  Each entry holds that full triple and a read checks it,
so two keys whose names collide only ever miss each other's entries.
zlib's checksums name the files because importing ``hashlib`` loads
OpenSSL, milliseconds that every CLI process would pay; files under the
earlier SHA-256 names are never read again.  Writes go to a temp file
in the same directory, named for the writing process and its count of
writes, followed by an atomic rename, so concurrent writers of the same
key converge to one valid entry and readers never observe partial
writes.  Paths are plain strings, because importing ``pathlib`` and
``tempfile`` would cost every CLI process milliseconds.  Corrupt or
mismatched entries are treated as misses.  Problems with the store never
fail a computation: they are reported through :func:`warnings.warn` and
the store falls back to misses.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
import zlib

SCHEMA_VERSION = 2
ENV_VAR = "GBK_CACHE_DIR"
_SEQ = itertools.count()  # this process's writes, for temp-file names


def default_cache_dir() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "grassbott")


class Store:
    """A file-backed memo table; misses are always safe."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = os.fspath(root) if root is not None else default_cache_dir()
        self._disabled = False
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as err:
            warnings.warn(f"cache disabled: cannot create {self.root} ({err})")
            self._disabled = True

    def _path(self, operation: str, key: str) -> str:
        b = f"{SCHEMA_VERSION}\x00{operation}\x00{key}".encode()
        return os.path.join(self.root, f"{zlib.crc32(b):08x}{zlib.adler32(b):08x}.json")

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
            warnings.warn(f"corrupt cache entry {os.path.basename(path)} ignored ({err})")
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
        tmp = f"{path}.{os.getpid()}.{next(_SEQ)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
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
            warnings.warn(f"cache disabled: cannot write {os.path.basename(path)} ({err})")
            self._disabled = True
