import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from grassbott import clear_caches, schur
from grassbott import expr as ex
from grassbott.bott import cohomology
from grassbott.cache import SCHEMA_VERSION, Store, default_cache_dir
from grassbott.weights import GrassContext


def test_miss_on_empty_cache(tmp_path):
    store = Store(tmp_path)
    assert store.get("op", "key") is None


def test_put_get_roundtrip(tmp_path):
    store = Store(tmp_path)
    value = {"weights": {"2,5:[1,1|0,0,0]": "1"}, "grass": "2,5"}
    store.put("evaluate", "some-key", value)
    assert store.get("evaluate", "some-key") == value
    # a different operation with the same key text is a distinct entry
    assert store.get("cohomology", "some-key") is None


def test_persistence_across_instances(tmp_path):
    Store(tmp_path).put("op", "k", [1, 2, 3])
    assert Store(tmp_path).get("op", "k") == [1, 2, 3]


def test_overwrite_same_key(tmp_path):
    store = Store(tmp_path)
    store.put("op", "k", "a")
    store.put("op", "k", "b")
    assert store.get("op", "k") == "b"


def test_corrupt_entry_is_a_miss(tmp_path):
    store = Store(tmp_path)
    store.put("op", "k", {"x": 1})
    (entry,) = list(tmp_path.glob("*.json"))
    for garbage in (b"{ not json", b"\xff\xfe not utf-8"):
        entry.write_bytes(garbage)
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            assert store.get("op", "k") is None


def test_entry_file_name_is_pinned(tmp_path):
    # crc32 then adler32 of b"2\x00evaluate\x002,5|sym(2,Q)"; a change of
    # name orphans every entry users have on disk
    path = Store(tmp_path)._path("evaluate", "2,5|sym(2,Q)")
    assert path == os.path.join(str(tmp_path), "853153ef560606f2.json")
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from grassbott.cache import Store; "
        f"print(Store({str(tmp_path)!r})._path('evaluate', '2,5|sym(2,Q)'))"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, path + "\n", "")


def test_colliding_names_are_misses(tmp_path, monkeypatch):
    monkeypatch.setattr(Store, "_path", lambda self, operation, key: os.path.join(self.root, "one.json"))
    store = Store(tmp_path)
    store.put("evaluate", "a", 1)
    assert store.get("evaluate", "b") is None
    assert store.get("cohomology", "a") is None
    assert store.get("evaluate", "a") == 1
    store.put("evaluate", "b", 2)
    assert store.get("evaluate", "a") is None
    assert store.get("evaluate", "b") == 2


def test_schema_version_mismatch_is_a_miss(tmp_path):
    store = Store(tmp_path)
    store.put("op", "k", {"x": 1})
    (entry,) = list(tmp_path.glob("*.json"))
    data = json.loads(entry.read_text())
    data["schema"] = SCHEMA_VERSION + 1
    entry.write_text(json.dumps(data))
    assert store.get("op", "k") is None


def test_concurrent_writers_leave_valid_entry(tmp_path):
    store = Store(tmp_path)

    def writer(i):
        for _ in range(20):
            store.put("op", "shared", {"value": i})

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = store.get("op", "shared")
    assert got in [{"value": i} for i in range(4)]


def test_unusable_directory_disables_cache(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.warns(UserWarning, match="cache disabled: cannot create"):
        store = Store(blocker / "sub")  # parent is a file, mkdir fails
    store.put("op", "k", 1)  # must not raise
    assert store.get("op", "k") is None


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GBK_CACHE_DIR", str(tmp_path / "envdir"))
    assert default_cache_dir() == str(tmp_path / "envdir")


def test_cache_transparent_for_results(tmp_path):
    ctx = GrassContext(2, 5)
    e = ex.Twist(ex.Dual(ex.Wedge(3, ex.Sym(3, ex.Q))), 2)
    schur.set_store(None)
    clear_caches()
    bare = dict(cohomology(e, ctx))
    try:
        schur.set_store(Store(tmp_path))
        clear_caches()
        warm = dict(cohomology(e, ctx))  # populates the store
        clear_caches()
        cached = dict(cohomology(e, ctx))  # reads it back
    finally:
        schur.set_store(None)
        clear_caches()
    assert bare == warm == cached == {3: 1}
