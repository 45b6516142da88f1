"""Tests for the SQLite result store: the result surface, migration
from legacy cache directories, and multi-process write safety."""

import json
import multiprocessing
import os

import pytest

from repro.campaign import (
    CACHE_VERSION,
    CacheVersionError,
    CampaignStore,
    CampaignStoreError,
)

RECORD = {"fingerprint": "f" * 64, "cost": 12.5, "hw_tasks": ["a", "b"]}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store.sqlite")


class TestResultSurface:
    """The store's result surface: what ``cache=`` reads hits from."""

    def test_roundtrip(self, store):
        fp = "a" * 64
        assert store.get(fp) is None
        store.put(fp, RECORD)
        assert store.get(fp) == RECORD
        assert fp in store
        assert len(store) == 1

    def test_miss_on_absent(self, store):
        assert store.get("b" * 64) is None
        assert ("b" * 64) not in store

    def test_put_many_batches(self, store):
        items = [(f"{i}" * 64, {"cost": float(i)}) for i in range(5)]
        assert store.put_many(items) == 5
        assert len(store) == 5
        assert store.fingerprints() == sorted(fp for fp, _ in items)

    def test_overwrite_replaces(self, store):
        fp = "f" * 64
        store.put(fp, {"cost": 1.0})
        store.put(fp, {"cost": 2.0})
        assert store.get(fp) == {"cost": 2.0}
        assert len(store) == 1

    def test_newer_version_raises_clear_error(self, store):
        fp = "d" * 64
        store.conn.execute(
            "INSERT INTO results (fingerprint, version, record) "
            "VALUES (?, ?, ?)",
            (fp, CACHE_VERSION + 1, json.dumps(RECORD)),
        )
        with pytest.raises(CacheVersionError) as exc:
            store.get(fp)
        message = str(exc.value)
        assert str(CACHE_VERSION + 1) in message
        assert str(CACHE_VERSION) in message

    def test_older_version_reads_as_miss(self, store):
        fp = "e" * 64
        store.conn.execute(
            "INSERT INTO results (fingerprint, version, record) "
            "VALUES (?, ?, ?)",
            (fp, CACHE_VERSION - 1, json.dumps(RECORD)),
        )
        assert store.get(fp) is None

    def test_clear_drops_results_and_queue(self, store):
        store.put("a" * 64, RECORD)
        store.enqueue([("b" * 64, {"x": 1})])
        assert store.clear() == 1
        assert len(store) == 0
        assert store.queue_counts()["pending"] == 0

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "store.sqlite"
        CampaignStore(path)
        assert path.exists()


class TestUnreadableFile:
    """A file that is not a store fails with a typed error naming it,
    not a bare ``sqlite3.DatabaseError``."""

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"not a database at all " * 200)
        with pytest.raises(CampaignStoreError) as exc:
            CampaignStore(path)
        assert str(path) in str(exc.value)

    def test_truncated_store(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = CampaignStore(path)
        store.put_many([(f"{i:064d}", {"pad": "x" * 500})
                        for i in range(64)])
        store.conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        store.close()
        data = path.read_bytes()
        assert len(data) > 8192
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CampaignStoreError) as exc:
            CampaignStore(path)
        assert str(path) in str(exc.value)


def _legacy_entry(directory, fp, record):
    """One ``<fp>.json`` entry in the legacy cache-directory layout."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{fp}.json").write_text(json.dumps({
        "version": CACHE_VERSION, "fingerprint": fp, "record": record,
    }), encoding="utf-8")


class TestMigration:
    def test_import_cache(self, tmp_path):
        for i in range(4):
            _legacy_entry(tmp_path / "json", f"{i}" * 64,
                          {"cost": float(i)})
        store = CampaignStore(tmp_path / "store.sqlite")
        assert store.import_cache(tmp_path / "json") == 4
        for i in range(4):
            assert store.get(f"{i}" * 64) == {"cost": float(i)}

    def test_import_skips_unreadable_entries(self, tmp_path):
        _legacy_entry(tmp_path / "json", "a" * 64, RECORD)
        (tmp_path / "json" / f"{'b' * 64}.json").write_text(
            "{corrupt", encoding="utf-8")
        store = CampaignStore(tmp_path / "store.sqlite")
        assert store.import_cache(tmp_path / "json") == 1
        assert store.get("a" * 64) == RECORD
        assert store.get("b" * 64) is None


def _forked_child(store, out):
    """Child side of the fork-safety test (fork keeps the object)."""
    store.put("b" * 64, {"ok": True})
    out.put(store.get("a" * 64))


def _hammer(path, start, count, out):
    """Write ``count`` records; every pid also writes the shared fp."""
    store = CampaignStore(path)
    for i in range(start, start + count):
        store.put(f"{i:064d}", {"value": i})
    store.put("s" * 64, {"value": "shared"})
    out.put(os.getpid())


class TestConcurrentWriters:
    def test_two_processes_no_lost_updates(self, tmp_path):
        path = tmp_path / "store.sqlite"
        CampaignStore(path)  # create schema before forking
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(path, i * 50, 50, out))
            for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = CampaignStore(path)
        assert len(store) == 101  # 2 x 50 disjoint + 1 shared
        for i in range(100):
            assert store.get(f"{i:064d}") == {"value": i}
        assert store.get("s" * 64) == {"value": "shared"}

    def test_store_reopens_after_fork(self, tmp_path):
        """A store object crossing a fork must not share the parent's
        sqlite connection."""
        path = tmp_path / "store.sqlite"
        store = CampaignStore(path)
        store.put("a" * 64, RECORD)
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        p = ctx.Process(target=_forked_child, args=(store, out))
        p.start()
        p.join(timeout=60)
        assert p.exitcode == 0
        assert out.get(timeout=10) == RECORD
        assert store.get("b" * 64) == {"ok": True}
