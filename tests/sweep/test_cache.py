"""Tests for the result cache: the campaign store's get/put surface and
the read-only importer of legacy one-file-per-fingerprint cache
directories (``<fingerprint>.json`` holding version, fingerprint and
record)."""

import json

import pytest

from repro.campaign import CACHE_VERSION, CacheVersionError, CampaignStore


RECORD = {"fingerprint": "f" * 64, "cost": 12.5, "hw_tasks": ["a", "b"]}


def _entry(directory, fp, version=CACHE_VERSION, fingerprint=None,
           text=None):
    """Write one legacy cache entry; returns its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{fp}.json"
    if text is None:
        text = json.dumps({
            "version": version,
            "fingerprint": fp if fingerprint is None else fingerprint,
            "record": RECORD,
        })
    path.write_text(text, encoding="utf-8")
    return path


def test_roundtrip(tmp_path):
    cache = CampaignStore(tmp_path / "cache.sqlite")
    fp = "a" * 64
    assert cache.get(fp) is None
    cache.put(fp, RECORD)
    assert cache.get(fp) == RECORD
    assert fp in cache
    assert len(cache) == 1


def test_miss_on_absent(tmp_path):
    cache = CampaignStore(tmp_path / "cache.sqlite")
    assert cache.get("b" * 64) is None
    assert ("b" * 64) not in cache


def test_corrupt_file_reads_as_miss(tmp_path):
    fp = "c" * 64
    _entry(tmp_path / "legacy", fp, text="{not json")
    store = CampaignStore(tmp_path / "cache.sqlite")
    assert store.import_cache(tmp_path / "legacy") == 0
    assert store.get(fp) is None


def test_older_version_reads_as_miss(tmp_path):
    """Entries from an *older* schema are safe to recompute over."""
    fp = "d" * 64
    _entry(tmp_path / "legacy", fp, version=CACHE_VERSION - 1)
    store = CampaignStore(tmp_path / "cache.sqlite")
    assert store.import_cache(tmp_path / "legacy") == 0
    assert store.get(fp) is None


def test_newer_version_raises_clear_error(tmp_path):
    """An entry written by a newer schema must not be skipped as a
    silent miss (a run would then recompute, and clobber, what a newer
    tool trusts): importing it fails loudly, naming the file and both
    versions."""
    fp = "d" * 64
    _entry(tmp_path / "legacy", fp, version=CACHE_VERSION + 1)
    store = CampaignStore(tmp_path / "cache.sqlite")
    with pytest.raises(CacheVersionError) as exc:
        store.import_cache(tmp_path / "legacy")
    message = str(exc.value)
    assert str(CACHE_VERSION + 1) in message
    assert str(CACHE_VERSION) in message
    assert f"{fp}.json" in message
    # nothing was imported, and the legacy entry is left in place
    assert fp not in store
    assert (tmp_path / "legacy" / f"{fp}.json").exists()


def test_non_integer_version_reads_as_miss(tmp_path):
    fp = "e" * 64
    _entry(tmp_path / "legacy", fp, version="2")
    store = CampaignStore(tmp_path / "cache.sqlite")
    assert store.import_cache(tmp_path / "legacy") == 0
    assert store.get(fp) is None


def test_fingerprint_mismatch_reads_as_miss(tmp_path):
    fp = "e" * 64
    _entry(tmp_path / "legacy", fp, fingerprint="0" * 64)
    store = CampaignStore(tmp_path / "cache.sqlite")
    assert store.import_cache(tmp_path / "legacy") == 0
    assert store.get(fp) is None
    assert store.get("0" * 64) is None


def test_import_is_read_only(tmp_path):
    """The importer takes the good entries and never writes to (or
    cleans) the legacy directory."""
    legacy = tmp_path / "legacy"
    _entry(legacy, "a" * 64)
    _entry(legacy, "b" * 64, text="{not json")
    before = {p.name: p.read_bytes() for p in legacy.iterdir()}
    store = CampaignStore(tmp_path / "cache.sqlite")
    assert store.import_cache(legacy) == 1
    assert store.get("a" * 64) == RECORD
    assert {p.name: p.read_bytes() for p in legacy.iterdir()} == before


def test_import_of_missing_directory_raises(tmp_path):
    store = CampaignStore(tmp_path / "cache.sqlite")
    with pytest.raises(NotADirectoryError, match="no-such-dir"):
        store.import_cache(tmp_path / "no-such-dir")


def test_overwrite_replaces(tmp_path):
    cache = CampaignStore(tmp_path / "cache.sqlite")
    fp = "f" * 64
    cache.put(fp, {"cost": 1.0})
    cache.put(fp, {"cost": 2.0})
    assert cache.get(fp) == {"cost": 2.0}
    assert len(cache) == 1


def test_clear_and_listing(tmp_path):
    cache = CampaignStore(tmp_path / "cache.sqlite")
    for i in range(3):
        cache.put(f"{i}" * 64, {"cost": float(i)})
    assert len(cache.fingerprints()) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_creates_directory(tmp_path):
    root = tmp_path / "deep" / "nested" / "cache"
    CampaignStore(root / "cache.sqlite")
    assert root.is_dir()
