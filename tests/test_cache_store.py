"""The pluggable cache store backends.

Pins the robustness contract of :mod:`repro.evaluation.cache`: sharded
placement and per-shard locking, corruption quarantine, the
re-check-under-lock recovery path (a repaired entry must be served,
not deleted), size-budgeted LRU eviction, single-flight memoisation
(one compute per key under concurrency, races counted, no deadlock
when memoised calls nest), and the bounded put-lock wait that prevents
cross-slot deadlock.
"""

import json
import os
import threading
import time

import pytest

from repro.evaluation.cache import (
    CacheStore, ShardedCacheStore, SHARDS_ENV, open_store)
from repro.evaluation import cache as cache_module
from repro.evaluation.parallel import memoised
from repro.testing import faults


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path / "cache"))


@pytest.fixture
def sharded(tmp_path):
    return ShardedCacheStore(str(tmp_path / "cache"), shards=4)


# --------------------------------------------------------------------------
# Round trips and placement.

def test_roundtrip_and_miss_counting(store):
    key = store.key("cell", {"a": 1})
    assert store.get(key) is None
    store.put(key, {"value": 41})
    assert store.get(key) == {"value": 41}
    assert store.stats() == {"hits": 1, "misses": 1, "corrupt": 0}


def test_key_is_sensitive_to_kind_and_components(store):
    base = store.key("cell", {"a": 1})
    assert store.key("profile", {"a": 1}) != base
    assert store.key("cell", {"a": 2}) != base
    assert store.key("cell", {"a": 1}) == base


def test_sharded_roundtrip_places_entries_in_shard_dirs(sharded):
    keys = [sharded.key("cell", {"n": n}) for n in range(16)]
    for n, key in enumerate(keys):
        sharded.put(key, {"n": n})
    for n, key in enumerate(keys):
        assert sharded.get(key) == {"n": n}
        path = sharded.path(key)
        shard = os.path.basename(os.path.dirname(path))
        assert shard == "shard-%02x" % sharded.shard_of(key)
    # With 16 distinct keys over 4 shards, placement must spread: at
    # least two shard directories exist (crc32 would have to collide
    # 16 keys into one bucket otherwise).
    assert len(sharded._entry_dirs()) >= 2


def test_sharded_and_plain_store_use_same_keys(tmp_path):
    plain = CacheStore(str(tmp_path / "a"))
    shard = ShardedCacheStore(str(tmp_path / "b"), shards=8)
    assert plain.key("cell", {"x": 1}) == shard.key("cell", {"x": 1})


def test_open_store_honours_environment(tmp_path, monkeypatch):
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    assert type(open_store(str(tmp_path))) is CacheStore
    monkeypatch.setenv(SHARDS_ENV, "8")
    picked = open_store(str(tmp_path))
    assert isinstance(picked, ShardedCacheStore)
    assert picked.shards == 8
    # Explicit argument beats the environment; nonsense is ignored.
    assert type(open_store(str(tmp_path), shards=1)) is CacheStore
    monkeypatch.setenv(SHARDS_ENV, "lots")
    assert type(open_store(str(tmp_path))) is CacheStore


# --------------------------------------------------------------------------
# Corruption: discard vs quarantine, and recovery under the lock.

def test_corrupt_entry_is_a_miss_then_recomputable(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    faults.corrupt_file(store.path(key))
    assert store.get(key) is None
    assert store.corrupt == 1
    assert not os.path.exists(store.path(key))
    store.put(key, {"value": 2})
    assert store.get(key) == {"value": 2}


def test_sharded_corrupt_entry_is_quarantined_not_unlinked(sharded):
    key = sharded.key("cell", {"a": 1})
    sharded.put(key, {"value": 1})
    faults.corrupt_file(sharded.path(key))
    assert sharded.get(key) is None
    assert sharded.quarantined == 1
    assert not os.path.exists(sharded.path(key))
    names = os.listdir(os.path.join(sharded.root, "quarantine"))
    assert names == [os.path.basename(sharded.path(key))]


def test_recovery_recheck_serves_entry_repaired_under_lock(
        store, monkeypatch):
    # A reader sees damage, but by the time it holds the lock a
    # concurrent writer has repaired the entry: the re-check must
    # serve the repaired payload and *not* delete the fresh entry.
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 99})
    real_read = CacheStore._read
    calls = []

    def flaky_read(self, path):
        calls.append(path)
        if len(calls) == 1:
            raise cache_module._CorruptEntry("simulated first read")
        return real_read(self, path)

    monkeypatch.setattr(CacheStore, "_read", flaky_read)
    assert store.get(key) == {"value": 99}
    assert len(calls) == 2                  # optimistic + under-lock
    assert store.corrupt == 0
    assert store.hits == 1
    assert os.path.exists(store.path(key))


def test_checksum_mismatch_detected_not_just_bad_json(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    # Valid JSON, wrong checksum: the payload was tampered with.
    entry = json.load(open(store.path(key)))
    entry["payload"] = {"value": 666}
    with open(store.path(key), "w") as handle:
        json.dump(entry, handle)
    assert store.get(key) is None
    assert store.corrupt == 1


def test_cache_shard_fault_corrupts_then_heals(sharded, tmp_path):
    key = sharded.key("cell", {"a": 1})
    sharded.put(key, {"value": 7})
    with faults.injected("cache.shard=corrupt:1"):
        assert sharded.get(key) is None     # injected damage -> miss
        sharded.put(key, {"value": 7})      # recompute heals
        assert sharded.get(key) == {"value": 7}
    assert sharded.quarantined == 1


def test_cache_shard_error_fault_reads_as_miss(sharded):
    key = sharded.key("cell", {"a": 1})
    sharded.put(key, {"value": 7})
    with faults.injected("cache.shard=error:1"):
        assert sharded.get(key) is None     # transient I/O -> miss
        assert sharded.get(key) == {"value": 7}   # next read is fine
    assert os.path.exists(sharded.path(key))


# --------------------------------------------------------------------------
# LRU eviction under a byte budget.

def test_gc_evicts_oldest_entries_down_to_budget(sharded):
    keys = [sharded.key("cell", {"n": n}) for n in range(6)]
    for n, key in enumerate(keys):
        sharded.put(key, {"n": n, "pad": "x" * 64})
    now = time.time()
    for age, key in enumerate(reversed(keys)):
        os.utime(sharded.path(key), (now - age * 60, now - age * 60))
    # keys[0] is now the oldest, keys[5] the freshest.
    sizes = {key: os.stat(sharded.path(key)).st_size for key in keys}
    budget = sum(sizes[key] for key in keys[2:])
    summary = sharded.gc(budget)
    assert summary["removed"] == 2
    assert summary["kept"] == 4
    assert summary["kept_bytes"] <= budget
    assert sharded.evictions == 2
    survivors = [key for key in keys
                 if os.path.exists(sharded.path(key))]
    assert survivors == keys[2:]


def test_gc_purges_quarantine_even_within_budget(sharded):
    key = sharded.key("cell", {"a": 1})
    sharded.put(key, {"value": 1})
    faults.corrupt_file(sharded.path(key))
    assert sharded.get(key) is None
    assert sharded.usage()["quarantined_files"] == 1
    summary = sharded.gc(10 ** 9)
    assert summary["removed"] == 1          # the quarantined file
    assert sharded.usage()["quarantined_files"] == 0
    assert sharded.evictions == 0           # purge is not an eviction


def test_hit_refreshes_mtime_so_lru_spares_hot_entries(store):
    hot = store.key("cell", {"hot": True})
    cold = store.key("cell", {"cold": True})
    store.put(hot, {"pad": "x" * 64})
    store.put(cold, {"pad": "y" * 64})
    stale = time.time() - 3600
    os.utime(store.path(hot), (stale, stale))
    os.utime(store.path(cold), (stale + 1, stale + 1))
    assert store.get(hot) is not None       # hit refreshes mtime
    budget = os.stat(store.path(hot)).st_size
    store.gc(budget)
    assert os.path.exists(store.path(hot))
    assert not os.path.exists(store.path(cold))


def test_usage_reports_entries_and_bytes(sharded):
    assert sharded.usage()["entries"] == 0
    for n in range(3):
        sharded.put(sharded.key("cell", {"n": n}), {"n": n})
    usage = sharded.usage()
    assert usage["entries"] == 3
    assert usage["bytes"] > 0
    assert usage["shards"] == 4


# --------------------------------------------------------------------------
# Single-flight memoisation.

def test_memoised_computes_once_then_serves_cached(store):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    first = memoised("cell", {"q": 1}, compute, store=store)
    second = memoised("cell", {"q": 1}, compute, store=store)
    assert first == second == {"answer": 42}
    assert len(calls) == 1


def test_memoised_use_cache_false_always_recomputes(store):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": len(calls)}

    memoised("cell", {"q": 1}, compute, store=store)
    fresh = memoised("cell", {"q": 1}, compute, store=store,
                     use_cache=False)
    assert fresh == {"answer": 2}
    assert len(calls) == 2


def test_memoised_single_flight_across_stores(tmp_path):
    # Two threads, two store objects (as two processes would have),
    # one key: exactly one compute runs; the loser of the lock race
    # serves the winner's result and counts a race.
    root = str(tmp_path / "cache")
    first, second = CacheStore(root), CacheStore(root)
    entered = threading.Event()
    release = threading.Event()
    calls = []
    results = {}

    def slow_compute():
        calls.append("slow")
        entered.set()
        assert release.wait(timeout=10.0)
        return {"answer": 42}

    def fast_compute():
        calls.append("fast")
        return {"answer": 42}

    def leader():
        results["leader"] = memoised(
            "cell", {"q": 1}, slow_compute, store=first)

    thread = threading.Thread(target=leader)
    thread.start()
    assert entered.wait(timeout=10.0)
    # The leader is inside compute, holding the key lock.  A follower
    # misses, then blocks on the lock; once the leader publishes, the
    # follower's second look finds the entry without computing.
    follower = threading.Thread(target=lambda: results.update(
        follower=memoised("cell", {"q": 1}, fast_compute,
                          store=second)))
    follower.start()
    time.sleep(0.2)                 # let the follower reach the lock
    release.set()
    thread.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert results["leader"] == results["follower"] == {"answer": 42}
    assert calls == ["slow"]        # single flight: one compute total
    assert second.races == 1


def test_nested_memoised_on_held_slot_does_not_deadlock(tmp_path):
    """A compute that memoises, through another store object, a key on
    the lock slot the outer call holds (a served ``analyze`` request
    memoising its cells) runs under the outer lock instead of waiting
    on its own thread."""
    from repro.evaluation.parallel import code_version
    root = str(tmp_path / "cache")
    outer, inner = CacheStore(root), CacheStore(root)

    def lock_path(store, components):
        return store.lock_for(store.key(
            "cell", dict(components, code=code_version("cell")))).path

    slot = lock_path(outer, {"n": 0})
    n = next(n for n in range(1, 1000)
             if lock_path(inner, {"n": n}) == slot)
    results = {}

    def run():
        results["outer"] = memoised(
            "cell", {"n": 0},
            lambda: memoised("cell", {"n": n}, lambda: {"inner": n},
                             store=inner),
            store=outer)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "nested memoised deadlocked"
    assert results["outer"] == {"inner": n}
    assert memoised("cell", {"n": n}, lambda: None, store=inner) \
        == {"inner": n}


def test_corrupt_read_under_held_slot_does_not_deadlock(tmp_path):
    """Recovering a corrupt entry inside a compute that holds its lock
    file (through another store object) re-checks under that hold."""
    root = str(tmp_path / "cache")
    outer, inner = CacheStore(root), CacheStore(root)
    key = inner.key("emulation", {"fingerprint": "f"})
    inner.put(key, {"steps": 1})
    with open(inner.path(key), "w") as handle:
        handle.write("{torn")
    results = {}

    def run():
        with outer.single_flight(key) as first:
            results["first"] = first
            results["read"] = inner.get(key)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "corrupt-entry recovery deadlocked"
    assert results == {"first": True, "read": None}
    assert inner.corrupt == 1
    assert not os.path.exists(inner.path(key))


def test_put_under_held_foreign_lock_counts_contention(tmp_path):
    # A different *object* holds the slot lock (as another process
    # would): put must note contention, wait, and still publish once
    # the lock frees.
    root = str(tmp_path / "cache")
    writer, blocker = CacheStore(root), CacheStore(root)
    key = writer.key("cell", {"a": 1})
    foreign = blocker.lock_for(key)
    foreign.acquire()

    def release_soon():
        time.sleep(0.3)
        foreign.release()

    thread = threading.Thread(target=release_soon)
    thread.start()
    writer.put(key, {"value": 1})
    thread.join()
    assert writer.contention == 1
    assert writer.get(key) == {"value": 1}


def test_put_lock_timeout_falls_back_to_unlocked_write(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "PUT_LOCK_TIMEOUT", 0.2)
    root = str(tmp_path / "cache")
    writer, blocker = CacheStore(root), CacheStore(root)
    key = writer.key("cell", {"a": 1})
    blocker.lock_for(key).acquire()        # never released: wedged peer
    try:
        started = time.monotonic()
        writer.put(key, {"value": 1})      # must not deadlock
        assert time.monotonic() - started < 5.0
        assert writer.get(key) == {"value": 1}
        assert writer.contention == 1
    finally:
        blocker.lock_for(key).release()


def test_lock_for_returns_same_object_per_slot(store):
    key = store.key("cell", {"a": 1})
    assert store.lock_for(key) is store.lock_for(key)


def test_counters_superset_of_stats(sharded):
    sharded.get(sharded.key("cell", {"a": 1}))
    counters = sharded.counters()
    stats = sharded.stats()
    assert set(stats) == {"hits", "misses", "corrupt"}
    for name, value in stats.items():
        assert counters[name] == value
    for name in ("quarantined", "evictions", "races", "contention"):
        assert name in counters
    assert counters["shards"] == 4


# --------------------------------------------------------------------------
# The or-parallel answer-memo table: entries must survive both
# backends, corruption must quarantine-and-recompute, and the store's
# per-kind counters must reconcile with the trace counters.

ORP_SOURCE = """
color(red). color(green). color(blue).
pair(X, Y) :- color(X), color(Y).
"""


def _memo_engine(store):
    from repro.evaluation.parallel import EvaluationEngine
    from repro.evaluation.supervisor import SupervisorPolicy
    return EvaluationEngine(
        jobs=2, store=store,
        policy=SupervisorPolicy(max_attempts=2, deadline=60.0,
                                backoff_base=0.01, backoff_cap=0.05,
                                seed=1992, poll=0.02))


def _memo_entries(root):
    """Every persisted cache entry under *root* (both layouts)."""
    paths = []
    for dirpath, _, names in os.walk(str(root)):
        if os.path.basename(dirpath) == "quarantine":
            continue
        paths.extend(os.path.join(dirpath, name) for name in names
                     if name.startswith("cas-")
                     and name.endswith(".json"))
    return sorted(paths)


@pytest.mark.parametrize("backend", ["plain", "sharded"])
def test_orparallel_memo_roundtrips_through_both_backends(tmp_path,
                                                          backend):
    from repro.interp.orparallel import or_solutions
    root = tmp_path / "memo"
    if backend == "plain":
        store = CacheStore(str(root))
    else:
        store = ShardedCacheStore(str(root), shards=4)
    with _memo_engine(store) as engine:
        cold = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        assert cold["mode"] == "parallel"
        # call-scope entry + one entry per branch
        assert len(_memo_entries(root)) == 1 + cold["branches"]
        # A second store over the same directory (a later process)
        # serves the same bytes without recomputing.
        if backend == "plain":
            reopened = CacheStore(str(root))
        else:
            reopened = ShardedCacheStore(str(root), shards=4)
        warm = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine,
                            store=reopened)
        assert warm["mode"] == "memo"
        assert warm["answers"] == cold["answers"]
        assert warm["output"] == cold["output"]


def test_corrupt_orparallel_memo_is_quarantined_and_recomputed(
        tmp_path):
    from repro.interp.orparallel import or_solutions, sequential_answers
    root = tmp_path / "memo"
    store = ShardedCacheStore(str(root), shards=4)
    with _memo_engine(store) as engine:
        cold = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        for path in _memo_entries(root):
            faults.corrupt_file(path)
        recomputed = or_solutions(ORP_SOURCE, "pair(X, Y)",
                                  engine=engine)
    # The damaged entries were misses, not answers: the query fell
    # through to a fresh parallel run with the oracle's answers...
    assert recomputed["mode"] == "parallel"
    oracle = sequential_answers(ORP_SOURCE, "pair(X, Y)")
    assert recomputed["answers"] == oracle["answers"]
    assert recomputed["output"] == oracle["output"]
    assert recomputed["answers"] == cold["answers"]
    # ...every damaged entry was quarantined for post-mortem, and the
    # recomputed entries are readable again.
    assert store.corrupt >= 1 + cold["branches"]
    assert store.quarantined >= 1 + cold["branches"]
    assert os.listdir(os.path.join(store.root, "quarantine"))
    assert len(_memo_entries(root)) == 1 + cold["branches"]


def test_orparallel_kind_stats_reconcile_with_trace_counters(
        tmp_path, traced_run):
    from repro.interp.orparallel import MEMO_KIND, or_solutions
    store = CacheStore(str(tmp_path / "memo"))
    with _memo_engine(store) as engine:
        or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
    counters = traced_run.metrics.counters
    stats = store.kind_stats(MEMO_KIND)
    # Call scope: one traced miss then one traced hit.
    assert counters["orparallel.memo.misses"] == 1
    assert counters["orparallel.memo.hits"] == 1
    # Branch scope: each branch was a cold miss; none re-dispatched.
    assert counters["orparallel.branch_memo.misses"] == 3
    assert "orparallel.branch_memo.hits" not in counters
    # The store's per-kind ledger tells the same story: one hit (the
    # warm call), misses for the cold call + its three branches (the
    # single-flight re-check under the lock may add more misses, never
    # hits).
    assert stats["hits"] == counters["orparallel.memo.hits"]
    assert stats["misses"] >= (counters["orparallel.memo.misses"]
                               + counters["orparallel.branch_memo"
                                          ".misses"])
    assert store.corrupt == 0
