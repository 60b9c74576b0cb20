"""The content-addressed artefact store.

The evaluation pipeline memoises every DAG node — profiles, region
layouts, cycle cells, experiment-level results — and the emulator its
profiles and compiled programs in one :class:`CacheStore` of
checksummed JSON entries.  Entry files are ``cas-<kind>-<keyhash>.json``
in one directory; writers are serialised per *lock slot* (the key hash
picks one of :data:`LOCK_SLOTS` advisory lock files) instead of one
global lock, so unrelated keys do not contend.

Robustness invariants:

* Reads are optimistic and lock-free.  A corrupt or checksum-mismatched
  entry is **re-checked under the key's lock** before being discarded:
  a concurrent writer may have repaired it between our read and our
  move, and discarding the fresh entry would throw its work away.  A
  confirmed-corrupt entry is moved into ``quarantine/`` for post-mortem
  (counted as ``cache.quarantined``), never served.
* Writes go through :func:`repro.atomicio.atomic_write_text` under the
  key's lock.  If the lock cannot be acquired within a bound the write
  proceeds unlocked — the atomic rename alone already guarantees
  readers never see a torn file, so a wedged peer cannot deadlock a
  writer (the bounded wait is counted as lock contention).
* The ``cache.read`` fault site injects on-disk damage (``corrupt``)
  and transient read errors (``error``); both read as a miss and heal
  into a recompute, never a wrong answer.
* Counters (hits/misses/corrupt plus quarantined/evictions/races/
  contention) are mirrored into the observability layer so a tracer or
  the service's ``/metrics`` endpoint can reconcile them.

Older releases could spread entries over ``shard-XX/`` subdirectories;
the store never looks there, so such entries read as misses and the
directories can be deleted.
"""

import contextlib
import hashlib
import json
import os
import threading
import time
import zlib

from repro.atomicio import FileLock, atomic_write_text
from repro.benchmarks.suite import cache_dir
from repro.observability import tracing as obs
from repro.testing import faults

__all__ = [
    "CACHE_SCHEMA",
    "CacheStore",
]

#: bump to invalidate every cached artefact (layout/format changes)
CACHE_SCHEMA = 1

#: single-directory stores hash keys onto this many advisory lock
#: files (``.lock-XX``) so unrelated keys do not serialise each other
LOCK_SLOTS = 16

#: how long a writer waits for the key's lock before falling back to
#: an unlocked (still atomic) publish — prevents cross-key deadlock
#: when two single-flight computes write each other's slots
PUT_LOCK_TIMEOUT = 10.0


#: per thread, the lock files held across a compute (see
#: :meth:`CacheStore.single_flight`)
_computing = threading.local()


def _held_paths():
    return _computing.__dict__.setdefault("paths", set())


def _canonical(value):
    """Deterministic JSON encoding used for every hashed key."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class _CorruptEntry(ValueError):
    """Internal: an entry failed decoding or checksum verification."""


class CacheStore:
    """Content-addressed JSON artefacts with integrity checking.

    Entries live as ``cas-<kind>-<keyhash>.json`` files wrapping the
    payload together with a checksum of its canonical encoding; a
    missing, truncated, corrupt or checksum-mismatched entry reads as
    a miss (and is quarantined *under the key's lock* — see
    :meth:`_recover`) so it is recomputed, never trusted.  Writes are
    crash-safe (:func:`repro.atomicio.atomic_write_text`: temp file +
    fsync + atomic rename) and serialised under the key's slot lock,
    so concurrent workers — or two whole CLI runs sharing the
    directory — can race on the same key without ever exposing a torn
    file.
    """

    def __init__(self, root=None):
        self._root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.evictions = 0
        self.races = 0
        self.contention = 0
        self._locks = {}
        self._kind_counts = {}

    @property
    def root(self):
        return self._root or cache_dir()

    # -- keys and paths ----------------------------------------------------

    def key(self, kind, components):
        payload = {"schema": CACHE_SCHEMA, "kind": kind,
                   "components": components}
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        return "cas-%s-%s" % (kind, digest[:32])

    def path(self, key):
        return os.path.join(self.root, key + ".json")

    def lock_for(self, key):
        """The re-entrant :class:`FileLock` guarding *key*.

        One lock object is cached per lock file, so a caller holding
        the key's lock (single-flight ``memoised``) and the store's
        own :meth:`put` share the same re-entrant object instead of
        deadlocking on a second descriptor.
        """
        path = self._lock_path(key)
        lock = self._locks.get(path)
        if lock is None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            lock = FileLock(path)
            self._locks[path] = lock
        return lock

    def _lock_path(self, key):
        slot = zlib.crc32(key.encode()) % LOCK_SLOTS
        return os.path.join(self.root, ".lock-%02x" % slot)

    def _held_here(self, key):
        """True when this thread holds *key*'s lock file across a
        compute (:meth:`single_flight`), possibly through another store
        object.  Taking this object's lock would then wait on this very
        thread; peers are excluded already, so callers go ahead."""
        return self._lock_path(key) in _held_paths()

    @contextlib.contextmanager
    def single_flight(self, key):
        """Hold *key*'s lock across a compute.

        Yields True when this call took the lock, False when an outer
        compute on this thread already holds its lock file (a served
        request memoising its cells): the nested compute runs under
        that hold instead of waiting on its own thread.
        """
        if self._held_here(key):
            yield False
            return
        path = self._lock_path(key)
        with self.lock_for(key):
            _held_paths().add(path)
            try:
                yield True
            finally:
                _held_paths().discard(path)

    # -- reads -------------------------------------------------------------

    def get(self, key):
        """The payload stored under *key*, or None (a miss)."""
        path = self.path(key)
        try:
            self._pre_read_faults(path)
            payload = self._read(path)
        except (FileNotFoundError, faults.InjectedFault):
            # an injected transient read error is a miss, not an
            # outage: the caller recomputes and rewrites the entry
            self.misses += 1
            obs.add("cache.misses")
            self._note_kind(key, "misses")
            return None
        except _CorruptEntry:
            payload = self._recover(key, path)
            if payload is None:
                self._note_kind(key, "misses")
                return None
        self.hits += 1
        obs.add("cache.hits")
        self._note_kind(key, "hits")
        self._touch(path)
        return payload

    def _note_kind(self, key, outcome):
        """Count *outcome* against the key's artefact kind.

        Keys are ``cas-<kind>-<hash>``, so the kind is recoverable from
        the key itself; the per-kind breakdown lets a caller report the
        answer-memo hit rate separately from pipeline artefacts sharing
        the same store (see :meth:`kind_stats`).
        """
        parts = key.split("-", 2)
        if len(parts) == 3 and parts[0] == "cas":
            counts = self._kind_counts.setdefault(
                parts[1], {"hits": 0, "misses": 0})
            counts[outcome] += 1

    def _pre_read_faults(self, path):
        """Enact an armed ``cache.read`` fault: ``corrupt`` damages the
        entry on disk, ``error`` raises :class:`faults.InjectedFault`."""
        if faults.armed("cache.read") and os.path.exists(path) \
                and faults.fire("cache.read") == "corrupt":
            faults.corrupt_file(path)

    def _read(self, path):
        """Decode and verify one entry file; raises on any damage."""
        with open(path) as handle:
            try:
                entry = json.load(handle)
                payload = entry["payload"]
                checksum = hashlib.sha256(
                    _canonical(payload).encode()).hexdigest()
                if entry["sha256"] != checksum:
                    raise ValueError("payload checksum mismatch")
            except (ValueError, KeyError, TypeError) as error:
                raise _CorruptEntry(str(error)) from error
        return payload

    def _recover(self, key, path):
        """Re-check a corrupt entry under the key's lock.

        Discarding without the lock could unlink an entry a concurrent
        writer repaired between our read and our delete; under the
        lock either the repaired payload is served or the damage is
        confirmed and the entry quarantined.
        """
        with contextlib.ExitStack() as stack:
            if not self._held_here(key):
                stack.enter_context(self.lock_for(key))
            try:
                return self._read(path)
            except FileNotFoundError:
                self.misses += 1
                obs.add("cache.misses")
                return None
            except _CorruptEntry:
                self.corrupt += 1
                self.misses += 1
                obs.add("cache.corrupt")
                obs.add("cache.misses")
                self._quarantine(path)
                return None

    def _quarantine(self, path):
        """Move a confirmed-corrupt entry into ``quarantine/`` (holding
        the key's lock), keeping the evidence; unlink it if the move
        fails."""
        directory = self._quarantine_dir()
        try:
            os.makedirs(directory, exist_ok=True)
            os.replace(path, os.path.join(directory,
                                          os.path.basename(path)))
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
            return
        self.quarantined += 1
        obs.add("cache.quarantined")

    def _touch(self, path):
        """Refresh the entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- writes ------------------------------------------------------------

    def put(self, key, payload, wait=True):
        """Publish *payload* under *key*.

        With *wait* False the writer takes the key's lock only if it is
        free and otherwise publishes at once: a caller that may run
        inside another process's single-flight compute (the service
        holds a request's lock while pool workers compute it) must not
        stall behind that compute.
        """
        obs.add("cache.writes")
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # encode the payload once: its canonical form is checksummed
        # and written as is (``_read`` re-encodes what it decodes)
        encoded = _canonical(payload)
        text = '{"key": %s, "schema": %d, "payload": %s, "sha256": %s}\n' \
            % (json.dumps(key), CACHE_SCHEMA, encoded, json.dumps(
                hashlib.sha256(encoded.encode()).hexdigest()))
        lock = self.lock_for(key)
        acquired = not self._held_here(key) and self._acquire_bounded(
            lock, PUT_LOCK_TIMEOUT if wait else 0)
        try:
            atomic_write_text(path, text)
        finally:
            if acquired:
                lock.release()

    def _acquire_bounded(self, lock, timeout):
        """Acquire *lock*, waiting at most *timeout* seconds.

        Returns False when the wait expires — the caller proceeds
        unlocked (atomic rename keeps that safe) rather than risking
        deadlock against a peer holding a different slot.  A failed
        first attempt counts as lock contention.
        """
        if lock.try_acquire():
            return True
        self._note_contention()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            time.sleep(0.01)
            if lock.try_acquire():
                return True
        return False

    def _note_contention(self):
        self.contention += 1
        obs.add("cache.lock.contention")

    # -- maintenance -------------------------------------------------------

    def entries(self):
        """``(path, size, mtime)`` of every entry file, oldest first."""
        found = []
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in sorted(names):
            if not (name.startswith("cas-") and name.endswith(".json")):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            found.append((path, status.st_size, status.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found

    def _quarantine_dir(self):
        return os.path.join(self.root, "quarantine")

    def _quarantine_files(self):
        directory = self._quarantine_dir()
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        return [os.path.join(directory, name) for name in names]

    def usage(self):
        """Occupancy summary for ``repro cache stats``."""
        entries = self.entries()
        quarantine = self._quarantine_files()
        quarantine_bytes = 0
        for path in quarantine:
            try:
                quarantine_bytes += os.stat(path).st_size
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "quarantined_files": len(quarantine),
            "quarantined_bytes": quarantine_bytes,
        }

    def gc(self, budget_bytes):
        """Evict least-recently-used entries down to *budget_bytes*.

        Hits refresh an entry's mtime (:meth:`_touch`), so mtime order
        is recency order.  Quarantined files are always purged — they
        exist for post-mortem inspection, not as a growing liability.
        Returns a summary dict; evictions are counted on the store and
        mirrored to the ``cache.evictions`` metric.
        """
        removed = 0
        freed = 0
        for path in self._quarantine_files():
            try:
                freed += os.stat(path).st_size
                os.remove(path)
                removed += 1
            except OSError:
                pass
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        kept = list(entries)
        for path, size, _ in entries:
            if total <= budget_bytes:
                break
            key = os.path.basename(path)[:-len(".json")]
            with self.lock_for(key):
                try:
                    os.remove(path)
                except OSError:
                    continue
            total -= size
            freed += size
            removed += 1
            kept.pop(0)
            self.evictions += 1
            obs.add("cache.evictions")
        return {"removed": removed, "freed_bytes": freed,
                "kept": len(kept), "kept_bytes": total,
                "budget_bytes": budget_bytes}

    # -- introspection -----------------------------------------------------

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt}

    def kind_stats(self, kind=None):
        """Hit/miss counts broken down by artefact kind.

        With *kind* given, that kind's ``{"hits": H, "misses": M}``
        (zeros when never looked up); otherwise the whole mapping."""
        if kind is not None:
            counts = self._kind_counts.get(kind, {"hits": 0,
                                                  "misses": 0})
            return dict(counts)
        return {name: dict(counts)
                for name, counts in sorted(self._kind_counts.items())}

    def counters(self):
        """Every robustness counter (superset of :meth:`stats`)."""
        counters = self.stats()
        counters.update({
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "races": self.races,
            "contention": self.contention,
        })
        return counters


#: ``perfbench/layers.py`` wraps ``get`` on this name as well as on
#: ``CacheStore``; the alias keeps that lookup working (the second wrap
#: passes through and the call is counted once)
ShardedCacheStore = CacheStore
