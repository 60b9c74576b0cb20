"""Benchmark suite driver: fingerprinting and the emulation entries it
keeps in the artefact store."""

import io
import json
import os

from repro.benchmarks.suite import (
    program_fingerprint, run_program_cached, cache_dir)
from repro.bam import compile_source
from repro.cli import main
from repro.evaluation import parallel
from repro.evaluation.cache import open_store
from repro.intcode import translate_module
from repro.observability import tracing as observe
from tests.conftest import store_entries


def program_for(source):
    return translate_module(compile_source(source))


SOURCE_A = "main :- X = 1, write(X), nl."
SOURCE_B = "main :- X = 2, write(X), nl."
LOOP = """
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(2000), write(done), nl.
"""


def damage(path):
    """Change the stored output but keep the entry valid JSON: only the
    store's checksum can tell."""
    with open(path) as handle:
        entry = json.load(handle)
    entry["payload"]["output"] = "stale\n"
    with open(path, "w") as handle:
        json.dump(entry, handle)


def test_fingerprint_stable_across_recompiles():
    assert program_fingerprint(program_for(SOURCE_A)) == \
        program_fingerprint(program_for(SOURCE_A))


def test_fingerprint_distinguishes_programs():
    assert program_fingerprint(program_for(SOURCE_A)) != \
        program_fingerprint(program_for(SOURCE_B))


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = program_for(SOURCE_A)
    with observe.activation(seed=0) as tracer:
        first = run_program_cached(program)
        files = store_entries(tmp_path, "emulation")
        assert len(files) == 1
        second = run_program_cached(program)
    assert tracer.metrics.count("profile_cache.misses") == 1
    assert tracer.metrics.count("profile_cache.hits") == 1
    assert second.output == first.output
    assert second.counts == first.counts
    assert second.backend == first.backend == "codegen"
    assert store_entries(tmp_path, "emulation") == files  # no new entries
    # nothing but checksummed store entries is left behind
    assert [path.name for path in tmp_path.rglob("*.json")
            if not path.name.startswith("cas-")] == []


def test_corrupt_cache_entry_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = program_for(SOURCE_A)
    run_program_cached(program)
    [path] = store_entries(tmp_path, "emulation")
    damage(path)
    with observe.activation(seed=0) as tracer:
        result = run_program_cached(program)
    assert tracer.metrics.count("cache.corrupt") == 1
    assert tracer.metrics.count("profile_cache.misses") == 1
    assert result.output == "1\n"
    with open(path) as handle:
        assert json.load(handle)["payload"]["output"] == "1\n"


def test_corrupt_entry_quarantined_when_sharded(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_SHARDS", "4")
    program = program_for(SOURCE_A)
    first = run_program_cached(program)
    [path] = store_entries(tmp_path, "emulation")
    assert path.parent.name.startswith("shard-")
    damage(path)
    with observe.activation(seed=0) as tracer:
        again = run_program_cached(program)
    assert tracer.metrics.count("cache.quarantined") == 1
    assert (tmp_path / "quarantine" / path.name).exists()
    assert (again.output, again.steps, again.counts, again.taken) \
        == (first.output, first.steps, first.counts, first.taken)


def test_stale_emulator_code_is_recomputed(tmp_path, monkeypatch):
    """An edit to the emulator changes its code version, and neither the
    profile nor the compiled program of the old code is served."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    first = run_program_cached(program_for(LOOP))
    assert len(store_entries(tmp_path, "emulation")) == 1
    assert len(store_entries(tmp_path, "codegen")) == 1
    # both kinds depend on emulator/machine.py: an edit to it moves
    # both code versions
    monkeypatch.setattr(parallel, "_code_versions",
                        {"profile": "edited", "codegen": "edited"})
    with observe.activation(seed=0) as tracer:
        again = run_program_cached(program_for(LOOP))
    assert tracer.metrics.count("profile_cache.hits") == 0
    assert tracer.metrics.count("profile_cache.misses") == 1
    assert tracer.metrics.count("codegen.cache.hits") == 0
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert tracer.metrics.count("emulator.runs") == 1
    assert len(store_entries(tmp_path, "emulation")) == 2
    assert len(store_entries(tmp_path, "codegen")) == 2
    assert (again.steps, again.counts, again.taken) \
        == (first.steps, first.counts, first.taken)


def test_kind_stats_and_gc_cover_both_kinds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_program_cached(program_for(LOOP))
    # the store counts each kind's lookups separately
    store = open_store()
    for kind in ("emulation", "codegen"):
        [path] = store_entries(tmp_path, kind)
        assert store.get(path.stem) is not None
        assert store.kind_stats(kind) == {"hits": 1, "misses": 0}
    out = io.StringIO()
    assert main(["cache", "gc", "--dir", str(tmp_path), "--budget", "0"],
                out=out, err=io.StringIO()) == 0
    assert "removed 2 entr(ies)" in out.getvalue()
    assert store_entries(tmp_path, "emulation") == []
    assert store_entries(tmp_path, "codegen") == []


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sub"))
    path = cache_dir()
    assert path == str(tmp_path / "sub")
    assert os.path.isdir(path)
