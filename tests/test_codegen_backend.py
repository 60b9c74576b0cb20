"""The codegen emulator backend: selection, bit-identical statistics,
profile-guided tiering, its entries in the artefact store, the
reference fallback, and the decline path."""

import json

import pytest

from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import (
    CodegenEmulator, Emulator, EmulatorError, codegen_code, run_program)
from repro.emulator import codegen as codegen_mod
from repro.observability import tracing as observe
from tests.conftest import store_entries


def compile_program(source, entry=("main", 0)):
    return translate_module(compile_source(source, entry))


HELLO = 'main :- write(hello), nl.'
LOOP = """
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(200), write(done), nl.
"""
APPEND = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2,3], [4,5], R), write(R), nl.
"""


def assert_identical(program, **kwargs):
    reference = Emulator(program, **kwargs).run()
    compiled = CodegenEmulator(program, persist=False, **kwargs).run()
    assert compiled.status == reference.status
    assert compiled.steps == reference.steps
    assert compiled.output == reference.output
    assert compiled.counts == reference.counts
    assert compiled.taken == reference.taken
    return reference, compiled


# -- selection and identity ------------------------------------------------

def test_run_program_reports_codegen_backend():
    program = compile_program(HELLO)
    assert run_program(program, backend="codegen").backend == "codegen"


def test_identical_on_simple_program():
    reference, compiled = assert_identical(compile_program(HELLO))
    assert compiled.backend == "codegen"
    assert reference.backend == "reference"


def test_identical_on_looping_program():
    assert_identical(compile_program(LOOP))


def test_identical_on_list_program():
    assert_identical(compile_program(APPEND))


def test_identical_on_failing_query():
    program = compile_program("p(1).\nmain :- p(2), write(yes), nl.")
    reference, _compiled = assert_identical(program)
    assert reference.status == 1


def test_identical_across_repeated_runs():
    program = compile_program(LOOP)
    emulator = CodegenEmulator(program, persist=False)
    first = emulator.run()
    for _ in range(3):
        again = emulator.run()
        assert again.steps == first.steps
        assert again.output == first.output
        assert again.counts == first.counts
        assert again.taken == first.taken


def test_codegen_code_memoised_on_program():
    program = compile_program(HELLO)
    compiled = codegen_code(program, persist=False)
    assert codegen_code(program, persist=False) is compiled
    assert program._codegen is compiled


def test_generated_source_shape():
    compiled = codegen_code(compile_program(HELLO), persist=False)
    assert compiled.source.startswith("def _run(")
    assert "SPIN = range(limit + 1)" in compiled.source
    assert compiled.tier == 1
    assert compiled.from_cache is False


# -- profile-guided tier 2 -------------------------------------------------

def test_tier2_recompile_stays_identical(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    program = compile_program(LOOP)
    reference = Emulator(program).run()
    emulator = CodegenEmulator(program, persist=False)
    assert emulator.compiled.tier == 1
    first = emulator.run()
    # the first clean run's replayed profile seeds a recompile...
    assert emulator.compiled.tier == 2
    second = emulator.run()
    for result in (first, second):
        assert result.status == reference.status
        assert result.steps == reference.steps
        assert result.output == reference.output
        assert result.counts == reference.counts
        assert result.taken == reference.taken


def test_tier2_counter(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    with observe.activation(seed=0) as tracer:
        CodegenEmulator(compile_program(LOOP), persist=False).run()
    assert tracer.metrics.count("codegen.tier2.compiles") == 1


# -- the reference fallback ------------------------------------------------

def test_step_limit_falls_back_to_exact_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    limit = baseline.steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=limit, persist=False).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_tight_step_limit_still_exact():
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=1, persist=False).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_exact_step_limit_does_not_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    result = CodegenEmulator(program, max_steps=baseline.steps,
                             persist=False).run()
    assert result.steps == baseline.steps
    assert result.backend == "codegen"


def test_fallback_increments_counter():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    with observe.activation(seed=0) as tracer:
        with pytest.raises(EmulatorError):
            CodegenEmulator(program, max_steps=baseline.steps // 2,
                            persist=False).run()
    assert tracer.metrics.count("emulator.codegen.fallbacks") == 1


# -- the artefact store -----------------------------------------------------

def _entries(root):
    return store_entries(root, "codegen")


def _stored_payload(root):
    [path] = _entries(root)
    with open(path) as handle:
        return json.load(handle)["payload"]


def test_artifact_cache_cold_then_warm(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with observe.activation(seed=0) as tracer:
        cold = CodegenEmulator(compile_program(LOOP))
        first = cold.run()
    assert tracer.metrics.count("codegen.cache.misses") == 1
    # two writes: the tier-1 compile, then the tier-2 overwrite (LOOP
    # runs past _TIER2_STEPS, so the first clean run re-optimises)
    assert tracer.metrics.count("codegen.cache.writes") == 2
    assert cold.compiled.from_cache is False
    assert len(_entries(tmp_path)) == 1
    # every file the backend wrote is a checksummed store entry
    assert [path.name for path in tmp_path.iterdir()
            if path.suffix == ".json"] == [_entries(tmp_path)[0].name]
    # a fresh Program (same fingerprint) is served from the store
    with observe.activation(seed=0) as tracer:
        warm = CodegenEmulator(compile_program(LOOP))
        second = warm.run()
    assert tracer.metrics.count("codegen.cache.hits") == 1
    assert tracer.metrics.count("codegen.cache.misses") == 0
    assert warm.compiled.from_cache is True
    assert warm.compiled.tier == 2
    assert second.steps == first.steps
    assert second.counts == first.counts
    assert second.taken == first.taken


def test_persist_false_writes_no_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP), persist=False).run()
    assert _entries(tmp_path) == []


def _tamper_bytecode(path):
    """Damage the marshalled code but keep the entry valid JSON: only
    the store's checksum can tell."""
    with open(path) as handle:
        entry = json.load(handle)
    code = entry["payload"]["code"]
    entry["payload"]["code"] = code[:40] + ("A" if code[40] != "A"
                                            else "B") + code[41:]
    with open(path, "w") as handle:
        json.dump(entry, handle)


def test_corrupt_artifact_recompiles(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP)).run()
    [path] = _entries(tmp_path)
    _tamper_bytecode(path)
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
        result = emulator.run()
    assert tracer.metrics.count("cache.corrupt") == 1
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert emulator.compiled.from_cache is False
    assert result.backend == "codegen"
    assert_identical(compile_program(LOOP))
    # the recompile republished a sound entry
    assert CodegenEmulator(compile_program(LOOP)).compiled.from_cache


def test_corrupt_artifact_quarantined_when_sharded(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_SHARDS", "4")
    CodegenEmulator(compile_program(LOOP)).run()
    [path] = _entries(tmp_path)
    assert path.parent.name.startswith("shard-")
    _tamper_bytecode(path)
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
        result = emulator.run()
    assert tracer.metrics.count("cache.quarantined") == 1
    assert [entry.name for entry in (tmp_path / "quarantine").iterdir()] \
        == [path.name]
    assert emulator.compiled.from_cache is False
    reference = Emulator(compile_program(LOOP)).run()
    assert (result.steps, result.counts, result.taken) \
        == (reference.steps, reference.counts, reference.taken)


def test_wrong_schema_artifact_ignored(tmp_path, monkeypatch):
    """A checksummed entry of the wrong shape is a miss, not a crash,
    and the recompile overwrites it."""
    from repro.evaluation.cache import open_store
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP)).run()
    [path] = _entries(tmp_path)
    store = open_store()
    store.put(path.stem, {"tier": 2})
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert emulator.compiled.from_cache is False
    assert "code" in _stored_payload(tmp_path)


def test_stale_codegen_version_recompiles(tmp_path, monkeypatch):
    from repro.evaluation import parallel
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP)).run()
    monkeypatch.setitem(parallel._code_versions, "codegen", "edited")
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert emulator.compiled.from_cache is False
    assert len(_entries(tmp_path)) == 2


def test_tier2_overwrites_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    CodegenEmulator(compile_program(LOOP)).run()
    assert _stored_payload(tmp_path)["tier"] == 2
    # the next evaluation of this program loads the profiled build
    warm = CodegenEmulator(compile_program(LOOP))
    assert warm.compiled.from_cache is True
    assert warm.compiled.tier == 2
    assert_identical(compile_program(LOOP))


# -- the decline path ------------------------------------------------------

def _decline(monkeypatch):
    def refuse(*args, **kwargs):
        raise RecursionError("nesting past the parser limit")
    monkeypatch.setattr(codegen_mod, "generate_source", refuse)


def test_declined_program_runs_reference_loop(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    _decline(monkeypatch)
    program = compile_program(LOOP)
    reference = Emulator(compile_program(LOOP)).run()
    with observe.activation(seed=0) as tracer:
        result = run_program(program, backend="codegen",
                             persist_artifacts=True)
    assert tracer.metrics.count("emulator.codegen.compile_declined") == 1
    assert result.backend == "reference"
    assert (result.status, result.steps, result.output, result.counts,
            result.taken) == (reference.status, reference.steps,
                              reference.output, reference.counts,
                              reference.taken)
    # the decline is memoised on the Program and nothing is persisted
    assert codegen_code(program) is None
    assert _entries(tmp_path) == []
