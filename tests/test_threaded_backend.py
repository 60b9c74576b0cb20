"""What replaced the threaded-code backend.

The emulator had a third backend, threaded code, whose only job on the
default path was to run the programs codegen declines to compile.  It
is gone: two backends remain, the helpers codegen took from it live in
:mod:`repro.emulator.codegen`, and a declined program runs on the
reference loop.  These tests pin that down: backend selection, the
decline path, the basic-block partition, and the backend provenance of
the emulation entries in the artefact store.
"""

import json

import pytest

from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import (
    BACKENDS, CodegenEmulator, Emulator, EmulatorError, codegen_code,
    resolve_backend, run_program)
from repro.emulator import codegen as codegen_mod
from repro.emulator.codegen import basic_blocks, _TERMINATORS
from tests.conftest import store_entries


def compile_program(source, entry=("main", 0)):
    return translate_module(compile_source(source, entry))


HELLO = 'main :- write(hello), nl.'
LOOP = """
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(200), write(done), nl.
"""


@pytest.fixture
def declined(monkeypatch):
    """Make the codegen generator decline every program."""
    def refuse(*args, **kwargs):
        raise RecursionError("nesting past the parser limit")
    monkeypatch.setattr(codegen_mod, "generate_source", refuse)


# -- backend selection -----------------------------------------------------

def test_backend_order_prefers_codegen():
    assert BACKENDS == ("codegen", "reference")
    assert resolve_backend(None) == "codegen"


def test_resolve_explicit_backends():
    assert resolve_backend("reference") == "reference"
    assert resolve_backend("codegen") == "codegen"
    with pytest.raises(ValueError) as error:
        resolve_backend("threaded")
    assert "'threaded'" in str(error.value)
    assert "codegen, reference" in str(error.value)


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown emulator backend"):
        resolve_backend("nonesuch")


def test_backend_environment_variable(monkeypatch):
    monkeypatch.setenv("REPRO_EMULATOR_BACKEND", "reference")
    assert resolve_backend(None) == "reference"
    program = compile_program(HELLO)
    assert run_program(program).backend == "reference"


def test_backend_environment_variable_invalid(monkeypatch):
    monkeypatch.setenv("REPRO_EMULATOR_BACKEND", "threaded")
    with pytest.raises(ValueError):
        run_program(compile_program(HELLO))


def test_run_program_reports_backend():
    program = compile_program(HELLO)
    assert run_program(program, backend="codegen").backend == "codegen"
    assert run_program(program, backend="reference").backend \
        == "reference"
    with pytest.raises(ValueError):
        run_program(program, backend="threaded")


# -- program-level caches --------------------------------------------------

def test_decode_cached_on_program():
    from repro.emulator import decode
    program = compile_program(HELLO)
    assert program._decoded is None
    first = decode(program)
    assert program._decoded is not None
    assert decode(program) is first


def test_threaded_code_cached_on_program(declined):
    """A decline is memoised on the Program like a compile is."""
    program = compile_program(HELLO)
    assert codegen_code(program, persist=False) is None
    assert program._codegen is codegen_mod._DECLINED
    assert codegen_code(program, persist=False) is None


def test_emulators_share_one_decode():
    program = compile_program(LOOP)
    Emulator(program)
    first = program._decoded
    CodegenEmulator(program, persist=False)
    assert program._decoded is first


# -- the decline path: bit-identical to the reference loop -----------------

def assert_identical(program, **kwargs):
    reference = Emulator(program, **kwargs).run()
    declined = CodegenEmulator(program, persist=False, **kwargs).run()
    assert declined.status == reference.status
    assert declined.steps == reference.steps
    assert declined.output == reference.output
    assert declined.counts == reference.counts
    assert declined.taken == reference.taken
    return reference, declined


def test_identical_on_simple_program(declined):
    reference, result = assert_identical(compile_program(HELLO))
    assert result.backend == reference.backend == "reference"


def test_identical_on_looping_program(declined):
    assert_identical(compile_program(LOOP))


def test_identical_on_failing_query(declined):
    program = compile_program("p(1).\nmain :- p(2), write(yes), nl.")
    reference, _result = assert_identical(program)
    assert reference.status == 1


def test_identical_across_repeated_runs(declined):
    program = compile_program(LOOP)
    emulator = CodegenEmulator(program, persist=False)
    first = emulator.run()
    second = emulator.run()
    assert second.steps == first.steps
    assert second.output == first.output
    assert second.counts == first.counts
    assert second.taken == first.taken


def test_branch_probabilities_match(declined):
    program = compile_program(LOOP)
    reference = Emulator(program).run()
    result = CodegenEmulator(program, persist=False).run()
    for pc in range(len(program)):
        assert result.branch_probability(pc) \
            == reference.branch_probability(pc)


def test_step_limit_falls_back_to_exact_fault(declined):
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    limit = baseline.steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as declined_error:
        CodegenEmulator(program, max_steps=limit, persist=False).run()
    assert str(declined_error.value) == str(reference_error.value)


def test_tight_step_limit_still_exact(declined):
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as declined_error:
        CodegenEmulator(program, max_steps=1, persist=False).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(declined_error.value) == str(reference_error.value)


def test_fallback_result_reports_reference_backend(declined):
    """A run the reference loop completed says so, through every entry
    point, even though codegen was asked for."""
    program = compile_program(LOOP)
    assert run_program(program, backend="codegen").backend == "reference"


# -- block structure -------------------------------------------------------

def test_basic_blocks_partition_the_program():
    program = compile_program(LOOP)
    spans = basic_blocks(program)
    assert spans[0][0] == 0 or any(start == 0 for start, _ in spans)
    previous_end = None
    covered = 0
    for start, end in spans:
        assert start < end
        if previous_end is not None:
            assert start == previous_end
        previous_end = end
        covered += end - start
    assert covered == len(program)


def test_blocks_have_at_most_one_terminator():
    program = compile_program(LOOP)
    from repro.emulator import decode
    code, _ = decode(program)
    for start, end in basic_blocks(program):
        interior = [pc for pc in range(start, end - 1)
                    if code[pc][0] in _TERMINATORS]
        assert interior == []


def test_generated_source_is_kept_for_debugging(tmp_path, monkeypatch):
    """The generated source stays on a fresh compile but is not
    persisted: a build loaded from the store has none."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    compiled = codegen_code(compile_program(HELLO))
    assert compiled.source.startswith("def _run(")
    [path] = store_entries(tmp_path, "codegen")
    with open(path) as handle:
        assert "source" not in json.load(handle)["payload"]
    assert codegen_code(compile_program(HELLO)).source is None


# -- emulation entries in the artefact store -------------------------------

def test_profile_cache_records_backend(tmp_path, monkeypatch):
    from repro.benchmarks.suite import run_program_cached
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = compile_program(HELLO)
    result = run_program_cached(program)
    assert result.backend == "codegen"
    [path] = store_entries(tmp_path, "emulation")
    with open(path) as handle:
        assert json.load(handle)["payload"]["backend"] == "codegen"
    # A warm read reports the backend that produced the artefact.
    cached = run_program_cached(program)
    assert cached.backend == "codegen"
    assert cached.counts == result.counts


def test_profile_cache_backend_mismatch_recomputes(tmp_path, monkeypatch):
    from repro.benchmarks.suite import run_program_cached
    from repro.observability import tracing as observe
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = compile_program(HELLO)
    reference = run_program_cached(program, backend="reference")
    # The backend is part of the key: an entry produced under another
    # backend is never served, so the reported backend always matches
    # the one requested.
    with observe.activation(seed=0) as tracer:
        compiled = run_program_cached(program, backend="codegen")
    assert tracer.metrics.count("profile_cache.misses") == 1
    assert compiled.backend == "codegen"
    assert compiled.counts == reference.counts
    # ... and both entries stay, each serving its own backend.
    assert len(store_entries(tmp_path, "emulation")) == 2
    assert run_program_cached(program, backend="reference").backend \
        == "reference"
