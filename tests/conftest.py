"""Shared test helpers.

Markers
-------

The suite is partitioned by three registered markers (see
``pyproject.toml``):

``tier1``
    The fast, deterministic core — added automatically to every test
    that is neither ``slow`` nor ``chaos``.  The CI gate runs
    ``-m "not slow and not chaos"``, which is exactly this set.
``slow``
    Wall-clock heavy or timing-sensitive (perf/overhead measurements).
``chaos``
    Fault-injection and crash-recovery suites (subprocess pools,
    SIGINT, injected faults); applied per-module via ``pytestmark``.
"""

import re

import pytest

from repro.analysis import lint_program, format_diagnostics
from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import run_program
from repro.interp import Engine


def compile_and_run(source, entry=("main", 0), max_steps=50_000_000):
    """Compile Prolog source and emulate it."""
    program = translate_module(compile_source(source, entry))
    return run_program(program, max_steps=max_steps)


def interpret(source, query="main"):
    """Run a query on the reference interpreter; (ok, output)."""
    engine = Engine()
    engine.consult(source)
    return engine.run_query(query), engine.output_text()


def store_entries(root, kind):
    """Live artefact-store entries of *kind* under the directory *root*
    (a ``pathlib.Path``), in any shard layout, quarantine excluded."""
    return sorted(path for path in root.rglob("cas-%s-*.json" % kind)
                  if "quarantine" not in path.parts)


def normalise_vars(text):
    """Unbound-variable names differ between interpreter and emulator."""
    return re.sub(r"_[A-Za-z0-9]+", "_", text)


def assert_equivalent(source, query="main"):
    """The compiled program must agree with the interpreter."""
    ok, expected = interpret(source, query)
    result = compile_and_run(source)
    assert result.succeeded == ok, (
        "status mismatch: interpreter %s, emulator %s"
        % (ok, result.succeeded))
    assert normalise_vars(result.output) == normalise_vars(expected), (
        "output mismatch:\n interp: %r\n emul:   %r"
        % (expected, result.output))
    return result


def assert_lint_clean(program, stage="lint"):
    """The independent ICI lint must find nothing in *program*."""
    diagnostics = lint_program(program, stage=stage)
    assert diagnostics == [], format_diagnostics(diagnostics)


def pytest_collection_modifyitems(items):
    for item in items:
        if not (item.get_closest_marker("slow")
                or item.get_closest_marker("chaos")):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def traced_run():
    """An activated, seeded tracer collecting spans/metrics in-process.

    Everything the test (and the code it calls) does behind the
    module-level instrumentation helpers lands on this tracer::

        def test_something(traced_run):
            run_pipeline()
            assert traced_run.find("pipeline.schedule")
    """
    from repro.observability import Tracer, activate, deactivate
    tracer = activate(Tracer(seed=0))
    try:
        yield tracer
    finally:
        deactivate()


@pytest.fixture(scope="session")
def verifier_configs():
    """A representative slice of the master configuration set for the
    checker: both regionings, speculation on/off, the prototype format,
    and an unconstrained machine."""
    from repro.experiments.data import master_configs
    full = master_configs()
    keys = ("seq", "bam", "vliw3", "symbol3", "tr_ideal")
    return {key: full[key] for key in keys}
