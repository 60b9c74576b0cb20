"""Benchmark suite driver: compile, emulate, validate, cache.

Emulating the larger benchmarks costs seconds of host CPU, and the
evaluation pipeline needs each dynamic profile several times (instruction
mix, branch statistics, compaction input).  ``run_program_cached``
therefore memoises :class:`~repro.emulator.machine.EmulationResult` data
as ``emulation`` entries of the artefact store
(:mod:`repro.evaluation.cache`), keyed by a hash of the generated code,
the emulator backend and the emulator's code version, so a profile is
computed once per compiled program and emulator.
"""

import hashlib
import os

from repro.benchmarks.programs import PROGRAMS, TABLE_BENCHMARKS
from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import EmulationResult, resolve_backend, run_program
from repro.interp import Engine
from repro.observability import tracing as observe

#: the artefact-store kind of memoised emulation results (distinct from
#: the evaluation DAG's ``profile`` nodes, which share its components)
EMULATION_KIND = "emulation"

_CACHE_ENV = "REPRO_CACHE_DIR"


def cache_dir():
    path = os.environ.get(_CACHE_ENV)
    if path is None:
        path = os.path.join(os.path.expanduser("~"), ".cache",
                            "repro-symbol")
    os.makedirs(path, exist_ok=True)
    return path


def program_fingerprint(program):
    """Stable hash of a compiled ICI program."""
    digest = hashlib.sha256()
    for instruction in program.instructions:
        digest.update(repr(instruction).encode())
    for name in sorted(program.labels):
        digest.update(("%s=%d" % (name, program.labels[name])).encode())
    return digest.hexdigest()[:24]


def suite_catalogue():
    """Every registered program: the paper suite, the extended set and
    the DCG application workloads.

    Built lazily — the corpus package imports the suite for its cache
    and fingerprints, so importing it at module scope would be a cycle.
    """
    from repro.benchmarks.extended import EXTENDED_PROGRAMS
    from repro.corpus.workloads import DCG_PROGRAMS
    catalogue = dict(PROGRAMS)
    catalogue.update(EXTENDED_PROGRAMS)
    catalogue.update(DCG_PROGRAMS)
    return catalogue


def resolve_program(name):
    """Look up *name* across the whole catalogue (paper suite first)."""
    if name in PROGRAMS:
        return PROGRAMS[name]
    catalogue = suite_catalogue()
    if name not in catalogue:
        raise KeyError("unknown benchmark %r; available: %s"
                       % (name, ", ".join(sorted(catalogue))))
    return catalogue[name]


def compile_benchmark(name):
    """Compile benchmark *name* to an ICI program."""
    with observe.span("pipeline.translate", benchmark=name) as sp:
        program = translate_module(
            compile_source(resolve_program(name).source))
        sp.set(instructions=len(program.instructions))
        return program


def run_program_cached(program, backend=None):
    """Emulate *program*, consulting the artefact store first.

    The key holds the resolved backend, so a hit always comes from the
    backend that was asked for — the bench document's ``backend``
    field and the evaluation's profile column rely on that provenance.
    The payload records the backend that actually produced the result
    (``EmulationResult.backend``; the reference loop when codegen
    declines).  No lock is held while emulating, and the publish never
    waits for one: two workers racing on one key both compute, and the
    identical results publish atomically.
    """
    # imported here: repro.evaluation imports this module
    from repro.evaluation.cache import open_store
    from repro.evaluation.parallel import code_version
    wanted = resolve_backend(backend)
    store = open_store()
    key = store.key(EMULATION_KIND, {
        "fingerprint": program_fingerprint(program), "backend": wanted,
        "code": code_version("profile")})
    data = store.get(key)
    if data is not None:
        observe.add("profile_cache.hits")
        return EmulationResult(program, data["status"], data["steps"],
                               data["output"], data["counts"],
                               data["taken"], backend=data["backend"])
    observe.add("profile_cache.misses")
    with observe.span("pipeline.profile", backend=wanted) as sp:
        # cached-profile producers are exactly the programs worth
        # keeping compiled codegen artefacts for (sweeps re-run them)
        result = run_program(program, backend=wanted,
                             persist_artifacts=True)
        sp.set(steps=result.steps, status=result.status)
    store.put(key, {"status": result.status, "steps": result.steps,
                    "output": result.output, "counts": result.counts,
                    "taken": result.taken, "backend": result.backend},
              wait=False)
    return result


def run_benchmark(name):
    """Compile and emulate benchmark *name* (cached)."""
    return run_program_cached(compile_benchmark(name))


def interpret_benchmark(name):
    """Run benchmark *name* on the reference interpreter.

    Returns ``(succeeded, output_text)``.
    """
    engine = Engine()
    engine.consult(resolve_program(name).source)
    return engine.run_query("main"), engine.output_text()


def validate_benchmark(name):
    """Check compiled execution against the reference interpreter."""
    result = run_benchmark(name)
    ok, text = interpret_benchmark(name)
    return (result.succeeded == ok) and (result.output == text)


__all__ = [
    "PROGRAMS",
    "TABLE_BENCHMARKS",
    "suite_catalogue",
    "resolve_program",
    "compile_benchmark",
    "run_benchmark",
    "run_program_cached",
    "interpret_benchmark",
    "validate_benchmark",
    "program_fingerprint",
    "cache_dir",
]
