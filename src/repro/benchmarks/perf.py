"""Emulator performance measurement: the ``repro bench`` harness.

Times the emulator backends over (a subset of) the paper suite and
emits ``BENCH_emulator.json``, the repository's perf-trajectory record:
per-benchmark wall time and ICI throughput for each backend, the
backend-vs-reference speedups, and enough provenance (git revision,
Python version, repeat count, producing backend per row) to compare
runs across commits.  CI validates the document against
:func:`validate_bench` and archives it; no timing gate is applied —
the file is a trajectory, not a pass/fail check.

Every timed run also cross-checks both backends' results field by
field, so a perf run doubles as a differential test.  Each backend
row additionally records ``produced_by`` — the backend that actually
produced the profile (:attr:`EmulationResult.backend`) — which is how
a silent codegen fallback to the reference loop becomes visible in
the record.

Timing is *interleaved*: rather than timing backend A's repeats and
then backend B's, each repeat round times every backend once and the
best round per backend wins.  Thermal throttling drifts wall time by
tens of percent over a bench run; interleaving puts every backend
under the same drift instead of charging it all to whichever ran
last.
"""

import platform
import subprocess
import sys
import timeit

from repro.atomicio import atomic_write_json
from repro.benchmarks.programs import TABLE_BENCHMARKS
from repro.benchmarks.suite import compile_benchmark
from repro.emulator import (
    BACKENDS, CodegenEmulator, Emulator, resolve_backend)

__all__ = [
    "BENCH_SCHEMA",
    "QUICK_BENCHMARKS",
    "bench_document",
    "format_bench",
    "git_revision",
    "time_backends",
    "validate_bench",
    "write_bench",
]

#: bump when the BENCH_emulator.json layout changes
BENCH_SCHEMA = 2

#: the two cheapest suite members — the CI smoke subset
QUICK_BENCHMARKS = ("conc30", "divide10")

_RUNNERS = {
    "reference": Emulator,
    "codegen": CodegenEmulator,
}

_ABBREV = {"reference": "ref", "codegen": "cg"}


def git_revision():
    """The working tree's commit hash, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def _identical(left, right):
    """Field-by-field equality of two EmulationResults."""
    return (left.status == right.status and left.steps == right.steps
            and left.output == right.output
            and left.counts == right.counts
            and left.taken == right.taken)


def _resolve_timed(backends):
    """Normalise a backend selection to BACKENDS order."""
    if backends is None:
        return list(BACKENDS)
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise ValueError("unknown backend(s) %s; available: %s"
                         % (", ".join(sorted(unknown)),
                            ", ".join(sorted(BACKENDS))))
    return [name for name in BACKENDS if name in set(backends)]


def time_backends(program, repeats=3, backends=None):
    """Best-of-*repeats* wall time per backend for one program.

    Returns ``(results, seconds)``: backend name -> EmulationResult and
    backend name -> best wall-clock seconds for a full run.  The
    codegen backend is warmed with one extra run before timing so the
    tier-2 recompile (and the compiled template) are in place and the
    timings reflect steady state — which is also what a cached-artefact
    second evaluation observes.
    """
    timed = _resolve_timed(backends)
    emulators = {}
    results = {}
    seconds = {backend: float("inf") for backend in timed}
    for backend in timed:
        emulator = _RUNNERS[backend](program)
        emulators[backend] = emulator
        results[backend] = emulator.run()
        if backend == "codegen":
            emulator.run()
    for _ in range(repeats):
        for backend in timed:
            elapsed = timeit.timeit(emulators[backend].run, number=1)
            if elapsed < seconds[backend]:
                seconds[backend] = elapsed
    return results, seconds


def bench_document(names=None, repeats=3, progress=None, backends=None):
    """Time the selected *backends* over *names*.

    Defaults: all of :data:`BACKENDS` over the paper suite.  Returns
    the ``BENCH_emulator.json`` document.  *progress*, when given, is
    called with each finished per-benchmark entry.
    """
    names = list(names) if names is not None else list(TABLE_BENCHMARKS)
    timed = _resolve_timed(backends)
    entries = []
    totals = {backend: 0.0 for backend in timed}
    for name in names:
        program = compile_benchmark(name)
        results, seconds = time_backends(program, repeats=repeats,
                                         backends=timed)
        baseline = results[timed[0]]
        steps = baseline.steps
        entry = {
            "name": name,
            "steps": steps,
            "identical": all(_identical(baseline, results[backend])
                             for backend in timed[1:]),
            "backends": {
                backend: {
                    "seconds": seconds[backend],
                    "icis_per_sec": steps / seconds[backend]
                    if seconds[backend] > 0 else 0.0,
                    "produced_by": results[backend].backend,
                }
                for backend in timed
            },
            "speedups": {
                backend: seconds["reference"] / seconds[backend]
                for backend in timed
                if backend != "reference" and "reference" in seconds
                and seconds[backend] > 0
            },
        }
        for backend in timed:
            totals[backend] += seconds[backend]
        entries.append(entry)
        if progress is not None:
            progress(entry)
    return {
        "schema": BENCH_SCHEMA,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        # The active backend selection (REPRO_EMULATOR_BACKEND or the
        # default) the run executed under — which backend the rest of
        # the evaluation would have used, independent of which ones
        # were timed here.
        "backend": resolve_backend(None),
        "backends_timed": timed,
        "repeats": repeats,
        "benchmarks": entries,
        "summary": {
            "benchmarks": len(entries),
            "total_seconds": {backend: totals[backend]
                              for backend in timed},
            "speedups": {
                backend: totals["reference"] / totals[backend]
                for backend in timed
                if backend != "reference" and "reference" in totals
                and totals[backend] > 0
            },
            "all_identical": all(entry["identical"]
                                 for entry in entries),
        },
    }


def validate_bench(document):
    """Schema problems of a BENCH_emulator.json document (empty = valid).

    Checked by CI after the bench smoke run, and by any future PR that
    wants to read the perf trajectory programmatically.
    """
    problems = []

    def require(condition, message):
        if not condition:
            problems.append(message)

    require(isinstance(document, dict), "document is not an object")
    if not isinstance(document, dict):
        return problems
    require(document.get("schema") == BENCH_SCHEMA,
            "schema is not %d" % BENCH_SCHEMA)
    for field in ("git_rev", "python"):
        require(isinstance(document.get(field), str),
                "%s is not a string" % field)
    require(document.get("backend") in BACKENDS,
            "backend is not one of %s" % (sorted(BACKENDS),))
    timed = document.get("backends_timed")
    require(isinstance(timed, list) and timed
            and all(backend in BACKENDS for backend in timed),
            "backends_timed is not a non-empty subset of %s"
            % (sorted(BACKENDS),))
    if not isinstance(timed, list):
        timed = []
    require(isinstance(document.get("repeats"), int)
            and document.get("repeats", 0) >= 1,
            "repeats is not a positive integer")
    entries = document.get("benchmarks")
    require(isinstance(entries, list) and entries,
            "benchmarks is not a non-empty list")
    for index, entry in enumerate(entries or []):
        where = "benchmarks[%d]" % index
        if not isinstance(entry, dict):
            problems.append("%s is not an object" % where)
            continue
        require(isinstance(entry.get("name"), str),
                "%s.name is not a string" % where)
        require(isinstance(entry.get("steps"), int)
                and entry.get("steps", -1) >= 0,
                "%s.steps is not a non-negative integer" % where)
        require(entry.get("identical") is True,
                "%s.identical is not true" % where)
        backends = entry.get("backends")
        if not isinstance(backends, dict):
            problems.append("%s.backends is not an object" % where)
            continue
        require(sorted(backends) == sorted(timed),
                "%s.backends keys != backends_timed" % where)
        for backend, timing in backends.items():
            if not isinstance(timing, dict):
                problems.append("%s.backends.%s is not an object"
                                % (where, backend))
                continue
            for field in ("seconds", "icis_per_sec"):
                value = timing.get(field)
                require(isinstance(value, (int, float))
                        and value >= 0,
                        "%s.backends.%s.%s is not a non-negative "
                        "number" % (where, backend, field))
            require(timing.get("produced_by") in BACKENDS,
                    "%s.backends.%s.produced_by is not one of %s"
                    % (where, backend, sorted(BACKENDS)))
        speedups = entry.get("speedups")
        require(isinstance(speedups, dict)
                and all(isinstance(value, (int, float))
                        for value in (speedups or {}).values()),
                "%s.speedups is not an object of numbers" % where)
    summary = document.get("summary")
    require(isinstance(summary, dict), "summary is not an object")
    if isinstance(summary, dict):
        require(summary.get("benchmarks") == len(entries or []),
                "summary.benchmarks does not match the entry count")
        require(isinstance(summary.get("speedups"), dict),
                "summary.speedups is not an object")
        totals = summary.get("total_seconds")
        require(isinstance(totals, dict)
                and sorted(totals or {}) == sorted(timed),
                "summary.total_seconds keys != backends_timed")
    return problems


def write_bench(document, path):
    """Publish *document* as JSON at *path* (atomically: an interrupted
    bench run never leaves a truncated or invalid record behind)."""
    return atomic_write_json(path, document, indent=2, sort_keys=True)


def format_bench(entry):
    """One human-readable progress line for a per-benchmark entry."""
    parts = ["%-12s steps=%-9d" % (entry["name"], entry["steps"])]
    for backend, timing in entry["backends"].items():
        parts.append("%s=%8.4fs" % (_ABBREV.get(backend, backend),
                                    timing["seconds"]))
    for backend, speedup in entry.get("speedups", {}).items():
        parts.append("%s %5.2fx" % (_ABBREV.get(backend, backend),
                                    speedup))
    parts.append("ok" if entry["identical"] else "MISMATCH")
    return " ".join(parts)
