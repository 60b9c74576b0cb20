"""Emulator performance measurement: the ``repro bench`` harness.

Times the emulator backends over (a subset of) the paper suite and
emits ``BENCH_emulator.json``, the repository's perf-trajectory record:
per-benchmark wall time and ICI throughput for each backend, the
backend-vs-reference speedups, and enough provenance (git revision,
Python version, repeat count, producing backend per row) to compare
runs across commits.  CI validates the document
(:mod:`repro.benchmarks.document`, against :data:`BENCH_FIELDS`) and
archives it; no timing gate is applied — the file is a trajectory, not
a pass/fail check.

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

import sys
import timeit

from repro.benchmarks.document import envelope
from repro.benchmarks.programs import TABLE_BENCHMARKS
from repro.benchmarks.suite import compile_benchmark
from repro.emulator import (
    BACKENDS, CodegenEmulator, Emulator, resolve_backend)

__all__ = [
    "BENCH_FIELDS",
    "QUICK_BENCHMARKS",
    "bench_document",
    "bench_problems",
    "format_bench",
    "time_backends",
]

#: the two cheapest suite members — the CI smoke subset
QUICK_BENCHMARKS = ("conc30", "divide10")

_RUNNERS = {
    "reference": Emulator,
    "codegen": CodegenEmulator,
}

_ABBREV = {"reference": "ref", "codegen": "cg"}


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
        **envelope("emulator-perf"),
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


#: the BENCH_emulator.json body (see :mod:`repro.benchmarks.document`)
BENCH_FIELDS = (
    ("backend", tuple(BACKENDS)),
    ("backends_timed", "non-empty list"),
    ("backends_timed[]", tuple(BACKENDS)),
    ("repeats", "positive int"),
    ("benchmarks", "non-empty list"),
    ("benchmarks[].name", "str"),
    ("benchmarks[].steps", "count"),
    ("benchmarks[].identical", "true"),
    ("benchmarks[].backends.*.seconds", "non-negative number"),
    ("benchmarks[].backends.*.icis_per_sec", "non-negative number"),
    ("benchmarks[].backends.*.produced_by", tuple(BACKENDS)),
    ("benchmarks[].speedups.*", "number"),
    ("summary.benchmarks", "count"),
    ("summary.speedups.*", "number"),
    ("summary.total_seconds.*", "non-negative number"),
)


def bench_problems(document):
    """Cross-field problems of a BENCH_emulator.json whose fields hold."""
    timed = sorted(document["backends_timed"])
    problems = ["benchmarks[%d].backends keys != backends_timed" % index
                for index, entry in enumerate(document["benchmarks"])
                if sorted(entry["backends"]) != timed]
    summary = document["summary"]
    if summary["benchmarks"] != len(document["benchmarks"]):
        problems.append("summary.benchmarks does not match the entry "
                        "count")
    if sorted(summary["total_seconds"]) != timed:
        problems.append("summary.total_seconds keys != backends_timed")
    return problems


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
