"""The Aquarius-style benchmark programs and suite driver."""

from repro.benchmarks.programs import (
    PROGRAMS, ALL_PROGRAMS, TABLE_BENCHMARKS, BenchmarkProgram)
from repro.benchmarks.extended import EXTENDED_PROGRAMS
from repro.benchmarks.suite import (
    compile_benchmark, run_benchmark, run_program_cached,
    interpret_benchmark, program_fingerprint,
    cache_dir, suite_catalogue, resolve_program)

__all__ = [
    "PROGRAMS",
    "ALL_PROGRAMS",
    "TABLE_BENCHMARKS",
    "EXTENDED_PROGRAMS",
    "BenchmarkProgram",
    "suite_catalogue",
    "resolve_program",
    "compile_benchmark",
    "run_benchmark",
    "run_program_cached",
    "interpret_benchmark",
    "program_fingerprint",
    "cache_dir",
]
