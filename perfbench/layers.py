"""Per-layer self time, measured from outside the program.

:func:`install` wraps the program's public layer entry points in the
current process.  Several callers import these functions by name
(``from repro.evaluation.simulator import replay_program``), so a
wrapper must replace every reference, not only the defining module's
attribute: :func:`install` imports every ``repro`` module first and then
swaps each module global that *is* the original function.  Methods are
replaced on their class.

Each wrapped call pushes a frame on a per-thread stack.  When it
returns, its duration is added to its layer's total, and to the
enclosing frame's child time; a layer's self time is its total minus
its child time, so the self times of all layers never overlap and their
sum is the wall time the wrappers account for.  A call re-entering the
layer already on top of the stack (``ShardedCacheStore.get`` calling
``CacheStore.get``) is passed through and counted once.
"""

import importlib
import os
import pkgutil
import sys
import threading
import time

#: (layer, module, attribute[, class]) — the entry points wrapped
TARGETS = (
    ("suite.compile_benchmark", "repro.benchmarks.suite",
     "compile_benchmark"),
    ("bam.compile", "repro.bam.compile", "compile_source"),
    ("intcode.translate", "repro.intcode.translate", "translate_module"),
    ("profile_cache", "repro.benchmarks.suite", "run_program_cached"),
    ("emulator.run", "repro.emulator.machine", "run_program"),
    ("emulator.compile", "repro.emulator.codegen", "codegen_code"),
    # tier-2 recompiles bypass codegen_code; without this entry point
    # 20 of the 50 compiles of a cold run would read as emulation
    ("emulator.compile", "repro.emulator.codegen", "_recompile_tier2"),
    ("compaction.superblock", "repro.compaction.transform",
     "form_superblocks"),
    ("compaction.schedule", "repro.compaction.scheduler",
     "schedule_region"),
    ("simulator.replay", "repro.evaluation.simulator", "replay_program"),
    ("analysis.verify", "repro.evaluation.pipeline", "verify_evaluation"),
    ("analysis.analyze", "repro.analysis.driver", "analyze_benchmark"),
    ("orparallel.query", "repro.interp.orparallel", "or_solutions"),
    ("orparallel.split", "repro.interp.orparallel", "split_plan"),
    ("cache.get", "repro.evaluation.cache", "get", "CacheStore"),
    ("cache.get", "repro.evaluation.cache", "get", "ShardedCacheStore"),
    ("cache.put", "repro.evaluation.cache", "put", "CacheStore"),
    ("parallel", "repro.evaluation.parallel", "evaluate_many",
     "EvaluationEngine"),
    ("parallel", "repro.evaluation.parallel", "map", "EvaluationEngine"),
)


class LayerClock:
    """Self time and call counts per layer, plus named counters."""

    def __init__(self):
        self.layers = {}
        self.counts = {}
        self.engines = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, layer):
        """True when *layer* has a frame open on this thread."""
        return any(frame[0] == layer for frame in self._stack())

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer, function, args, kwargs, after=None):
        stack = self._stack()
        if stack and stack[-1][0] == layer:
            return function(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                entry = self.layers.setdefault(
                    layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - frame[1]
        if after is not None:
            after(result, elapsed, args, kwargs)
        return result

    def snapshot(self):
        reports = {"tasks": 0, "cached": 0, "retried": 0, "degraded": 0,
                   "failed": 0, "pool_restarts": 0}
        for engine in self.engines:
            counts = engine.report.counts()
            reports["tasks"] += sum(counts.values())
            for status in ("cached", "retried", "degraded", "failed"):
                reports[status] += counts.get(status, 0)
            reports["pool_restarts"] += engine.report.pool_restarts
        with self._lock:
            return {"layers": {name: dict(entry) for name, entry
                               in self.layers.items()},
                    "counts": dict(self.counts),
                    "engine_reports": reports}


def import_all():
    """Import every ``repro`` module, as :func:`install` needs to."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":      # importing it runs the CLI
            importlib.import_module(info.name)


def _after_hooks(clock):
    """Counters read off each layer's arguments and results."""
    from repro.emulator import resolve_backend

    def compile_benchmark(result, elapsed, args, kwargs):
        clock.add("intcode.translate_calls")

    def run_program(result, elapsed, args, kwargs):
        clock.add("emulator.runs")
        clock.add("emulator.steps", result.steps)
        wanted = resolve_backend(kwargs.get("backend",
                                            args[2] if len(args) > 2
                                            else None))
        if result.backend != wanted:
            clock.add("emulator.fallbacks")

    def run_program_cached(result, elapsed, args, kwargs):
        clock.add("profile_cache.lookups")

    def cache_get(result, elapsed, args, kwargs):
        clock.add("cache.gets")
        clock.add("cache.hits" if result is not None else "cache.misses")

    def cache_put(result, elapsed, args, kwargs):
        store, key = args[0], args[1]
        clock.add("cache.puts")
        try:
            clock.add("cache.bytes_written",
                      os.path.getsize(store.path(key)))
        except OSError:
            pass

    def parallel(result, elapsed, args, kwargs):
        if clock.inside("orparallel.query"):
            clock.add("orparallel.fanout_s", elapsed)

    def or_solutions(result, elapsed, args, kwargs):
        if result.get("mode") == "parallel":
            clock.add("orparallel.splits")
            clock.add("orparallel.branches", result.get("branches", 0))
        if result.get("fallback"):
            clock.add("orparallel.fallbacks")

    return {"suite.compile_benchmark": compile_benchmark,
            "emulator.run": run_program,
            "profile_cache": run_program_cached,
            "cache.get": cache_get, "cache.put": cache_put,
            "parallel": parallel,
            "orparallel.query": or_solutions}


def _codegen_wrapper(clock, layer, original):
    """``codegen_code`` returns the Program's memoised build without
    compiling; only a call that finds no memo is a compile, and its
    result says whether the build came from the artefact cache."""
    def wrapper(program, *args, **kwargs):
        memo = getattr(program, "_codegen", None)
        result = clock.call(layer, original, (program,) + args, kwargs)
        if memo is None or original.__name__ == "_recompile_tier2":
            clock.add("emulator.compiles")
            if getattr(result, "from_cache", False):
                clock.add("emulator.artifact_hits")
            elif original.__name__ == "codegen_code":
                clock.add("emulator.artifact_misses")
        return result
    return wrapper


def _profile_wrapper(clock, layer, original, after):
    """A profile-cache lookup is a hit when it emulated nothing."""
    def wrapper(*args, **kwargs):
        runs = clock.counts.get("emulator.runs", 0)
        result = clock.call(layer, original, args, kwargs, after)
        if clock.counts.get("emulator.runs", 0) == runs:
            clock.add("profile_cache.hits")
        return result
    return wrapper


def install():
    """Wrap every target in this process; returns the LayerClock."""
    import_all()
    clock = LayerClock()
    hooks = _after_hooks(clock)
    replacements = {}
    for target in TARGETS:
        layer, module_name, attribute = target[:3]
        owner = importlib.import_module(module_name)
        if len(target) == 4:
            owner = getattr(owner, target[3])
            if attribute not in vars(owner):
                continue
        original = getattr(owner, attribute)
        if layer == "emulator.compile":
            wrapper = _codegen_wrapper(clock, layer, original)
        elif layer == "profile_cache":
            wrapper = _profile_wrapper(clock, layer, original,
                                       hooks.get(layer))
        else:
            def wrapper(*args, _layer=layer, _original=original,
                        _after=hooks.get(layer), **kwargs):
                return clock.call(_layer, _original, args, kwargs, _after)
        wrapper.__name__ = original.__name__
        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        if len(target) == 3:
            replacements[id(original)] = (original, wrapper)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            swap = replacements.get(id(value))
            if swap is not None and swap[0] is value:
                setattr(module, attribute, swap[1])
    _register_engines(clock)
    return clock


def _register_engines(clock):
    """Keep every EvaluationEngine so its supervisor report (tasks,
    cached, retried, degraded, pool restarts) can be read at exit."""
    from repro.evaluation.parallel import EvaluationEngine
    original = EvaluationEngine.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        clock.engines.append(self)
    EvaluationEngine.__init__ = __init__
