"""End-to-end and per-layer benchmark of the ``repro`` commands.

::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program runs from ``src/``
with no build step.  Every run is hermetic: each command gets a fresh
private ``REPRO_CACHE_DIR``, ``HOME`` and ``TMPDIR`` under
``perfbench/.work/``, which is removed at the end, and every other
``REPRO_*`` variable (jobs, backend, fault injection, cache shards,
tracing) is scrubbed from the environment.

Workloads (``--workload``):

``paper_cold``
    ``repro evaluate --jobs 2`` (the paper's eight tables and figures
    over the 16-program suite) into an empty cache.
``paper_warm``
    The same command over a cache that one cold pass filled in set-up.
``serve_pooled``
    ``repro serve -j 2`` on an empty cache, driven by two closed-loop
    clients with a seeded mix of ``compile``/``evaluate``/``verify``/
    ``analyze``/``query`` requests over three paper-suite programs; each
    client opens with an ``evaluate``, so the first wave starts the
    worker pool.  A client gives a reply 10 s, then retries.  The
    service, its pool and the clients share one CPU: a warm request is
    a few milliseconds of ping-pong, and on a shared virtual machine the
    cost of waking another CPU for it drifts with the host's load.
``search``
    ``repro query --or-jobs 2`` on an empty cache, over the three pure
    or-parallel search programs.

An operation is one command (one ``evaluate``, one ``query``) or one
serve request; a command workload repeats its operation until one more
would end past ``--seconds``.  End-to-end metrics, on every workload:

``wall_s``
    Median time of one operation (``paper_*``), of one pass over the
    three queries (``search``), or from ready until every request
    template was answered correctly once (``serve_pooled``).
``setup_s``
    ``paper_warm``: the cache-filling cold pass.  ``serve_pooled``:
    median time from spawn until ``/readyz`` answers 200.  Otherwise
    the median start-up of ``repro cache stats``, the import cost each
    command pays.
``peak_rss_mb``
    Largest resident set of any measured process tree.
``ok_share``
    Correct attempts over attempts.  A timed-out, refused, failed or
    wrong attempt counts against it, retried or not.
``first_response_s``
    ``serve_pooled``: from ready until the first correct reply.
    Otherwise the median time from launch to a command's first output.
``latency_p50_ms``, ``latency_tail_ms``
    Median and highest-percentile latency of correctly answered
    operations (a serve request's latency includes its retries).  The
    tail is the highest of p95, p90, p75 and p50 with at least ten
    samples beyond it, or the median when there are fewer than twenty;
    the run record names the percentile and the sample count, and lists
    p99 too.
``throughput_rps``
    Correctly answered operations per second of measured time.

``serve_pooled`` measures for ``--seconds`` after the first correct
reply, so its steady state is always sampled for the same time however
long the cold start takes; its throughput is taken over that time.

Every time of CPU work is scaled to a reference host speed, measured
beside the workload by a probe on each CPU it runs on
(``perfbench/hostspeed.py``): on a shared virtual machine the host's
speed drifts by tens of percent from one minute to the next, and with it
every raw time.  Each command, serve request and set-up step is scaled
by the host speed while it ran.
Two times are left as measured because they are waits on the serve
client's timer, not work: ``wall_s`` and ``first_response_s`` of
``serve_pooled``.  The run record lists every metric as measured too,
and the host speed over the run.  Per-layer times are as measured.

With ``--trace 0`` the commands run untraced and the end-to-end metrics
are reported; with ``--trace 1`` they run again through
``perfbench/launch.py``, which wraps each layer's public functions in
the same process (``perfbench/layers.py``), at ``--jobs 1`` for the
evaluate workloads, and the per-layer metrics are reported.

Every output is checked against a reference the run did not produce:
the committed ``results/*.txt`` tables, the sequential search oracle and
single-shot serve results (``perfbench/oracle.py``).  A run record
(cold/warm, backend, jobs, cpu_count, Python, source digest) goes to
standard error; the last line of standard output is the JSON result.
"""

import argparse
import asyncio
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import serve_client  # noqa: E402
from hostspeed import HostSpeed, raw  # noqa: E402
from stats import (Tally, median, nearest_rank, request_sequence,  # noqa: E402
                   tail)

WORKLOADS = ("paper_cold", "paper_warm", "serve_pooled", "search")

#: the committed tables ``repro evaluate`` must reproduce byte for byte
GOLDEN = ("figure2", "figure3", "table1", "table2", "figure4",
          "table3_figure6", "table4", "table5")

#: hand-known answer counts of the or-parallel search programs
SEARCH_COUNTS = {"fanout_fib": 8, "perm_split": 5040, "queens_split": 40}

EVALUATE_JOBS = 2
OR_JOBS = 2
SERVE_JOBS = 2
CLIENTS = 2
#: the serve client's limit for one complete reply
CLIENT_TIMEOUT_S = 10.0
SERVE_BENCHMARKS = ("conc30", "divide10", "nreverse")
SERVE_OPS = ("compile", "evaluate", "verify", "analyze", "query")
SERVE_CONFIGS = ["seq", "vliw3"]
#: spawns of the service per run; set-up time is their median
SERVE_SPAWNS = 3
#: start-up probes per run for the workloads with no set-up of their own
STARTUP_PROBES = 5
#: a run ends within this many seconds, whatever happens
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
    "first_response_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "throughput_rps": "1/s",
}


class Failure(Exception):
    """A prerequisite is missing: exit non-zero without a result."""


# --------------------------------------------------------------------------
# Processes.

def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Finished:
    def __init__(self, status, seconds, stdout, stderr,
                 first_output_s=None, started=0.0):
        self.status = status
        self.started = started
        self.seconds = seconds
        self.stdout = stdout
        self.stderr = stderr
        self.first_output_s = seconds if first_output_s is None \
            else first_output_s


class Context:
    """One run: its private work directory, environment and deadline."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.work = HERE / ".work" / ("%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        self.work.mkdir(parents=True)
        (self.work / "home").mkdir()
        (self.work / "tmp").mkdir()
        self.count = 0
        self.peak_rss_mb = 0.0
        self.problems = []
        self.record = {}
        self.python = sys.executable or "python3"
        #: the CPUs the measured work runs on
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes = {}
        for cpu in self.cpus:
            with open(self.work / ("hostspeed-%d.err" % cpu), "wb") as err:
                self.probes[cpu] = subprocess.Popen(
                    [self.python, str(HERE / "hostspeed.py"),
                     str(self.work / ("hostspeed-%d.txt" % cpu)), str(cpu)],
                    stdout=subprocess.DEVNULL, stderr=err,
                    start_new_session=True)

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def fresh(self, label):
        self.count += 1
        path = self.work / ("%s-%03d" % (label, self.count))
        path.mkdir()
        return path

    def env(self, cache):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["HOME"] = str(self.work / "home")
        env["TMPDIR"] = str(self.work / "tmp")
        env["REPRO_CACHE_DIR"] = str(cache)
        # byte code is compiled once per run, whatever the caller's
        # setting, as an installed program's would be
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        return env

    def repro(self, *args):
        return [self.python, "-m", "repro"] + [str(a) for a in args]

    def launched(self, layers_out, *args, plain=False):
        return ([self.python, str(HERE / "launch.py"), str(layers_out)]
                + (["--plain"] if plain else []) + ["--"]
                + [str(a) for a in args])

    def spawn(self, argv, cache):
        """Start *argv* in its own process group; stdout/stderr go to
        files.  Returns ``(process, stdout_path, stderr_path)``."""
        self.count += 1
        out_path = self.work / ("p%03d.out" % self.count)
        err_path = self.work / ("p%03d.err" % self.count)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            process = subprocess.Popen(argv, cwd=ROOT, env=self.env(cache),
                                       stdout=out, stderr=err,
                                       start_new_session=True)
        return process, out_path, err_path

    def reap(self, process, limit, measured=True):
        """Wait for *process*, killing its group past *limit* seconds;
        returns its exit status.  A *measured* process tree's largest
        resident set (the process's or any descendant's it waited for)
        counts towards ``peak_rss_mb``."""
        timer = threading.Timer(max(1.0, limit), _kill_group,
                                [process.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(process.pid)            # orphaned pool workers
        if measured:
            self.peak_rss_mb = max(self.peak_rss_mb,
                                   usage.ru_maxrss / 1024.0)
        return process.returncode

    def run(self, argv, cache, measured=True):
        """Run *argv* to completion under the run's deadline, noting when
        its first byte of output arrived."""
        self.count += 1
        out_path = self.work / ("p%03d.out" % self.count)
        err_path = self.work / ("p%03d.err" % self.count)
        first = []
        start = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            process = subprocess.Popen(argv, cwd=ROOT, env=self.env(cache),
                                       stdout=subprocess.PIPE, stderr=err,
                                       start_new_session=True)

            def copy():
                for chunk in iter(lambda: process.stdout.read1(65536), b""):
                    if not first:
                        first.append(time.monotonic())
                    out.write(chunk)

            copier = threading.Thread(target=copy, daemon=True)
            copier.start()
            status = self.reap(process, self.remaining(), measured)
            seconds = time.monotonic() - start
            copier.join(10.0)
            process.stdout.close()
        return Finished(status, seconds,
                        out_path.read_text(errors="replace"),
                        err_path.read_text(errors="replace"),
                        first[0] - start if first else None, start)

    def fail(self, message):
        self.problems.append(message)
        sys.stderr.write("perfbench: %s\n" % message)

    def stop_probes(self):
        for probe in self.probes.values():
            if probe.poll() is None:
                _kill_group(probe.pid)
            probe.wait()

    def speed(self):
        """Stop the host speed probes; returns what the probes on the
        measured CPUs found."""
        self.stop_probes()
        return HostSpeed.read([self.work / ("hostspeed-%d.txt" % cpu)
                               for cpu in self.cpus])

    def close(self):
        self.stop_probes()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass


def timed_loop(ctx, seconds, step):
    """Call *step* until one more call would likely end past *seconds*
    (at least once); returns the measured time as a duration."""
    durations = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        step()
        durations.append(time.monotonic() - begun)
        elapsed = time.monotonic() - start
        typical = median(durations)
        if elapsed + typical > seconds or ctx.remaining() < 3 * typical:
            return [(elapsed, start)]


# --------------------------------------------------------------------------
# Checks against references.

def golden_tables():
    tables = {}
    for name in GOLDEN:
        path = ROOT / "results" / (name + ".txt")
        if not path.is_file():
            raise Failure("missing reference table %s" % path)
        tables[name] = path.read_text()
    return tables


def check_evaluate(ctx, finished, tables, mode, jobs):
    """The outcome of one ``repro evaluate``: its exit status, every
    golden table byte for byte, and the supervisor summary proving the
    cache was as cold (nothing cached) or warm (nothing computed) as
    the workload requires."""
    if finished.status != 0:
        ctx.fail("evaluate exited %d: %s" % (finished.status,
                                             finished.stderr[-400:]))
        return "error"
    missing = [name for name, text in tables.items()
               if text not in finished.stdout]
    if missing:
        ctx.fail("evaluate output differs from results/%s.txt"
                 % ", results/".join(missing))
        return "wrong"
    summary = re.search(r"^supervisor: (\d+) task\(s\): (.*)$",
                        finished.stdout, re.M)
    counts = dict((status, int(count)) for count, status in
                  re.findall(r"(\d+) (\w+)", summary.group(2))) \
        if summary else {}
    if mode == "cold" and (not summary or counts.get("cached")):
        ctx.fail("a cold evaluate read cached tasks: %s"
                 % (summary.group(0) if summary else "no summary"))
        return "wrong"
    if mode == "warm" and (not summary or counts.get("ok")):
        ctx.fail("a warm evaluate recomputed tasks: %s"
                 % (summary.group(0) if summary else "no summary"))
        return "wrong"
    backend = re.search(r"^profiles: (.*)$", finished.stdout, re.M)
    ctx.record.update(mode=mode, jobs=jobs,
                      backend=backend.group(1) if backend else None)
    return "ok"


def check_query(ctx, name, finished, reference):
    """The outcome of one ``repro query``: the program output and the
    answers printed before its summary line must equal the sequential
    oracle's, in order, with the hand-known count; a memo hit means the
    cache was not empty."""
    summary = re.search(r"^query: mode=(\w+) branches=(\d+) answers=(\d+)",
                        finished.stdout, re.M)
    if finished.status != 0 or not summary:
        ctx.fail("query %s exited %d: %s" % (
            name, finished.status, finished.stderr[-400:]))
        return "error"
    output = reference["output"]
    if output and not output.endswith("\n"):
        output += "\n"
    expected = output + "".join(a + "\n" for a in reference["answers"])
    if finished.stdout[:summary.start()] != expected \
            or int(summary.group(3)) != SEARCH_COUNTS[name] \
            or len(reference["answers"]) != SEARCH_COUNTS[name]:
        ctx.fail("query %s answers differ from the sequential oracle"
                 % name)
        return "wrong"
    if summary.group(1) == "memo":
        ctx.fail("query %s was served from a warm memo" % name)
        return "wrong"
    ctx.record.setdefault("modes", {})[name] = summary.group(1)
    return "ok"


def oracle(ctx, *args):
    finished = ctx.run([ctx.python, str(HERE / "oracle.py")]
                       + [str(a) for a in args], ctx.fresh("oracle-cache"),
                       measured=False)
    if finished.status != 0:
        raise RuntimeError("oracle %s failed: %s"
                           % (args[0], finished.stderr[-400:]))


# --------------------------------------------------------------------------
# Results.

class Result:
    """What a workload measured, before it becomes metrics.

    Every time is a duration: a list of ``(seconds, started)`` parts,
    which :class:`hostspeed.HostSpeed` scales part by part.
    """

    def __init__(self):
        self.tally = Tally()
        self.latencies = []        # correctly answered operations
        self.operations = 0
        self.operations_failed = 0
        self.wall = []
        self.setup = []
        self.first_response = []   # until the first output
        self.window = None         # the time throughput is taken over
        self.unscaled = ()         # metrics that time a wait, not work
        self.layers = None

    def operation(self, outcome, duration):
        self.tally.record(outcome)
        self.operations += 1
        if outcome == "ok":
            self.latencies.append(duration)
        else:
            self.operations_failed += 1


def _values(ctx, result, seconds):
    """Every end-to-end metric, *seconds(duration, metric)* giving the
    seconds of a duration; also the latencies' tail percentile and the
    samples beyond it."""
    def medians(durations, metric):
        return median([seconds(d, metric) for d in durations])

    latencies = [seconds(d, "latency") for d in result.latencies]
    percentile, tail_s, beyond = tail(latencies)
    window = seconds(result.window, "throughput_rps") \
        if result.window else 0.0
    values = {
        "wall_s": medians(result.wall, "wall_s"),
        "setup_s": medians(result.setup, "setup_s"),
        "peak_rss_mb": ctx.peak_rss_mb,
        "ok_share": result.tally.ok_share(),
        "first_response_s": medians(result.first_response,
                                    "first_response_s"),
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_tail_ms": 1000.0 * tail_s,
        "throughput_rps": len(latencies) / window if window else 0.0,
    }
    return values, percentile, beyond


def end_to_end_metrics(ctx, result, speed):
    if not speed:
        ctx.fail("the host speed probe recorded nothing")
        return {}

    def scaled(duration, metric):
        return raw(duration) if metric in result.unscaled \
            else speed.scale(duration)

    values, percentile, beyond = _values(ctx, result, scaled)
    measured, _, _ = _values(ctx, result, lambda duration, _: raw(duration))
    ordered = sorted(speed.scale(d) for d in result.latencies)
    ctx.record.update(latency_samples=len(result.latencies),
                      tail_percentile=percentile, tail_beyond=beyond,
                      latency_ms={
                          "p%g" % p: 1000.0 * nearest_rank(ordered, p)[0]
                          for p in (50, 90, 95, 99)} if ordered else {},
                      as_measured=measured, unscaled=list(result.unscaled),
                      host_speed={"units": len(speed),
                                  "factor": speed.factor(
                                      speed.starts[0], speed.starts[-1])},
                      outcomes=result.tally.outcomes)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


# --------------------------------------------------------------------------
# The evaluate workloads.

def startup_probe(ctx):
    """Process start-up: the import cost every command pays before work."""
    cache = ctx.fresh("probe-cache")
    finished = ctx.run(ctx.repro("cache", "stats", "--dir", cache), cache,
                       measured=False)
    if finished.status != 0:
        ctx.fail("repro cache stats exited %d" % finished.status)
    return [(finished.seconds, finished.started)]


def run_evaluate(ctx, tables, result, cache, mode, jobs, launch=None,
                 measured=True):
    """One ``repro evaluate``; *launch* is None (the plain CLI),
    ``"plain"`` or ``"layers"`` (through ``launch.py``, which returns
    its document).  Returns the command's duration and that document."""
    argv = ["evaluate", "--jobs", jobs]
    layers_out = ctx.fresh("layers") / "layers.json"
    if launch == "layers":
        argv += ["--trace", layers_out.parent / "trace.jsonl"]
    if launch:
        argv = ctx.launched(layers_out, *argv, plain=launch == "plain")
    else:
        argv = ctx.repro(*argv)
    finished = ctx.run(argv, cache, measured)
    outcome = check_evaluate(ctx, finished, tables, mode, jobs)
    duration = [(finished.seconds, finished.started)]
    if result is not None:
        result.operation(outcome, duration)
        if outcome == "ok":
            result.first_response.append(
                [(finished.first_output_s, finished.started)])
    layers = json.loads(layers_out.read_text()) \
        if launch and layers_out.exists() else None
    return duration, layers


def paper(ctx, tables, warm, trace):
    result = Result()
    cache = ctx.fresh("cache")
    if warm:
        duration, _ = run_evaluate(ctx, tables, None, cache, "cold",
                                   EVALUATE_JOBS, measured=False)
        result.setup.append(duration)
    elif not trace:
        result.setup = [startup_probe(ctx) for _ in range(STARTUP_PROBES)]
    mode = "warm" if warm else "cold"

    def target():
        return cache if warm else ctx.fresh("cache")

    if trace:
        plain, wrapped = abba(lambda launch: run_evaluate(
            ctx, tables, result, target(), mode, 1, launch=launch)[1],
            rounds=2 if warm else 1)
        result.layers = layer_metrics(ctx, wrapped[:1],
                                      overhead(wrapped, plain),
                                      check_counts=True)
        return result

    def step():
        duration, _ = run_evaluate(ctx, tables, result, target(), mode,
                                   EVALUATE_JOBS)
        result.wall.append(duration)

    result.window = timed_loop(ctx, ctx.args.seconds, step)
    return result


# --------------------------------------------------------------------------
# The search workload.

def search(ctx, trace):
    result = Result()
    programs = ctx.fresh("search")
    references = programs / "oracle.json"
    oracle(ctx, "search", references)
    if not trace:
        result.setup = [startup_probe(ctx) for _ in range(STARTUP_PROBES)]
    oracles = json.loads(references.read_text())
    for name, count in SEARCH_COUNTS.items():
        if oracles[name]["count"] != count:
            ctx.fail("sequential oracle gives %d answers for %s, not %d"
                     % (oracles[name]["count"], name, count))
        (programs / (name + ".pl")).write_text(oracles[name]["source"])
    ctx.record.update(mode="cold", jobs=OR_JOBS, backend=None)
    # the first pass runs in name order, later ones in a seeded order
    order = sorted(SEARCH_COUNTS)
    rng = random.Random(ctx.args.seed)
    passes = []

    def query(name, launch=None):
        reference = oracles[name]
        argv = ["query", "--file", programs / (name + ".pl"), "--goal",
                reference["goal"], "--or-jobs", OR_JOBS]
        layers_out = ctx.fresh("layers") / "layers.json"
        argv = ctx.launched(layers_out, *argv, plain=launch == "plain") \
            if launch else ctx.repro(*argv)
        finished = ctx.run(argv, ctx.fresh("cache"))
        outcome = check_query(ctx, name, finished, reference)
        duration = [(finished.seconds, finished.started)]
        result.operation(outcome, duration)
        if outcome == "ok":
            result.first_response.append(
                [(finished.first_output_s, finished.started)])
        layers = json.loads(layers_out.read_text()) \
            if launch and layers_out.exists() else None
        return duration, layers

    def one_pass(launch=None):
        """The three queries; returns their duration and documents."""
        if passes:
            rng.shuffle(order)
        passes.append(list(order))
        outcomes = [query(name, launch) for name in order]
        return (sum((duration for duration, _ in outcomes), []),
                [layers for _, layers in outcomes])

    if trace:
        plain, wrapped = abba(lambda launch: one_pass(launch)[1], rounds=2)
        result.layers = layer_metrics(
            ctx, wrapped[0], overhead(sum(wrapped, []), sum(plain, [])))
        return result

    def step():
        result.wall.append(one_pass()[0])

    result.window = timed_loop(ctx, ctx.args.seconds, step)
    return result


# --------------------------------------------------------------------------
# The serve workload.

def serve_templates():
    templates = []
    for benchmark in SERVE_BENCHMARKS:
        for op in SERVE_OPS:
            if op == "query":
                body = {"benchmark": benchmark, "limit": 64,
                        "or_jobs": SERVE_JOBS}
            else:
                body = {"benchmark": benchmark,
                        "configs": list(SERVE_CONFIGS)}
            templates.append({"op": op, "body": body})
    return templates


def serve_openers(templates):
    """One ``evaluate`` per client, on distinct benchmarks."""
    evaluates = [index for index, template in enumerate(templates)
                 if template["op"] == "evaluate"]
    return evaluates[:CLIENTS]


def _listening_port(out_path, process, deadline):
    while time.monotonic() < deadline and process.poll() is None:
        match = re.search(r"listening on http://[\d.]+:(\d+)",
                          out_path.read_text(errors="replace"))
        if match:
            return int(match.group(1))
        time.sleep(0.005)
    return None


def serve_session(ctx, templates, references, seconds, traced=False,
                  drive=True):
    """Spawn one service on an empty cache; returns a dict with its
    spawn-to-ready duration and, when *drive*, the closed loop's result,
    the ``/metrics`` snapshot and (traced) the layer document."""
    cache = ctx.fresh("serve-cache")
    argv = ["serve", "-j", SERVE_JOBS, "--port", 0, "--cache-dir", cache]
    layers_out = ctx.fresh("layers") / "layers.json"
    argv = ctx.launched(layers_out, *argv) if traced else ctx.repro(*argv)
    spawned = time.monotonic()
    process, out_path, err_path = ctx.spawn(argv, cache)
    session = {"ready": None, "loop": None, "metrics": None,
               "layers": None}
    try:
        deadline = spawned + min(60.0, ctx.remaining())
        port = _listening_port(out_path, process, deadline)
        ready_at = asyncio.run(serve_client.wait_ready(
            "127.0.0.1", port, deadline)) if port else None
        if ready_at is None:
            ctx.fail("service not ready: %s"
                     % err_path.read_text(errors="replace")[-400:])
            return session
        session["ready"] = [(ready_at - spawned, spawned)]
        session["ready_at"] = ready_at
        if drive:
            sequence = request_sequence(templates, ctx.args.seed,
                                        serve_openers(templates))
            session["loop"] = asyncio.run(serve_client.closed_loop(
                "127.0.0.1", port, templates, references, sequence,
                CLIENTS, seconds, CLIENT_TIMEOUT_S,
                grace=max(1.0, ctx.remaining() - seconds - 30.0)))
            session["metrics"] = asyncio.run(
                serve_client.metrics("127.0.0.1", port))
    finally:
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        status = ctx.reap(process, min(60.0, ctx.remaining()),
                          measured=drive)
        if status != 0:
            ctx.fail("service exited %d after drain: %s" % (
                status, err_path.read_text(errors="replace")[-400:]))
    if traced and layers_out.exists():
        session["layers"] = json.loads(layers_out.read_text())
    return session


def _loop_into(result, session):
    """The closed loop's requests into *result*.  Throughput is taken
    from the first correct reply on; the time before it, and so
    ``wall_s`` and ``first_response_s``, is a wait on the client's timer
    while the pooled cold start stalls, and is not scaled."""
    loop = session["loop"]
    ready_at = session["ready_at"]
    result.tally = loop.tally
    result.operations = len(loop.requests)
    result.operations_failed = sum(1 for r in loop.requests if not r[3])
    result.latencies = [[(latency, answered - latency)]
                        for _, latency, answered, ok in loop.requests if ok]
    result.unscaled = ("wall_s", "first_response_s")
    if loop.first_ok_at is not None:
        result.window = [(loop.end - loop.first_ok_at, loop.first_ok_at)]
        result.first_response.append([(loop.first_ok_at - ready_at,
                                       ready_at)])
    if loop.all_answered_at is not None:
        result.wall.append([(loop.all_answered_at - ready_at, ready_at)])


def serve_pooled(ctx, trace):
    result = Result()
    templates = serve_templates()
    scratch = ctx.fresh("serve-references")
    (scratch / "templates.json").write_text(json.dumps(templates))
    oracle(ctx, "serve", scratch / "templates.json", scratch / "cache",
           scratch / "references.json")
    references = json.loads((scratch / "references.json").read_text())
    # from here on this process and every process it starts run on one
    # CPU (see the module docstring)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ctx.cpus = [cpu]
    ctx.record.update(mode="cold", jobs=SERVE_JOBS, clients=CLIENTS,
                      client_timeout_s=CLIENT_TIMEOUT_S, cpus=[cpu])
    seconds = ctx.args.seconds
    if trace:
        plain = serve_session(ctx, templates, references, seconds / 2)
        traced = serve_session(ctx, templates, references, seconds / 2,
                               traced=True)
        if not (plain["loop"] and traced["loop"]):
            return result
        _loop_into(result, traced)
        overhead = (median([r[1] for r in traced["loop"].requests
                            if r[3]])
                    / median([r[1] for r in plain["loop"].requests
                              if r[3]]) - 1.0)
        docs = [traced["layers"]] if traced["layers"] else []
        result.layers = layer_metrics(
            ctx, docs, overhead,
            window_s=traced["loop"].end - traced["ready_at"])
        result.layers.update(serve_layer_metrics(traced, templates))
        return result
    for _ in range(SERVE_SPAWNS - 1):
        session = serve_session(ctx, templates, references, seconds,
                                drive=False)
        if session["ready"] is not None:
            result.setup.append(session["ready"])
    session = serve_session(ctx, templates, references, seconds)
    if session["ready"] is not None:
        result.setup.append(session["ready"])
    if session["loop"] is not None:
        _loop_into(result, session)
        ctx.record.update(client_retries=session["loop"].retries,
                          backend=_served_backend(session))
    return result


def _served_backend(session):
    counters = (session["metrics"] or {}).get("breakers") or {}
    return ",".join(sorted(counters)) or None


def serve_layer_metrics(session, templates):
    loop = session["loop"]
    counters = (session["metrics"] or {}).get("counters") or {}
    metrics = {}
    for op in SERVE_OPS:
        latencies = [r[1] for r in loop.requests
                     if r[3] and templates[r[0]]["op"] == op]
        metrics["serve.latency_p50_ms." + op] = (
            1000.0 * median(latencies), "ms")
    hits = counters.get("serve.cache_hits", 0)
    computed = counters.get("serve.computed", 0)
    metrics.update({
        "serve.batches": (counters.get("serve.batches", 0), "count"),
        "serve.shed": (counters.get("serve.shed", 0), "count"),
        "serve.degraded": (counters.get("serve.degraded", 0), "count"),
        "serve.cache_hit_ratio": (hits / (hits + computed)
                                  if hits + computed else 0.0, "ratio"),
        "serve.client_retries": (loop.retries, "count"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


# --------------------------------------------------------------------------
# Per-layer metrics of a traced run.

#: program trace counter (or span count) each wrapper count must equal
RECONCILE = (
    ("emulator.steps", "counter", "emulator.steps"),
    ("emulator.runs", "counter", "emulator.runs"),
    ("emulator.compiles", "span", "codegen.compile"),
    ("emulator.artifact_hits", "counter", "codegen.cache.hits"),
    ("emulator.artifact_misses", "counter", "codegen.cache.misses"),
    ("cache.hits", "counter", "cache.hits"),
    ("cache.misses", "counter", "cache.misses"),
    ("cache.puts", "counter", "cache.writes"),
    ("profile_cache.hits", "counter", "profile_cache.hits"),
    ("intcode.translate_calls", "span", "pipeline.translate"),
)


def reconcile(ctx, doc):
    trace = doc.get("program_trace") or {}
    counters = trace.get("counters", {})
    spans = trace.get("spans", {})
    checked = {}
    for count, kind, name in RECONCILE:
        ours = doc["counts"].get(count, 0)
        theirs = (counters if kind == "counter" else spans).get(name, 0)
        checked[count] = [ours, theirs]
        if ours != theirs:
            ctx.fail("layer count %s = %d but the program's trace %s %s "
                     "= %d" % (count, ours, kind, name, theirs))
    lookups = doc["counts"].get("profile_cache.lookups", 0)
    theirs = (counters.get("profile_cache.hits", 0)
              + counters.get("profile_cache.misses", 0))
    checked["profile_cache.lookups"] = [lookups, theirs]
    if lookups != theirs:
        ctx.fail("profile cache lookups %d but the program's trace "
                 "counts %d" % (lookups, theirs))
    ctx.record["reconciled"] = checked


def abba(run, rounds):
    """``run("plain")`` and ``run("layers")`` in A-B-B-A order over
    *rounds* pairs, so that a drift in machine speed during the run
    (CPUs clock up under sustained load) does not favour either side;
    returns the plain and the wrapped results."""
    plain, wrapped = [], []
    for index in range(rounds):
        for launch in (("plain", "layers") if index % 2 == 0
                       else ("layers", "plain")):
            (plain if launch == "plain" else wrapped).append(run(launch))
    return plain, wrapped


def overhead(traced, plain):
    """Wall time of the wrapped runs against the same runs unwrapped
    (``launch.py --plain``), both timed around ``repro.cli.main``."""
    plain_s = sum(doc["wall_s"] for doc in plain if doc)
    traced_s = sum(doc["wall_s"] for doc in traced if doc)
    return traced_s / plain_s - 1.0 if plain_s else 0.0


def _merge(docs):
    layers, counts = {}, {}
    reports = {}
    wall = 0.0
    for doc in docs:
        wall += doc["wall_s"]
        for name, entry in doc["layers"].items():
            merged = layers.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            for key in merged:
                merged[key] += entry[key]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in doc["engine_reports"].items():
            reports[name] = reports.get(name, 0) + value
    return layers, counts, reports, wall


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(ctx, docs, overhead, check_counts=False, window_s=None):
    """Every per-layer metric from the traced processes' documents.

    Times are self times in seconds.  ``trace.unaccounted_share`` is
    the share of the traced wall time (of ``repro.cli.main``, or the
    serve window) that no wrapped layer accounts for.
    """
    docs = [doc for doc in docs if doc]
    if not docs:
        ctx.fail("the traced run left no layer document")
        return {}
    if check_counts:
        for doc in docs:
            reconcile(ctx, doc)
    layers, counts, reports, wall = _merge(docs)
    wall = window_s or wall

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def count(name):
        return counts.get(name, 0)

    accounted = sum(entry["self_s"] for entry in layers.values())
    metrics = {
        "intcode.translate_calls": (count("intcode.translate_calls"),
                                    "count"),
        "intcode.translate_s": (self_s("intcode.translate"), "s"),
        "bam.compile_s": (self_s("bam.compile"), "s"),
        "emulator.runs": (count("emulator.runs"), "count"),
        "emulator.steps": (count("emulator.steps"), "count"),
        "emulator.run_s": (self_s("emulator.run"), "s"),
        "emulator.compiles": (count("emulator.compiles"), "count"),
        "emulator.compile_s": (self_s("emulator.compile"), "s"),
        "emulator.artifact_hit_ratio": (_ratio(
            count("emulator.artifact_hits"),
            count("emulator.artifact_hits")
            + count("emulator.artifact_misses")), "ratio"),
        "emulator.fallbacks": (count("emulator.fallbacks"), "count"),
        "profile_cache.lookups": (count("profile_cache.lookups"), "count"),
        "profile_cache.hit_ratio": (_ratio(
            count("profile_cache.hits"), count("profile_cache.lookups")),
            "ratio"),
        "compaction.superblock_s": (self_s("compaction.superblock"), "s"),
        "compaction.schedule_s": (self_s("compaction.schedule"), "s"),
        "compaction.regions_scheduled": (layers.get(
            "compaction.schedule", {}).get("calls", 0), "count"),
        "simulator.replay_s": (self_s("simulator.replay"), "s"),
        "cache.gets": (count("cache.gets"), "count"),
        "cache.hit_ratio": (_ratio(count("cache.hits"),
                                   count("cache.gets")), "ratio"),
        "cache.get_s": (self_s("cache.get"), "s"),
        "cache.puts": (count("cache.puts"), "count"),
        "cache.put_s": (self_s("cache.put"), "s"),
        "cache.bytes_written": (count("cache.bytes_written"), "bytes"),
        "parallel.tasks": (reports.get("tasks", 0), "count"),
        "parallel.tasks_cached": (reports.get("cached", 0), "count"),
        "parallel.retried": (reports.get("retried", 0), "count"),
        "parallel.pool_restarts": (reports.get("pool_restarts", 0),
                                   "count"),
        "parallel.degraded": (reports.get("degraded", 0), "count"),
        "parallel.wait_s": (self_s("parallel"), "s"),
        "orparallel.query_s": (self_s("orparallel.query"), "s"),
        "orparallel.split_s": (self_s("orparallel.split"), "s"),
        "orparallel.fanout_s": (count("orparallel.fanout_s"), "s"),
        "orparallel.branches": (count("orparallel.branches"), "count"),
        "orparallel.splits": (count("orparallel.splits"), "count"),
        "orparallel.fallbacks": (count("orparallel.fallbacks"), "count"),
        "analysis.verify_s": (self_s("analysis.verify"), "s"),
        "analysis.analyze_s": (self_s("analysis.analyze"), "s"),
        "trace.unaccounted_share": (_ratio(wall - accounted, wall),
                                    "share"),
        "trace.overhead_share": (overhead, "share"),
    }
    for op in SERVE_OPS:
        metrics["serve.latency_p50_ms." + op] = (0.0, "ms")
    for name in ("serve.batches", "serve.shed", "serve.degraded",
                 "serve.client_retries"):
        metrics[name] = (0, "count")
    metrics["serve.cache_hit_ratio"] = (0.0, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


# --------------------------------------------------------------------------
# Driver.

def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_prerequisites():
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise Failure("no program sources at %s" % (ROOT / "src"))
    return golden_tables()


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of repro.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args):
    tables = check_prerequisites()
    ctx = Context(args)
    try:
        ctx.record.update(
            workload=args.workload, seed=args.seed, trace=args.trace,
            cpu_count=os.cpu_count(), python=platform.python_version(),
            source_sha256=source_digest())
        if args.workload == "paper_cold":
            result = paper(ctx, tables, warm=False, trace=args.trace)
        elif args.workload == "paper_warm":
            result = paper(ctx, tables, warm=True, trace=args.trace)
        elif args.workload == "search":
            result = search(ctx, args.trace)
        else:
            result = serve_pooled(ctx, args.trace)
        if args.trace:
            metrics = result.layers or {}
        else:
            metrics = end_to_end_metrics(ctx, result, ctx.speed())
        correct = (not ctx.problems and result.operations > 0
                   and result.operations_failed == 0
                   and not result.tally.outcomes["wrong"]
                   and bool(metrics))
        ctx.record["problems"] = ctx.problems
        sys.stderr.write("perfbench: record %s\n"
                         % json.dumps(ctx.record, sort_keys=True))
        return {"correct": correct,
                "attempted": max(1, result.operations),
                "failed": result.operations_failed
                if result.operations else 1,
                "metrics": metrics}
    finally:
        ctx.close()


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still stops what it started (``Context.close``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        document = execute(args)
    except Failure as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 2
    sys.stdout.write(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
