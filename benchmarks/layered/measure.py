"""The end-to-end measurement of one workload, in this process.

Order of a run: set up (timed) → per program one prepare and one
discarded first run → rounds of one fresh compile and one warm run per
program (timed) → peak RSS → one allocation-profiled pass → more timed
set-ups → the reference pass that decides ``failed``.  Tracing,
profiling, telemetry, statistics and governor limits are all off while a
sample is timed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

from benchmarks.layered import check
from benchmarks.layered.workloads import Env, Program, Workload, set_up
from repro.obs import AllocationProfile

MAX_ROUNDS = 40
MAX_COMPILE_PASSES = 3      # per round
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 9, 2.0
MIB = 1024.0 * 1024.0


class Ops:
    """Operations attempted and failed.  An op is one compile or one
    execution; an exception, a governor refusal (also an exception) or a
    wrong result fails it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, label: str, fn):
        """Run ``fn`` as one op; ``None`` when it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:       # the run must go on and report the failure
            self.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


@dataclass
class ProgramTimes:
    """What the primary phase learned about one program."""

    compile_s: list[float] = field(default_factory=list)
    first_run_s: float | None = None
    warm_s: list[float] = field(default_factory=list)
    fingerprint: tuple | None = None
    alloc_bytes: int = 0


@dataclass
class Primary:
    env: Env
    ops: Ops
    runners: dict           # program name -> run(ctx=None, n_threads=None)
    times: dict[str, ProgramTimes]
    setup_s: list[float]
    peak_rss_mib: float


def fresh_compile(env: Env, prog: Program, **kwargs):
    """One compile that no cache serves."""
    if prog.kind == "sql":
        return env.session.prepare(prog.text, use_cache=False, **kwargs)
    return env.session.compile_matlab(prog.text, prog.specs, **kwargs)


def make_runner(env: Env, prog: Program):
    """The warm path a user takes: ``run_sql`` on a plan-cache hit, or a
    call of the compiled MATLAB function."""
    session, threads = env.session, env.workload.n_threads
    if prog.kind == "sql":
        session.prepare(prog.text)

        def run(ctx=None, n_threads=threads):
            return session.run_sql(prog.text, n_threads=n_threads, ctx=ctx)
    else:
        compiled = session.compile_matlab(prog.text, prog.specs)

        def run(ctx=None, n_threads=threads):
            extra = {} if ctx is None else {"ctx": ctx}
            return compiled(*prog.args, n_threads=n_threads, **extra)
    return run


def timed(fn) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def checked_run(ops: Ops, times: ProgramTimes, label: str, fn):
    """Time ``fn`` as one execution op whose result must carry the
    program's fingerprint; returns the seconds, ``None`` if it failed."""
    out = ops.call(label, lambda: timed(fn))
    if out is None:
        return None
    seconds, result = out
    mark = check.fingerprint(result)
    if times.fingerprint is None:
        times.fingerprint = mark
    elif not check.same_fingerprint(mark, times.fingerprint):
        ops.fail(f"{label}: result changed between runs")
        return None
    return seconds


def run_primary(workload: Workload, seed: int, seconds: float,
                rounds: int | None = None) -> Primary:
    """Set up and take the timed samples.

    The timed phase is a series of *rounds*; a round is one warm pass
    (every program run once) and then one to three passes of fresh
    compiles.  Rounds go on until ``seconds`` have
    passed and ``workload.min_rounds`` are done, ``MAX_ROUNDS`` at
    most (``rounds``, for the smoke test, fixes the number instead).
    Sampling round-robin spreads each program's samples over the whole
    phase, so a few slow seconds on a shared machine touch a minority of
    every program's samples rather than all the samples of a few.
    """
    ops = Ops()
    start = time.perf_counter()
    env = set_up(workload, seed)
    setup_s = [time.perf_counter() - start]
    times = {prog.name: ProgramTimes() for prog in env.programs}

    runners = {}
    for prog in env.programs:
        run = ops.call(f"prepare {prog.name}",
                       lambda: make_runner(env, prog))
        if run is None:
            continue
        t = times[prog.name]
        t.first_run_s = checked_run(ops, t, f"first run {prog.name}", run)
        if t.first_run_s is not None:
            runners[prog.name] = run

    phase_start = time.perf_counter()
    done = 0
    while done < MAX_ROUNDS and runners:
        if rounds is not None:
            if done >= rounds:
                break
        elif (done >= workload.min_rounds
              and time.perf_counter() - phase_start >= seconds):
            break
        # Warm runs back to back, then the compiles: a compile between
        # two runs would hand each run cold caches and sleeping OpenMP
        # workers, which is not the warm path.
        warm_start = time.perf_counter()
        for prog in env.programs:
            if prog.name not in runners:
                continue
            t = times[prog.name]
            sample = checked_run(ops, t, f"run {prog.name}",
                                 runners[prog.name])
            if sample is None:
                del runners[prog.name]      # it stays failed; move on
            else:
                t.warm_s.append(sample)
        # Compile passes for as long as the warm pass took, so neither
        # kind of sample starves the other: three where a pass of runs
        # costs a second, one where it costs milliseconds.
        compile_start = time.perf_counter()
        warm_took = compile_start - warm_start
        for index in range(MAX_COMPILE_PASSES):
            if index and time.perf_counter() - compile_start >= warm_took:
                break
            for prog in env.programs:
                out = ops.call(
                    f"compile {prog.name}",
                    lambda: timed(lambda: fresh_compile(env, prog)))
                if out is not None:
                    times[prog.name].compile_s.append(out[0])
        done += 1
    peak_rss_mib = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Bytes from one profiled pass on an explicit context, so the timed
    # samples above never see a profile.
    profile = AllocationProfile()
    ctx = replace(env.session.context(), profile=profile)
    for prog in env.programs:
        run = runners.get(prog.name)
        if run is None:
            continue
        before = profile.bytes_allocated
        checked_run(ops, times[prog.name], f"profiled run {prog.name}",
                    lambda: run(ctx=ctx))
        times[prog.name].alloc_bytes = profile.bytes_allocated - before

    # More set-ups, timed and thrown away, so ``setup_s`` is a median;
    # a cheap set-up (the kernels' 0.2 s) is repeated more often.
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_SECONDS
                                        and len(setup_s) < MAX_SETUPS):
        gc.collect()
        start = time.perf_counter()
        set_up(workload, seed).session.close()
        setup_s.append(time.perf_counter() - start)
    return Primary(env, ops, runners, times, setup_s, peak_rss_mib)


def reference_result(env: Env, prog: Program):
    """The answer of an engine that is not the compiler under test: the
    MonetDB-like plan executor for SQL, NumPy for MATLAB."""
    if prog.kind == "sql":
        return env.session.run_sql(prog.text, backend="baseline")
    return prog.reference(*prog.args)


def verify(primary: Primary, corrupt: str | None = None) -> dict:
    """Compare every program's result, element by element, with its
    reference; returns the reference seconds per program (they double as
    the first baseline sample).  ``corrupt`` names a program whose
    result the self-test spoils first."""
    env, ops = primary.env, primary.ops
    reference_s = {}
    for prog in env.programs:
        run = primary.runners.get(prog.name)
        if run is None:
            continue
        label = f"verify {prog.name}"
        result = ops.call(label, run)
        if result is None:
            continue
        if not check.same_fingerprint(check.fingerprint(result),
                                      primary.times[prog.name].fingerprint):
            ops.fail(f"{label}: result changed between runs")
        if prog.name == corrupt:
            result = check.corrupt(result)
        out = ops.call(f"reference {prog.name}",
                       lambda: timed(lambda: reference_result(env, prog)))
        if out is None:
            continue
        reference_s[prog.name], reference = out
        why = check.mismatch(result, reference)
        if why is not None:
            ops.fail(f"{label}: {why}")
    return reference_s


def best(samples) -> float:
    """A program's time: the fastest of its samples.  What disturbs a
    run on a shared machine — other tenants of the host, for seconds at
    a time (README, "Noise") — only ever adds time, so the minimum over
    samples spread across the whole phase repeats from run to run where
    the median does not."""
    samples = list(samples)
    return min(samples) if samples else 0.0


def geomean(values) -> float:
    values = list(values)
    return statistics.geometric_mean(values) if values else 0.0


def end_to_end(primary: Primary) -> dict[str, float]:
    """The seven end-to-end metrics.  Call after :func:`verify`, which
    settles ``ok_share``."""
    timed_programs = [t for t in primary.times.values()
                      if t.compile_s and t.warm_s]
    compile_best = [best(t.compile_s) for t in timed_programs]
    warm_best = [best(t.warm_s) for t in timed_programs]
    ops = primary.ops
    return {
        "setup_s": statistics.median(primary.setup_s),
        "compile_geomean_ms": geomean(compile_best) * 1e3,
        "warm_geomean_ms": geomean(warm_best) * 1e3,
        "warm_pass_s": sum(warm_best),
        "peak_rss_mib": primary.peak_rss_mib,
        "alloc_mib_total": sum(t.alloc_bytes
                               for t in primary.times.values()) / MIB,
        "ok_share": 1.0 - ops.failed / ops.attempted,
    }


def sample_counts(primary: Primary) -> dict[str, int]:
    """``n`` behind each end-to-end metric: the smallest per-program
    sample count for the timings, programs for the counts."""
    times = list(primary.times.values())
    compiles = min((len(t.compile_s) for t in times), default=0)
    warm = min((len(t.warm_s) for t in times), default=0)
    return {"setup_s": len(primary.setup_s),
            "compile_geomean_ms": compiles, "warm_geomean_ms": warm,
            "warm_pass_s": warm, "peak_rss_mib": 1,
            "alloc_mib_total": len(times),
            "ok_share": primary.ops.attempted}
