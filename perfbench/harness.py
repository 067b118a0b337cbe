"""Shared machinery of the stage-level benchmark.

A workload is an object with four methods:

``setup(seed, timed_s) -> state``
    build the run's inputs (and start whatever serves them) for
    ``timed_s`` seconds of timed loops; timed itself, and repeated
    :data:`SETUP_REPEATS` times so ``setup_s`` is a median;
``loop(state, seconds, loop) -> Loop``
    the timed closed loop; it calls the program's public layer functions,
    records every output for the checks in the given :class:`Loop` and
    returns it;
``check(state, loop) -> list of failure strings``
    correctness checks, run after the loop so they add no latency;
``metrics(state, loops) -> (end_to_end, per_layer)``
    the workload's own metric values;

plus ``teardown(state)`` and a ``clock`` attribute, ``"cpu"`` or
``"wall"`` (:data:`CLOCKS`).  :func:`measure` drives them and
:func:`result` shapes the single JSON line that ``perfbench/run.py``
prints.

On a CPU-clock workload every time metric is in calibrated seconds: CPU
seconds, scaled by how many CPU seconds a fixed pure-Python reference
loop (:func:`reference_work`, owned by the benchmark) takes during the
same run, against :data:`REFERENCE_S`.  The shared machine's speed drifts
by tens of percent between runs; the reference loop drifts with it, and
the ratio drifts less.  See README.md, "Noise".

Spans are recorded only here, around calls into the program: the tracer
is never activated, so the program's own instrumentation stays silent and
the traced run measures the layer boundaries the benchmark sees.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3

_NULL = nullcontext()

#: reference-loop samples taken before set-up and after the timed loop
CALIBRATION_EDGE_SAMPLES = 3
#: wall seconds between reference-loop samples inside a timed loop
CALIBRATE_EVERY_S = 1.0
#: seconds :func:`reference_work` takes at the nominal machine speed (its
#: median CPU time on a 2-vCPU Linux VM with Python 3.11); a calibrated
#: second is the time the nominal machine would have taken.  The constant
#: only sets the scale: it must stay fixed, so that runs compare.
REFERENCE_S = 0.130


def cpu_seconds() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: a workload's ``clock`` attribute -> the clock its times are read on
CLOCKS: Dict[str, Callable[[], float]] = {
    "cpu": cpu_seconds,
    "wall": time.perf_counter,
}


def reference_work() -> int:
    """A fixed slice of pure-Python work: ints, bit operations, a dict of
    about 100k entries and a sort -- the interpreter paths and the
    working-set size of the program's cube code.  It never calls the
    program, so a change to the program cannot move it.

    The working set matters.  The machine's fast and slow stretches move
    a loop over a 4096-entry dict by twice as much as they move
    figure8-detect; over a 100k-entry dict the gap is far smaller."""
    rng = random.Random(7)
    table: Dict[int, int] = {}
    acc = 0
    for i in range(100000):
        key = rng.getrandbits(22)
        table[key] = table.get(key, 0) + (i & 7)
        acc ^= (key << 3) | (acc >> 5)
    return acc + len(sorted(table.items()))


#: the reference-loop process: one CPU-timed :func:`reference_work` per
#: line read, its CPU seconds written back
_REFERENCE_PROCESS = """
import sys, time
sys.path.insert(0, sys.argv[1])
from harness import reference_work
for _ in sys.stdin:
    t0 = time.process_time()
    reference_work()
    print(time.process_time() - t0, flush=True)
"""


class Calibration:
    """Reference-loop samples taken through one run.

    The loop runs in a process of its own, started on the first sample,
    while this one waits: its ~100k-entry dict and its garbage then touch
    neither the peak RSS nor the collector of the process doing the work.
    Each sample is the reference process's CPU seconds.

    Only CPU-clock workloads are calibrated.  serve-mix is timed on the
    wall clock, across a daemon that is not waited for; wall time there
    includes waits the reference loop does not see, and when
    corpus-differential was timed that way, calibration widened its
    five-seed throughput spread from 5% to 8%.  For a wall-clock
    workload ``sample`` is a no-op and the factor is 1.
    """

    def __init__(self, clock: Callable[[], float], enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self.samples: List[float] = []
        self._proc: Optional[subprocess.Popen] = None

    def sample(self, times: int = 1) -> float:
        """Take ``times`` samples; the time they took on ``clock``."""
        if not self.enabled:
            return 0.0
        t0 = self.clock()
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _REFERENCE_PROCESS, str(BENCH_DIR)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        for _ in range(times):
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.samples.append(float(self._proc.stdout.readline()))
        return self.clock() - t0

    def close(self) -> None:
        """Stop the reference process and wait for it."""
        if self._proc is None:
            return
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None

    @property
    def factor(self) -> float:
        """Calibrated seconds per clock second over the run so far.

        The mean, not the median, of the samples: the machine switches
        between fast and slow stretches within a run, and the work it
        calibrates integrates over both."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.mean(self.samples)

    def describe(self) -> str:
        if not self.samples:
            return "none (wall clock), factor 1"
        return (f"{len(self.samples)} reference samples, mean "
                f"{statistics.mean(self.samples):.4f}s, factor {self.factor:.4f}")


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Spans:
    """Benchmark-side spans around layer calls; a no-op when untraced."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def layer(self, name: str, **attrs: Any):
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name, **attrs)

    def adopt_task(self, name: str, duration_s: float, **attrs: Any) -> None:
        """Record a span for work that ran in another process, ending now."""
        self.tracer.adopt([{
            "name": name, "span_id": 1, "parent_id": None,
            "start_s": 0.0, "end_s": duration_s, "attrs": attrs,
        }])

    def layer_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus child spans."""
        from repro.obs.export import self_seconds

        by_id = self_seconds(self.tracer)
        out: Dict[str, float] = {}
        for span in self.tracer.finished_spans():
            out[span.name] = out.get(span.name, 0.0) + by_id[span.span_id]
        return out


@dataclass
class Loop:
    """What one timed loop did.

    The loop runs whole passes over its input set.  ``timed_s`` is the
    clock time of the passes, less the calibration samples taken between
    their items; ``latencies_s`` holds one sample per completed item,
    read on ``clock``.  Throughput is items over ``timed_s``, and latency
    quantiles are taken over all the run's samples: the machine's speed
    wanders within a run, and the calibration factor is a mean over the
    same run, so the work is averaged the same way.  ``outputs`` holds
    what the workload's checks need; ``errors`` items that failed inside
    the loop (exception, non-ok status).  Times are raw clock times;
    :func:`measure` calibrates them.
    """

    spans: Spans = field(default_factory=Spans)
    clock: Callable[[], float] = time.perf_counter
    calibration: Optional[Calibration] = None
    elapsed_s: float = 0.0
    timed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    passes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    _pass_t0: float = 0.0
    _paused_s: float = 0.0
    _last_sample: float = field(default_factory=time.perf_counter)

    def begin_pass(self) -> None:
        self._pass_t0 = self.clock()
        self._paused_s = 0.0

    def end_pass(self) -> None:
        self.timed_s += self.clock() - self._pass_t0 - self._paused_s
        self.passes += 1

    def calibrate(self) -> None:
        """Between two items: a reference-loop sample, at most every
        :data:`CALIBRATE_EVERY_S`.  Its time is left out of the pass."""
        if self.calibration is None:
            return
        if time.perf_counter() - self._last_sample >= CALIBRATE_EVERY_S:
            self._paused_s += self.calibration.sample()
            self._last_sample = time.perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + len(self.errors)

    @property
    def throughput_per_s(self) -> float:
        """Completed items per timed second."""
        return len(self.latencies_s) / self.timed_s if self.timed_s > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        """The ``q`` quantile of the run's latency samples."""
        return quantile(self.latencies_s, q) * 1e3


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.0 if log_front < -700 else math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 if log_front < -700 else 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A beta-weighted mean of all order statistics.  A figure8-detect run
    has a few dozen samples, and its plain sample median is a single
    ~100 ms measurement; this estimator averages the neighbouring
    samples, and it agrees with the sample quantile on large samples.
    """
    data = sorted(values)
    n = len(data)
    if n < 2:
        return data[0] if data else 0.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(data))


def peak_rss_mb(who: str = "self") -> float:
    """Peak resident set size in MiB of this process or its children."""
    which = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(which).ru_maxrss / 1024.0  # Linux: KiB


def cover_key(cover) -> List[List[str]]:
    """Order-free identity of a cover, as data/golden_pipeline.json pins it."""
    return sorted([f"{c.inbits:x}", f"{c.outbits:x}"] for c in cover)


def import_cold(modules: Sequence[str]) -> None:
    """Import ``modules`` in a fresh interpreter: what a new process pays."""
    code = "; ".join(f"import {m}" for m in modules)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


#: HFResult.counters fields behind the hf.* per-layer counts
HF_COUNTERS = (
    "supercube_calls",
    "supercube_cache_hits",
    "expand_probes",
    "coverage_masks_built",
    "coverage_mask_hits",
    "mincov_nodes",
)


def hf_layer_counts(counters) -> Dict[str, float]:
    """hf.* per-layer counts, with their rates, summed over PerfCounters."""
    total = {k: sum(getattr(c, k) for c in counters) for k in HF_COUNTERS}
    lookups = total["coverage_masks_built"] + total["coverage_mask_hits"]
    return {
        "hf.supercube_calls": total["supercube_calls"],
        "hf.supercube_hit_rate": (
            total["supercube_cache_hits"] / total["supercube_calls"]
            if total["supercube_calls"] else 0.0
        ),
        "hf.expand_probes": total["expand_probes"],
        "hf.coverage_lookups": lookups,
        "hf.coverage_hit_rate": (
            total["coverage_mask_hits"] / lookups if lookups else 0.0
        ),
        "hf.mincov_nodes": total["mincov_nodes"],
    }


@dataclass
class Measurement:
    """Everything one run measured, before it is shaped into the result."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]


def measure(workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set up, run, check and measure one workload.

    The untraced loop gives the end-to-end metrics; with ``trace`` a
    second, traced loop follows and gives the per-layer metrics.  Times
    are calibrated against the reference-loop samples taken before,
    between and after the set-ups and the untraced loop.
    """
    from repro.obs import Tracer, write_chrome_trace

    OUT_DIR.mkdir(exist_ok=True)
    clock = CLOCKS[workload.clock]
    calibration = Calibration(clock, enabled=workload.clock == "cpu")
    # the traced loop interleaves reference samples the same way, so the
    # two loops differ only in tracing
    traced_calibration = Calibration(clock, enabled=workload.clock == "cpu")
    setup_times: List[float] = []
    state = None
    try:
        calibration.sample(CALIBRATION_EDGE_SAMPLES)
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            t0 = clock()
            state = workload.setup(seed, seconds * (2 if trace else 1))
            setup_times.append(clock() - t0)
            calibration.sample()
        # The set-up's objects are the benchmark's, not the program's:
        # keep the collector from scanning them inside the timed loop.
        gc.collect()
        gc.freeze()
        loops = [workload.loop(state, seconds, Loop(Spans(), clock, calibration))]
        calibration.sample(CALIBRATION_EDGE_SAMPLES)
        calibration.close()
        factor = calibration.factor
        if trace:
            tracer = Tracer()
            loops.append(workload.loop(
                state, seconds, Loop(Spans(tracer), clock, traced_calibration)
            ))
            traced_calibration.close()
            trace_path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
            write_chrome_trace(str(trace_path), tracer)
            print(f"# chrome trace: {trace_path.relative_to(ROOT)}")
        failures: List[str] = []
        for loop in loops:
            failures.extend(loop.errors)
            failures.extend(workload.check(state, loop))
    finally:
        calibration.close()
        traced_calibration.close()
        gc.unfreeze()
        if state is not None:
            workload.teardown(state)
    end_to_end, per_layer = workload.metrics(state, loops)

    attempted = sum(loop.attempted for loop in loops)
    for line in failures[:20]:
        print(f"# FAILED: {line}")
    for i, loop in enumerate(loops):
        p90 = quantile(loop.latencies_s, 0.90)
        print(
            f"# {'traced' if i else 'untraced'} loop: {loop.attempted} items, "
            f"{len(loop.latencies_s)} latency samples "
            f"({sum(1 for s in loop.latencies_s if s > p90)} beyond p90), "
            f"{loop.passes} passes, {loop.timed_s:.3f}s timed of {loop.elapsed_s:.3f}s"
        )
    print(f"# setup_s samples ({workload.clock} clock): "
          f"{[round(t, 4) for t in setup_times]}")
    print(f"# calibration: {calibration.describe()}; "
          f"uncalibrated throughput {loops[0].throughput_per_s:.4f}/s")

    end_to_end["setup_s"] = statistics.median(setup_times) * factor
    end_to_end["throughput_per_s"] = loops[0].throughput_per_s / factor
    end_to_end["success_rate"] = 1.0 - len(failures) / max(1, attempted)
    end_to_end["latency_p50_ms"] = loops[0].latency_ms(0.50) * factor
    end_to_end["latency_p90_ms"] = loops[0].latency_ms(0.90) * factor
    if trace:
        per_layer["tracing_overhead_per_s"] = (
            loops[1].throughput_per_s / traced_calibration.factor
            - loops[0].throughput_per_s / factor
        )
    return Measurement(attempted, len(failures), end_to_end, per_layer)


def result(m: Measurement, trace: bool) -> Dict[str, Any]:
    """The JSON result: end-to-end metrics, or per-layer ones when traced."""
    want_e2e, want_layer = declared_metrics()
    if trace:
        # Layers off this workload's path did no work: they read 0.
        units = want_layer
        values = {name: m.per_layer.get(name, 0.0) for name in units}
        for name in sorted(set(m.per_layer) - set(units)):
            print(f"# {name}: {m.per_layer[name]}")
    else:
        units = want_e2e
        missing = sorted(set(units) - set(m.end_to_end))
        if missing:
            raise RuntimeError(f"no value for end-to-end metrics {missing}")
        values = m.end_to_end
        # Per-item latency quantiles are not end-to-end metrics of the
        # batch workloads: they print as notes.
        for name in sorted(set(m.end_to_end) - set(units)):
            print(f"# {name}: {m.end_to_end[name]}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
