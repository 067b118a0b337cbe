"""``corpus-differential``: generated instances through the shard executor.

Each task runs the ``differential`` worker (Espresso-HF, the exact
minimizer, and a Theorem 2.11 re-verify) in its own crash-isolated
process, two slots at a time (``run_corpus(jobs=2)``).  Tasks are tiny, so
the executor's per-task process cost is most of a task's latency.

The instance set is a fixed draw from ``DEFAULT_STRATA`` (corpus seed
:data:`CORPUS_SEED`), so its exact counts (cover sizes, exact-match rate)
are the same on every run; the run's seed shuffles the order in which the
tasks enter the executor's shared queue.  The loop repeats whole passes
over the set until the run's time is up.  A pass is timed in CPU seconds
of the benchmark and of the task processes it waited for, so time the
two slots spend waiting on a shared machine does not count.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from harness import Loop, hf_layer_counts, peak_rss_mb

#: corpus seed of the pinned instance set, and its size
CORPUS_SEED = 11
CORPUS_COUNT = 150
JOBS = 2


class CorpusDifferential:
    name = "corpus-differential"
    #: CPU seconds of the benchmark and of the task processes it waited
    #: for: process start-up, Espresso-HF, exact and verify, per task
    clock = "cpu"

    def setup(self, seed: int, timed_s: float) -> Dict[str, Any]:
        from repro.corpus.differential import differential_payload
        from repro.corpus.generator import generate_corpus

        corpus = generate_corpus(CORPUS_SEED, CORPUS_COUNT)
        payloads = [
            differential_payload(ci.name, ci.pla_text, ci.stratum, ci.solvable)
            for ci in corpus
        ]
        random.Random(seed).shuffle(payloads)
        return {"corpus": corpus, "payloads": payloads}

    def teardown(self, state) -> None:
        pass

    def loop(self, state, seconds: float, loop: Loop) -> Loop:
        from repro.corpus.executor import run_corpus

        spans = loop.spans
        on_row = None
        if spans.tracer is not None:
            def on_row(tid, row):
                spans.adopt_task("corpus.task", row.get("time_s", 0.0),
                                 trace_id=tid, verdict=row.get("verdict"))
        busy = {"hf": 0.0, "exact": 0.0, "retries": 0, "timeouts": 0, "crashes": 0}
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            loop.calibrate()
            loop.begin_pass()
            with spans.layer("corpus.run_corpus", trace_id=f"pass{loop.passes}"):
                rows, stats = run_corpus(state["payloads"], jobs=JOBS, on_row=on_row)
            for row in rows:
                if row.get("status") != "ok":
                    loop.errors.append(f"{row.get('name')}: status {row.get('status')}")
                    continue
                loop.latencies_s.append(row["time_s"])
                loop.outputs.append({
                    "pass_index": loop.passes,
                    **{k: row.get(k) for k in ("name", "verdict", "explained", "hf_cubes")},
                })
                busy["hf"] += row.get("hf_time_s") or 0.0
                busy["exact"] += row.get("exact_time_s") or 0.0
            busy["retries"] += stats.retries
            busy["timeouts"] += stats.timeouts
            busy["crashes"] += stats.worker_crashes
            loop.end_pass()
        loop.elapsed_s = time.perf_counter() - t_start
        # read before the reference-loop process is waited for and joins
        # the children's figures
        busy["peak_rss_mb"] = peak_rss_mb("children")
        loop.extra.update(busy)
        return loop

    def _reference(self, state) -> Dict[str, Any]:
        """In-process Espresso-HF over the set, once per run (not timed)."""
        if "reference" not in state:
            from repro.hf import espresso_hf
            from repro.pla import parse_pla

            ref = {}
            for ci in state["corpus"]:
                if ci.solvable:
                    instance = parse_pla(ci.pla_text, name=ci.name).to_instance()
                    ref[ci.name] = espresso_hf(instance)
            state["reference"] = ref
        return state["reference"]

    def check(self, state, loop: Loop) -> List[str]:
        from repro.corpus.differential import UNEXPLAINED_VERDICTS

        reference = self._reference(state)
        failures = []
        for row in loop.outputs:
            name = row["name"]
            if row["verdict"] in UNEXPLAINED_VERDICTS or not row.get("explained"):
                failures.append(f"{name}: unexplained verdict {row['verdict']}")
            elif name in reference and row.get("hf_cubes") != reference[name].num_cubes:
                failures.append(
                    f"{name}: isolated worker gave {row.get('hf_cubes')} cubes, "
                    f"in-process run {reference[name].num_cubes}"
                )
        return failures

    def metrics(self, state, loops: List[Loop]):
        reference = self._reference(state)
        covers = [r.cover for r in reference.values()]
        end_to_end = {
            "cover_cubes": sum(len(c) for c in covers),
            "cover_literals": sum(c.num_literals() for c in covers),
            "peak_rss_mb": loops[0].extra["peak_rss_mb"],
        }
        per_layer = hf_layer_counts([r.counters for r in reference.values()])
        first = [r for r in loops[0].outputs if r["pass_index"] == 0]
        solvable = sum(1 for ci in state["corpus"] if ci.solvable)
        per_layer["corpus.solvable_instances"] = solvable
        per_layer["corpus.exact_match_rate"] = (
            sum(1 for r in first if r["verdict"] == "exact_match") / max(1, solvable)
        )
        if len(loops) > 1:
            traced = loops[1]
            tasks = len(traced.latencies_s)
            passes = max(1, traced.passes)
            worker_s = traced.extra["hf"] + traced.extra["exact"]
            per_layer.update({
                "executor.task_overhead_ms": (
                    (JOBS * traced.elapsed_s - worker_s) / max(1, tasks) * 1e3
                ),
                "executor.retries": traced.extra["retries"],
                "executor.timeouts": traced.extra["timeouts"],
                "executor.worker_crashes": traced.extra["crashes"],
                "exact.busy_s": traced.extra["exact"] / passes,
                "hf.worker_busy_s": traced.extra["hf"] / passes,
            })
        return end_to_end, per_layer
