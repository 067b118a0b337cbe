"""Persistent-worker executor against the frozen single-shot executors.

:mod:`repro.guard.executor` replaced a fresh process per task with up to
``jobs`` long-lived workers.  The contract: every row and every
:class:`~repro.corpus.ExecutorStats` count is identical to what the
single-shot loops (frozen in ``tests/executor_ref.py``) returned — up to
wall-clock fields — across corpora, job counts, crash, retry and timeout
paths, and per-task faults never leak into the next task on a worker.
No worker outlives the call that started it.
"""

import multiprocessing
import os

import pytest

from repro.bm.benchmarks import BENCHMARKS
from repro.corpus import differential_payload, generate_corpus
from repro.corpus.executor import ShardExecutor, run_corpus
from repro.guard.runner import benchmark_payload, run_one, run_pool

from tests import executor_ref


def _corpus_payloads(seed, count=10, **kw):
    return [
        differential_payload(
            i.name, i.pla_text, stratum=i.stratum, solvable=i.solvable, **kw
        )
        for i in generate_corpus(seed=seed, count=count)
    ]


def _normalize(value):
    """Drop wall/CPU time fields and timing-histogram buckets; keep
    bundle file names (content-addressed) but not their directory."""
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if not isinstance(value, dict):
        return value
    if value.get("kind") == "histogram":
        return {k: value[k] for k in ("kind", "boundaries", "count")}
    out = {}
    for key, item in value.items():
        if key.endswith(("_s", "seconds")):
            continue
        if key == "bundle_path" and item:
            item = os.path.basename(item)
        out[key] = _normalize(item)
    return out


def _stats(stats):
    return {k: v for k, v in stats.as_dict().items() if k != "wall_s"}


def _run_both(payloads, **kw):
    new_rows, new_stats = ShardExecutor(**kw).run(payloads)
    assert multiprocessing.active_children() == []
    ref_rows, ref_stats = executor_ref.ShardExecutorRef(**kw).run(payloads)
    assert _normalize(new_rows) == _normalize(ref_rows)
    assert _stats(new_stats) == _stats(ref_stats)
    return new_rows, new_stats


class TestShardExecutorMatchesReference:
    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_generated_corpus(self, seed, jobs):
        rows, stats = _run_both(_corpus_payloads(seed), jobs=jobs, timeout_s=120)
        assert stats.executed == len(rows) == 10
        assert all(r.get("verdict") for r in rows)

    def test_seeded_kill_prob_mix_crashes_the_same_tasks(self):
        payloads = _corpus_payloads(21, count=12, timeout_s=120)
        for p in payloads:
            p["inject"] = {"kill_prob": 0.35, "seed": 5}
        rows, stats = _run_both(payloads, jobs=2, retries=0)
        crashed = {r["name"] for r in rows if r["status"] == "worker_crashed"}
        assert 0 < len(crashed) < len(payloads)
        assert stats.worker_crashes == len(crashed)
        assert all(r["signal"] == "SIGKILL" for r in rows if r["name"] in crashed)

    def test_kill_attempts_retry_paths(self):
        payloads = _corpus_payloads(22, count=6, timeout_s=120)
        payloads[1]["inject"] = {"kill_attempts": [0]}  # survives its retry
        payloads[4]["inject"] = {"kill_attempts": [0, 1]}  # dies twice
        rows, stats = _run_both(payloads, jobs=2, retries=1)
        assert stats.retries == 2 and stats.worker_crashes == 1
        assert rows[1].get("verdict") is not None
        assert rows[4]["status"] == "worker_crashed"

    def test_sleep_timeouts_with_bundle_dir(self, tmp_path):
        payloads = _corpus_payloads(21, count=4)
        for i in (0, 2):
            payloads[i]["inject"] = {"sleep_s": 30.0}
            payloads[i]["timeout_s"] = 0.4
        new_rows, new_stats = ShardExecutor(
            jobs=2, timeout_s=120, bundle_dir=str(tmp_path / "new")
        ).run(payloads)
        ref_rows, ref_stats = executor_ref.ShardExecutorRef(
            jobs=2, timeout_s=120, bundle_dir=str(tmp_path / "ref")
        ).run(payloads)
        assert multiprocessing.active_children() == []
        assert _normalize(new_rows) == _normalize(ref_rows)
        assert _stats(new_stats) == _stats(ref_stats)
        assert new_stats.timeouts == 2
        for i in (0, 2):
            assert new_rows[i]["status"] == "timeout"
            assert os.path.exists(new_rows[i]["bundle_path"])

    @pytest.mark.parametrize(
        "inject",
        [
            {"raise": "boom"},
            {"raise": "malformed"},
            {"defect": "essentials_mistag"},
            {"defect": "make_prime_off"},
        ],
    )
    def test_per_task_faults_do_not_leak_into_the_next_task(self, inject):
        # jobs=1: every task runs on the same worker, right after the fault
        faulty = benchmark_payload("dram-ctrl")
        faulty["inject"] = inject
        payloads = [faulty] + [
            dict(benchmark_payload(name), task_id=f"clean-{name}")
            for name in ("dram-ctrl", "pscsi-ircv", "stetson-p3")
        ]
        rows, _ = _run_both(payloads, jobs=1, timeout_s=120)
        assert rows[0]["status"] != "ok"
        assert [r["status"] for r in rows[1:]] == ["ok", "ok", "ok"]


class TestRunnerMatchesReference:
    def test_benchmark_suite_through_run_pool(self):
        payloads = [benchmark_payload(b.name) for b in BENCHMARKS]
        new = run_pool(payloads, jobs=2, timeout_s=120)
        assert multiprocessing.active_children() == []
        ref = executor_ref.run_pool(payloads, jobs=2, timeout_s=120)
        assert _normalize(new) == _normalize(ref)
        assert all(r["status"] == "ok" for r in new)

    @pytest.mark.parametrize(
        "inject",
        [None, {"kill": True}, {"raise": "boom"}, {"sleep_s": 30.0}],
    )
    def test_run_one(self, inject, tmp_path):
        payload = benchmark_payload("pscsi-ircv", timeout_s=0.4 if inject else 60)
        if inject:
            payload["inject"] = inject
        new = run_one(payload, bundle_dir=str(tmp_path / "new"))
        assert multiprocessing.active_children() == []
        ref = executor_ref.run_one(payload, bundle_dir=str(tmp_path / "ref"))
        assert _normalize(new) == _normalize(ref)


class TestWorkerLifetime:
    def test_sigkill_never_leaves_more_than_jobs_live_workers(self):
        jobs = 2
        seen = []

        def on_row(_tid, _row):
            seen.append(len(multiprocessing.active_children()))

        payloads = _corpus_payloads(22, count=12, timeout_s=120)
        for p in payloads[::3]:
            p["inject"] = {"kill": True}
        rows, stats = run_corpus(payloads, jobs=jobs, retries=0, on_row=on_row)
        assert stats.worker_crashes == 4
        assert len(seen) == 12 and max(seen) <= jobs
        assert multiprocessing.active_children() == []

    def test_workers_are_reused_across_tasks(self):
        pids = set()

        def on_row(_tid, _row):
            pids.update(p.pid for p in multiprocessing.active_children())

        _, stats = run_corpus(_corpus_payloads(21, count=10), jobs=2, on_row=on_row)
        assert stats.executed == 10
        assert 1 <= len(pids) <= 2
        assert multiprocessing.active_children() == []

    def test_worker_dead_while_idle_blames_no_task(self):
        killed = []

        def on_row(_tid, _row):
            # jobs=1: the only child now is the idle worker that just
            # reported; kill it before the next task is dispatched
            if not killed:
                for proc in multiprocessing.active_children():
                    proc.kill()
                    proc.join()
                    killed.append(proc.pid)

        payloads = _corpus_payloads(21, count=3, timeout_s=120)
        rows, stats = run_corpus(payloads, jobs=1, retries=0, on_row=on_row)
        assert len(killed) == 1
        assert stats.worker_crashes == 0
        assert all(r.get("verdict") for r in rows)

    def test_exception_in_settle_still_joins_every_worker(self):
        def on_row(_tid, _row):
            raise RuntimeError("caller bug")

        with pytest.raises(RuntimeError, match="caller bug"):
            run_corpus(_corpus_payloads(21, count=4), jobs=2, on_row=on_row)
        assert multiprocessing.active_children() == []
