"""Reference executors: the single-shot loops the persistent executor replaced.

Before :mod:`repro.guard.executor`, every isolated run forked a fresh
process per task and polled a result queue every 10 ms.  That code lived
in four places; the three the rest collapse onto are frozen here
verbatim — ``ShardExecutor.run`` (with its ``_poll_slot``/``_finish``),
``run_pool`` and ``run_one`` — together with their private helpers
(the two ``_child_main`` entry points, the timeout bundle and the
worker-crashed row).  They are a differential oracle: the persistent
executor must return identical rows and :class:`ExecutorStats` counts,
up to wall-clock fields (``tests/test_executor_persistent.py``).
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.corpus.executor import ExecutorStats, ShardExecutor, task_id
from repro.guard.bundle import describe_exception, options_from_dict, write_bundle
from repro.guard.errors import signal_name
from repro.guard.executor import resolve_worker
from repro.guard.runner import _build_instance, minimize_payload


def _worker_crashed_row(
    name: str, exitcode: Optional[int], elapsed_s: float
) -> Dict[str, Any]:
    sig = signal_name(exitcode)
    detail = f"signal {sig}" if sig else f"exit code {exitcode}"
    return {
        "name": name,
        "status": "worker_crashed",
        "time_s": round(elapsed_s, 6),
        "error": f"worker died without reporting ({detail})",
        "exitcode": exitcode,
        "signal": sig,
        "bundle_path": None,
    }


def _timeout_bundle(
    payload: Dict[str, Any], bundle_dir: Optional[str], timeout: float
) -> Optional[str]:
    if not bundle_dir:
        return None
    try:
        instance = _build_instance(payload)
        return write_bundle(
            instance,
            failure_kind="timeout",
            failure_message=f"exceeded per-circuit timeout of {timeout:g}s",
            options=options_from_dict(payload.get("options", {})),
            bundle_dir=bundle_dir,
        )
    except Exception:  # noqa: BLE001 - bundling best-effort on timeout
        return None


# ----------------------------------------------------------------------
# repro.guard.runner: run_one / run_pool
# ----------------------------------------------------------------------


def _runner_child_main(payload: Dict[str, Any], out_queue) -> None:  # pragma: no cover
    try:
        row = minimize_payload(payload)
    except BaseException as exc:  # noqa: BLE001 - last-resort isolation
        row = {
            "name": payload.get("name", "instance"),
            "status": "crash",
            "error": describe_exception(exc),
            "bundle_path": None,
        }
    try:
        out_queue.put(row)
    except Exception:  # noqa: BLE001 - parent will report a crash
        pass


def run_one(
    payload: Dict[str, Any],
    timeout_s: Optional[float] = None,
    bundle_dir: Optional[str] = None,
) -> Dict[str, Any]:
    timeout = payload.get("timeout_s") or timeout_s
    if bundle_dir:
        payload = dict(payload, bundle_dir=bundle_dir)
    name = payload.get("name", "instance")
    ctx = multiprocessing.get_context()
    out_queue = ctx.Queue()
    proc = ctx.Process(
        target=_runner_child_main, args=(payload, out_queue), daemon=True
    )
    t0 = time.perf_counter()
    proc.start()
    deadline = None if timeout is None else t0 + timeout
    row: Optional[Dict[str, Any]] = None
    while row is None:
        try:
            row = out_queue.get(timeout=0.05)
        except queue_mod.Empty:
            if deadline is not None and time.perf_counter() >= deadline:
                proc.terminate()
                proc.join()
                row = {
                    "name": name,
                    "status": "timeout",
                    "time_s": round(time.perf_counter() - t0, 6),
                    "error": f"exceeded per-circuit timeout of {timeout:g}s",
                    "bundle_path": _timeout_bundle(payload, bundle_dir, timeout),
                }
                break
            if not proc.is_alive():
                try:
                    row = out_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    row = _worker_crashed_row(
                        name, proc.exitcode, time.perf_counter() - t0
                    )
                break
    proc.join(timeout=1.0)
    if proc.is_alive():  # pragma: no cover - defensive cleanup
        proc.terminate()
        proc.join()
    row.setdefault("time_s", round(time.perf_counter() - t0, 6))
    return row


def run_pool(
    payloads: List[Dict[str, Any]],
    jobs: int,
    bundle_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
) -> List[Dict[str, Any]]:
    if bundle_dir:
        payloads = [dict(p, bundle_dir=bundle_dir) for p in payloads]
    jobs = min(int(jobs), len(payloads))
    if jobs <= 1:
        return [minimize_payload(p) for p in payloads]
    ctx = multiprocessing.get_context()
    rows: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    active: Dict[int, Any] = {}  # idx -> (proc, queue, t0, deadline)
    next_idx = 0
    while active or next_idx < len(payloads):
        while next_idx < len(payloads) and len(active) < jobs:
            payload = payloads[next_idx]
            out_queue = ctx.Queue()
            proc = ctx.Process(
                target=_runner_child_main, args=(payload, out_queue), daemon=True
            )
            t0 = time.perf_counter()
            proc.start()
            timeout = payload.get("timeout_s") or timeout_s
            deadline = None if timeout is None else t0 + timeout
            active[next_idx] = (proc, out_queue, t0, deadline)
            next_idx += 1
        progressed = False
        for idx in list(active):
            proc, out_queue, t0, deadline = active[idx]
            row: Optional[Dict[str, Any]] = None
            try:
                row = out_queue.get_nowait()
            except queue_mod.Empty:
                now = time.perf_counter()
                if deadline is not None and now >= deadline:
                    proc.terminate()
                    proc.join()
                    timeout = deadline - t0
                    row = {
                        "name": payloads[idx].get("name", "instance"),
                        "status": "timeout",
                        "time_s": round(now - t0, 6),
                        "error": "exceeded per-circuit timeout of "
                        f"{timeout:g}s",
                        "bundle_path": _timeout_bundle(
                            payloads[idx],
                            payloads[idx].get("bundle_dir"),
                            timeout,
                        ),
                    }
                elif not proc.is_alive():
                    try:
                        row = out_queue.get(timeout=0.5)
                    except queue_mod.Empty:
                        row = _worker_crashed_row(
                            payloads[idx].get("name", "instance"),
                            proc.exitcode,
                            now - t0,
                        )
            if row is not None:
                row.setdefault("time_s", round(time.perf_counter() - t0, 6))
                rows[idx] = row
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - defensive cleanup
                    proc.terminate()
                    proc.join()
                del active[idx]
                progressed = True
        if not progressed and active:
            time.sleep(0.01)
    return rows


# ----------------------------------------------------------------------
# repro.corpus.executor: ShardExecutor.run
# ----------------------------------------------------------------------


def _shard_child_main(payload: Dict[str, Any], out_queue) -> None:  # pragma: no cover
    try:
        row = resolve_worker(payload)(payload)
    except BaseException as exc:  # noqa: BLE001 - last-resort isolation
        row = {
            "name": payload.get("name", "instance"),
            "status": "crash",
            "error": describe_exception(exc),
            "bundle_path": None,
        }
    try:
        out_queue.put(row)
    except Exception:  # noqa: BLE001 - parent will report worker_crashed
        pass


@dataclass
class _Slot:
    proc: Any
    queue: Any
    idx: int
    t0: float
    deadline: Optional[float]


class ShardExecutorRef(ShardExecutor):
    """:class:`ShardExecutor` with its single-shot ``run`` frozen."""

    def run(
        self, payloads: List[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], ExecutorStats]:
        t_start = time.perf_counter()
        stats = ExecutorStats(total=len(payloads))
        ids = [task_id(p) for p in payloads]
        if len(set(ids)) != len(ids):
            dupe = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate task id {dupe!r} in corpus payloads")
        if self.bundle_dir:
            payloads = [dict(p, bundle_dir=self.bundle_dir) for p in payloads]

        rows: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        done = self.checkpoint.load() if self.checkpoint else {}
        pending: deque[int] = deque()
        attempts: Dict[int, int] = {}
        for i, tid in enumerate(ids):
            if tid in done:
                row = dict(done[tid], from_checkpoint=True)
                rows[i] = row
                stats.from_checkpoint += 1
                if self.on_row:
                    self.on_row(tid, row)
            else:
                pending.append(i)
                attempts[i] = 0

        active: Dict[int, _Slot] = {}
        ctx = multiprocessing.get_context()
        try:
            while pending or active:
                while pending and len(active) < self.jobs:
                    idx = pending.popleft()
                    payload = dict(payloads[idx], attempt=attempts[idx])
                    out_queue = ctx.Queue()
                    proc = ctx.Process(
                        target=_shard_child_main,
                        args=(payload, out_queue),
                        daemon=True,
                    )
                    t0 = time.perf_counter()
                    proc.start()
                    timeout = payload.get("timeout_s") or self.timeout_s
                    active[idx] = _Slot(
                        proc=proc,
                        queue=out_queue,
                        idx=idx,
                        t0=t0,
                        deadline=None if timeout is None else t0 + timeout,
                    )
                progressed = False
                for idx in list(active):
                    slot = active[idx]
                    row = self._poll_slot(slot, payloads[idx])
                    if row is None:
                        continue
                    progressed = True
                    del active[idx]
                    if (
                        row.get("status") == "worker_crashed"
                        and attempts[idx] < self.retries
                    ):
                        attempts[idx] += 1
                        stats.retries += 1
                        pending.append(idx)
                        continue
                    self._finish(ids[idx], idx, row, rows, stats)
                if not progressed and active:
                    time.sleep(0.01)
        finally:
            for slot in active.values():  # pragma: no cover - interrupt path
                slot.proc.terminate()
                slot.proc.join()
            if self.checkpoint:
                self.checkpoint.close()
        stats.wall_s = time.perf_counter() - t_start
        return [r for r in rows if r is not None], stats

    def _poll_slot(
        self, slot: _Slot, payload: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        row: Optional[Dict[str, Any]] = None
        try:
            row = slot.queue.get_nowait()
        except queue_mod.Empty:
            now = time.perf_counter()
            if slot.deadline is not None and now >= slot.deadline:
                slot.proc.terminate()
                slot.proc.join()
                timeout = slot.deadline - slot.t0
                row = {
                    "name": payload.get("name", "instance"),
                    "status": "timeout",
                    "time_s": round(now - slot.t0, 6),
                    "error": f"exceeded per-instance timeout of {timeout:g}s",
                    "bundle_path": _timeout_bundle(
                        payload, payload.get("bundle_dir"), timeout
                    ),
                }
            elif not slot.proc.is_alive():
                try:
                    row = slot.queue.get(timeout=0.5)
                except queue_mod.Empty:
                    row = _worker_crashed_row(
                        payload.get("name", "instance"),
                        slot.proc.exitcode,
                        now - slot.t0,
                    )
        if row is not None:
            row.setdefault("time_s", round(time.perf_counter() - slot.t0, 6))
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():  # pragma: no cover - defensive cleanup
                slot.proc.terminate()
                slot.proc.join()
        return row

    def _finish(
        self,
        tid: str,
        idx: int,
        row: Dict[str, Any],
        rows: List[Optional[Dict[str, Any]]],
        stats: ExecutorStats,
    ) -> None:
        rows[idx] = row
        stats.executed += 1
        status = row.get("status")
        if status == "timeout":
            stats.timeouts += 1
        elif status == "worker_crashed":
            stats.worker_crashes += 1
        if self.checkpoint:
            self.checkpoint.append(tid, row)
        if self.on_row:
            self.on_row(tid, row)
