"""The one crash-isolated executor: persistent workers, exact blame.

:func:`repro.guard.runner.run_one`, ``run_batch`` and ``run_pool``,
:class:`repro.corpus.executor.ShardExecutor` and
:func:`~repro.corpus.executor.run_task_isolated` are thin layers over
:func:`run_jobs`.  A call keeps up to ``jobs`` long-lived workers, each
with at most one job in flight, so a worker that dies blames exactly that
job (``worker_crashed`` row, replacement on the next assignment).  The
parent blocks on the workers' pipes and sentinels with the nearest
deadline as timeout; an overrunning worker is terminated (``timeout``
row).  Every worker is joined before the call returns, so none outlives
it and all worker CPU time lands in the caller's ``RUSAGE_CHILDREN``.
See docs/CORPUS.md, "Persistent workers".
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple


def _minimize_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.guard.runner import minimize_payload

    return minimize_payload(payload)


def _differential_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.corpus.differential import run_differential_payload

    return run_differential_payload(payload)


#: payload["worker"] -> in-process body; every body returns a structured
#: row and never raises (the isolation boundary catches what slips)
WORKERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "minimize": _minimize_worker,
    "differential": _differential_worker,
}


def resolve_worker(payload: Dict[str, Any]) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    name = payload.get("worker", "minimize")
    worker = WORKERS.get(name)
    if worker is None:
        raise ValueError(
            f"unknown worker {name!r}; known: {sorted(WORKERS)}"
        )
    return worker


def _worker_main(conn) -> None:  # pragma: no cover - runs in the worker
    """Worker loop: one payload in, one row out, until ``None`` or EOF."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        try:
            row = resolve_worker(payload)(payload)
        except BaseException as exc:  # noqa: BLE001 - last-resort isolation
            from repro.guard.bundle import describe_exception

            row = {
                "name": payload.get("name", "instance"),
                "status": "crash",
                "error": describe_exception(exc),
                "bundle_path": None,
            }
        try:
            conn.send(row)
        except Exception:  # noqa: BLE001 - parent reports worker_crashed
            return


# ----------------------------------------------------------------------
# Rows the executor writes itself
# ----------------------------------------------------------------------


def worker_crashed_row(
    name: str, exitcode: Optional[int], elapsed_s: float
) -> Dict[str, Any]:
    """Structured row for a worker that died without reporting a result.

    Mirrors :class:`repro.guard.errors.WorkerCrashed`: the raw exit code,
    the decoded signal name (negative exit codes are deaths-by-signal),
    and a status supervisors can key their retry logic off.
    """
    from repro.guard.errors import signal_name

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


def _timeout_bundle(payload: Dict[str, Any], timeout: float) -> Optional[str]:
    """Preserve a timed-out work item's input as a (non-shrunk) bundle."""
    bundle_dir = payload.get("bundle_dir")
    if not bundle_dir:
        return None
    try:
        from repro.guard.bundle import options_from_dict, write_bundle
        from repro.guard.runner import _build_instance

        return write_bundle(
            _build_instance(payload),
            failure_kind="timeout",
            failure_message=f"exceeded per-circuit timeout of {timeout:g}s",
            options=options_from_dict(payload.get("options", {})),
            bundle_dir=bundle_dir,
        )
    except Exception:  # noqa: BLE001 - bundling best-effort on timeout
        return None


def timeout_row(
    payload: Dict[str, Any], timeout: float, elapsed_s: float, unit: str
) -> Dict[str, Any]:
    """Structured row for a job terminated at its wall-clock deadline."""
    return {
        "name": payload.get("name", "instance"),
        "status": "timeout",
        "time_s": round(elapsed_s, 6),
        "error": f"exceeded per-{unit} timeout of {timeout:g}s",
        "bundle_path": _timeout_bundle(payload, timeout),
    }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class _Worker:
    """One long-lived worker process and the job it runs, if any."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.payload: Optional[Dict[str, Any]] = None
        self.timeout: Optional[float] = None
        self.t0 = 0.0

    @property
    def deadline(self) -> Optional[float]:
        return None if self.timeout is None else self.t0 + self.timeout

    def dispatch(self, payload: Dict[str, Any], timeout: Optional[float]) -> None:
        self.payload = payload
        self.timeout = timeout
        self.t0 = time.perf_counter()
        try:
            self.conn.send(payload)
        except OSError:
            pass  # the worker is gone; its sentinel reports the death

    def receive(self) -> Optional[Dict[str, Any]]:
        """The job's row, or ``None`` when the worker died without one."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def reap(self) -> None:
        """Join an exited (or exiting) worker and close its pipe."""
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - defensive cleanup
            self.proc.terminate()
            self.proc.join()
        self.conn.close()

    def kill(self) -> None:
        self.proc.terminate()
        self.reap()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.reap()


def _take_worker(idle: List[_Worker], ctx) -> _Worker:
    """A live idle worker, else a fresh one (a worker dead while idle is
    reaped here, so its death never blames a job)."""
    while idle:
        worker = idle.pop()
        if worker.proc.is_alive():
            return worker
        worker.reap()
    return _Worker(ctx)


def run_jobs(
    pending: Deque[Tuple[Hashable, Dict[str, Any]]],
    jobs: int,
    settle: Callable[[Hashable, Dict[str, Any], Dict[str, Any]], None],
    timeout_s: Optional[float] = None,
    unit: str = "circuit",
) -> None:
    """Run every ``(key, payload)`` in ``pending`` on up to ``jobs`` workers.

    ``settle(key, payload, row)`` is called once per finished job, in
    completion order; it may append to ``pending`` (a retry), and the
    call runs until ``pending`` is drained and no job is in flight.  A
    ``timeout_s`` payload key overrides the argument per job; ``unit``
    names the work item in timeout messages.
    """
    ctx = multiprocessing.get_context()
    jobs = max(1, int(jobs))
    idle: List[_Worker] = []
    running: Dict[Hashable, _Worker] = {}  # job -> worker
    try:
        while pending or running:
            while pending and len(running) < jobs:
                key, payload = pending.popleft()
                worker = _take_worker(idle, ctx)
                worker.dispatch(payload, payload.get("timeout_s") or timeout_s)
                running[key] = worker
            deadlines = [
                w.deadline for w in running.values() if w.deadline is not None
            ]
            ready = wait(
                [w.conn for w in running.values()]
                + [w.proc.sentinel for w in running.values()],
                None
                if not deadlines
                else max(0.0, min(deadlines) - time.perf_counter()),
            )
            for key, worker in list(running.items()):
                now = time.perf_counter()
                if worker.conn in ready or worker.proc.sentinel in ready:
                    row = worker.receive()
                    if row is None:
                        worker.reap()
                        row = worker_crashed_row(
                            worker.payload.get("name", "instance"),
                            worker.proc.exitcode,
                            now - worker.t0,
                        )
                    else:
                        idle.append(worker)
                elif worker.deadline is not None and now >= worker.deadline:
                    worker.kill()
                    row = timeout_row(
                        worker.payload, worker.timeout, now - worker.t0, unit
                    )
                else:
                    continue
                del running[key]
                row.setdefault("time_s", round(time.perf_counter() - worker.t0, 6))
                settle(key, worker.payload, row)
    finally:
        for worker in running.values():
            worker.kill()
        for worker in idle:
            worker.shutdown()


def run_payloads(
    payloads: List[Dict[str, Any]],
    jobs: int,
    timeout_s: Optional[float] = None,
    unit: str = "circuit",
) -> List[Dict[str, Any]]:
    """One isolated row per payload, in payload order (no retries)."""
    rows: List[Dict[str, Any]] = [{} for _ in payloads]

    def settle(idx, _payload, row):
        rows[idx] = row

    run_jobs(deque(enumerate(payloads)), jobs, settle, timeout_s, unit)
    return rows
