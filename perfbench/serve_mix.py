"""``serve-mix``: a seeded request mix against an out-of-process daemon.

The daemon is ``python -m repro.cli serve --port 0`` (what
``espresso-hf serve`` runs) in its own process, so the load generator
never contends for its interpreter lock.  One closed-loop client on one
connection sends the next request as soon as the previous reply arrives.
One, not two: two connections on a two-core machine made run-to-run
throughput spread wider than any bound the benchmark could hold (see
README.md).

Request classes, drawn per connection in seeded blocks so every run keeps
the same shares (:data:`MIX`):

``fresh``     an instance no one sent before (cache miss, worker run);
``resubmit``  the byte-identical text of a base instance (cache hit);
``rewrite``   a permutation x polarity rewrite of a base instance (a hit
              through the canonical key);
``edit``      a base instance with one transition dropped, sent with the
              base's ``warm_key`` and ``no_cache`` (warm-started run).

Set-up starts the daemon and primes it with the base set, asking for a
session per base instance.  The base set is a fixed corpus draw
(:data:`BASE_SEED`), so its cover sizes are exact counts; the run's seed
picks the fresh instances, the rewrites, the edits and the class order.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from harness import OUT_DIR, ROOT, Loop, cover_key, peak_rss_mb, quantile

WORKERS = 2
START_TIMEOUT_S = 60

#: class -> requests per block of 10.  Hits are 80%, so the p50 sits
#: inside the hit cluster and the p90 inside the worker-run cluster, never
#: on the edge between them.
MIX = (("fresh", 1), ("resubmit", 5), ("rewrite", 3), ("edit", 1))

BASE_SEED = 7
BASE_COUNT = 24
BASE_STRATA = ("small-sparse", "small-dense", "medium", "bm")
FRESH_STRATA = ("small-sparse", "small-dense", "medium")
#: never-sent texts prepared per timed second, about 1.5 times the rate
#: a run on two cores uses
FRESH_PER_SECOND = 40
REWRITES_PER_SECOND = 130


def _strata(names):
    from repro.corpus.generator import strata_by_name

    by_name = strata_by_name()
    return [by_name[n] for n in names]


class Stream:
    """Never-sent request texts, drawn ahead in set-up.

    ``draw()`` returns the next text of a deterministic sequence.  Set-up
    fills the stream for the run's expected rate; a run that outpaces it
    draws more on demand, before the request's clock starts.
    """

    def __init__(self, draw):
        self.draw = draw
        self.texts: List[str] = []
        self.prepared = 0
        self.used = 0

    def prepare(self, count: int) -> "Stream":
        while len(self.texts) < count:
            self.texts.append(self.draw())
        self.prepared = len(self.texts)
        return self

    def take(self) -> int:
        i = self.used
        self.used += 1
        while len(self.texts) <= i:
            self.texts.append(self.draw())
        return i


def _fresh_draw(seed: int, seen_keys: set):
    """Solvable corpus instances whose canonical key no one has sent."""
    from repro.corpus.generator import build_stratum_instance
    from repro.hazards.existence import hazard_free_solution_exists
    from repro.pla import format_pla
    from repro.serve.canon import canonical_instance_key

    strata = _strata(FRESH_STRATA)
    counter = iter(range(1 << 62))

    def draw() -> str:
        while True:
            i = next(counter)
            inst = build_stratum_instance(strata[i % len(strata)], seed, i // len(strata))
            if not hazard_free_solution_exists(inst):
                continue
            key = canonical_instance_key(inst)
            if key not in seen_keys:
                seen_keys.add(key)
                inst.name = f"fresh{len(seen_keys)}"
                return format_pla(inst)

    return draw


def _rewrite_draw(rng: random.Random, base: list):
    """Random input permutation x polarity flip of a random base instance."""
    from repro.pla import format_pla
    from repro.proptest.metamorphic import flip_instance, permute_instance

    def draw() -> str:
        inst = base[rng.randrange(len(base))]
        perm = list(range(inst.n_inputs))
        rng.shuffle(perm)
        mask = rng.randrange(1 << inst.n_inputs)
        return format_pla(permute_instance(flip_instance(inst, mask), perm))

    return draw


class Daemon:
    """``repro.cli serve`` in a child process."""

    def __init__(self, seed: int):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(WORKERS), "--seed", str(seed),
             "--bundle-dir", str(OUT_DIR / "bundles")],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        self.port = int(port)

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout_s=120.0)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def _schedule(rng: random.Random):
    """Endless class sequence: shuffled blocks with fixed shares."""
    block = [cls for cls, n in MIX for _ in range(n)]
    while True:
        rng.shuffle(block)
        yield from block


class ServeMix:
    name = "serve-mix"
    clock = "wall"

    def setup(self, seed: int, timed_s: float) -> Dict[str, Any]:
        from repro.corpus.generator import generate_corpus
        from repro.pla import format_pla, parse_pla
        from repro.proptest.metamorphic import subset_transitions_instance
        from repro.serve.canon import canonical_instance_key

        rng = random.Random(seed)
        base, keys = [], set()
        for ci in generate_corpus(BASE_SEED, 3 * BASE_COUNT, _strata(BASE_STRATA)):
            inst = parse_pla(ci.pla_text, name=ci.name).to_instance()
            if not ci.solvable or len(inst.transitions) < 2:
                continue
            key = canonical_instance_key(inst)
            if key not in keys:
                keys.add(key)
                base.append((ci.pla_text, inst))
            if len(base) == BASE_COUNT:
                break
        if len(base) < BASE_COUNT:
            raise RuntimeError(f"only {len(base)} eligible base instances")

        texts: Dict[Tuple, str] = {}
        edits: Dict[int, List[Tuple]] = {}
        for b, (text, inst) in enumerate(base):
            texts[("base", b)] = text
            edits[b] = []
            for t in range(len(inst.transitions)):
                keep = [i for i in range(len(inst.transitions)) if i != t]
                texts[("edit", b, t)] = format_pla(subset_transitions_instance(inst, keep))
                edits[b].append(("edit", b, t))
        streams = {
            "fresh": Stream(_fresh_draw(seed, keys)).prepare(
                int(FRESH_PER_SECOND * timed_s)),
            "rewrite": Stream(_rewrite_draw(rng, [inst for _, inst in base])).prepare(
                int(REWRITES_PER_SECOND * timed_s)),
        }

        daemon = Daemon(seed)
        warm_keys, primed = {}, {}
        try:
            with daemon.client() as client:
                for b in range(len(base)):
                    reply = client.minimize(texts[("base", b)], session=True)
                    if reply.get("status") != "ok" or not reply.get("warm_key"):
                        raise RuntimeError(f"priming base {b} failed: {reply}")
                    warm_keys[b] = reply["warm_key"]
                    primed[b] = parse_pla(reply["cover_pla"]).on
        except BaseException:
            daemon.stop()
            raise
        return {
            "seed": seed, "texts": texts, "edits": edits, "streams": streams,
            "daemon": daemon,
            "warm_keys": warm_keys, "primed": primed, "n_base": len(base),
            "loops": 0,
        }

    def teardown(self, state) -> None:
        state["daemon"].stop()

    def _pick(self, cls: str, rng: random.Random, state):
        """Choose one request of class ``cls``: (text id, text, options)."""
        if cls in state["streams"]:
            stream = state["streams"][cls]
            i = stream.take()
            return (cls, i), stream.texts[i], {}
        b = rng.randrange(state["n_base"])
        if cls == "resubmit":
            tid, options = ("base", b), {}
        else:
            tid = rng.choice(state["edits"][b])
            options = {"warm_key": state["warm_keys"][b], "no_cache": True}
        return tid, state["texts"][tid], options

    def loop(self, state, seconds: float, loop: Loop) -> Loop:
        state["loops"] += 1
        rng = random.Random(f"{state['seed']}:{state['loops']}")
        schedule = _schedule(rng)
        spans = loop.spans
        with state["daemon"].client() as client:
            before = client.stats()["stats"]["metrics"]
            t_start = time.perf_counter()
            while time.perf_counter() - t_start < seconds:
                cls = next(schedule)
                tid, text, options = self._pick(cls, rng, state)
                t0 = time.perf_counter()
                try:
                    with spans.layer("serve.request", trace_id=f"r{loop.attempted}", cls=cls):
                        reply = client.minimize(text, **options)
                except (OSError, ValueError) as exc:
                    reply = {"status": f"{type(exc).__name__}: {exc}"}
                done = time.perf_counter()
                if reply.get("status") != "ok":
                    loop.errors.append(f"{cls} {tid}: status {reply.get('status')}")
                    continue
                loop.latencies_s.append(done - t0)
                loop.outputs.append({
                    "cls": cls, "id": tid, "latency_s": done - t0,
                    "cached": reply.get("cached"), "cover_pla": reply.get("cover_pla"),
                })
            loop.elapsed_s = loop.timed_s = time.perf_counter() - t_start
            after = client.stats()["stats"]["metrics"]
        loop.extra.update(before=before, after=after)
        return loop

    def _text(self, state, tid) -> str:
        if tid[0] in state["streams"]:
            return state["streams"][tid[0]].texts[tid[1]]
        return state["texts"][tid]

    def check(self, state, loop: Loop) -> List[str]:
        """Theorem 2.11 on every served cover; direct submissions must
        also match the in-process cover of the same text."""
        from repro.hazards.verify import verify_hazard_free_cover
        from repro.hf import espresso_hf
        from repro.pla import parse_pla

        instances = state.setdefault("instances", {})
        reference = state.setdefault("reference", {})
        verdicts: Dict[Tuple, str] = {}
        failures = []
        for out in loop.outputs:
            tid, pla = out["id"], out["cover_pla"]
            if (tid, pla) not in verdicts:
                if tid not in instances:
                    instances[tid] = parse_pla(self._text(state, tid)).to_instance()
                inst = instances[tid]
                verdict = ""
                cover = parse_pla(pla).on if pla else None
                if cover is None:
                    verdict = "no cover served"
                elif verify_hazard_free_cover(inst, cover):
                    verdict = "served cover fails Theorem 2.11"
                elif tid[0] != "rewrite":
                    if tid not in reference:
                        reference[tid] = cover_key(espresso_hf(inst).cover)
                    if cover_key(cover) != reference[tid]:
                        verdict = "served cover differs from the in-process cover"
                verdicts[(tid, pla)] = verdict
            if verdicts[(tid, pla)]:
                failures.append(f"{out['cls']} {tid}: {verdicts[(tid, pla)]}")
        return failures

    def metrics(self, state, loops: List[Loop]):
        from repro.obs import histogram_quantile

        primed = state["primed"].values()
        end_to_end = {
            "cover_cubes": sum(len(c) for c in primed),
            "cover_literals": sum(c.num_literals() for c in primed),
            # the daemon and its workers, all exited and waited for by now
            "peak_rss_mb": peak_rss_mb("children"),
        }
        for i, loop in enumerate(loops):
            counts = {cls: 0 for cls, _ in MIX}
            for out in loop.outputs:
                counts[out["cls"]] += 1
            total = max(1, len(loop.outputs))
            print(f"# {'traced' if i else 'untraced'} class shares: " + ", ".join(
                f"{cls} {n / total:.3f} ({n})" for cls, n in counts.items()))
        for cls, stream in state["streams"].items():
            print(f"# {cls} texts: {stream.prepared} prepared in set-up, {stream.used} used")
        if len(loops) == 1:
            return end_to_end, {}
        traced = loops[1]
        before, after = traced.extra["before"], traced.extra["after"]

        def delta(name: str) -> float:
            return after.get(name, {}).get("value", 0) - before.get(name, {}).get("value", 0)

        wait = after.get("serve.queue_wait_seconds")
        if wait is not None and "serve.queue_wait_seconds" in before:
            old = before["serve.queue_wait_seconds"]
            wait = dict(wait, count=wait["count"] - old["count"],
                        counts=[a - b for a, b in zip(wait["counts"], old["counts"])])
        wait_p90 = histogram_quantile(wait, 0.9) if wait else None
        requests = len(traced.outputs)
        hits = [o["latency_s"] * 1e3 for o in traced.outputs if o["cached"]]
        misses = [o["latency_s"] * 1e3 for o in traced.outputs if o["cls"] == "fresh"]
        per_layer = {
            "serve.requests": requests,
            "serve.cache_hit_rate": delta("serve.cache_hits") / max(1, requests),
            "serve.canon_memo_hits": delta("serve.canon_memo_hits"),
            "serve.hit_latency_p50_ms": quantile(hits, 0.5),
            "serve.miss_latency_p50_ms": quantile(misses, 0.5),
            "serve.queue_wait_p90_ms": (wait_p90 or 0.0) * 1e3,
            "serve.shed": sum(delta(f"serve.shed_{k}") for k in ("queue", "wait", "oversized")),
            "serve.retries": delta("serve.retries"),
            "serve.worker_crashes": delta("serve.worker_crashes"),
            "session.edit_requests": sum(1 for o in traced.outputs if o["cls"] == "edit"),
            "session.warm_hits": delta("warmstart.hits"),
            "session.fallbacks": delta("warmstart.fallbacks"),
        }
        return end_to_end, per_layer
