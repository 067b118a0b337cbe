"""The two Figure 8 workloads: the paper's 15 frozen burst-mode circuits.

``figure8-minimize`` runs the CLI's minimize path per circuit: parse ->
validate -> derive -> ``espresso_hf`` -> Theorem 2.11 verify.
``figure8-detect`` runs the "check my circuit" path per circuit: parse ->
validate -> ``detect_cover`` on the committed Espresso-HF cover ->
``transform_instance`` -> ``detect_cover`` on the ``u(f)`` cover.

Both are in-process closed loops with one client, timed in CPU seconds
of the benchmark's process, the measure the paper's Figure 8 reports.
The inputs are the committed PLAs; the seed shuffles the circuit order of
every pass.  Set-up
is what a fresh process pays before its first circuit: importing the
layers (timed in a fresh interpreter) and loading the inputs.  The
loop always finishes the pass it is in, so every pass covers all 15
circuits and per-pass sums (cover sizes, counters) are exact.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List

from harness import (
    HF_COUNTERS,
    ROOT,
    Loop,
    cover_key,
    hf_layer_counts,
    import_cold,
    peak_rss_mb,
)

PLA_DIR = ROOT / "data" / "benchmarks"
GOLDEN_PIPELINE = ROOT / "data" / "golden_pipeline.json"
GOLDEN_DETECT = ROOT / "data" / "golden_detect.json"


def _load_inputs() -> Dict[str, str]:
    texts = {p.stem: p.read_text() for p in sorted(PLA_DIR.glob("*.pla"))}
    if len(texts) != 15:
        raise RuntimeError(f"expected 15 PLAs under {PLA_DIR}, found {len(texts)}")
    return texts


def _pass_orders(names: List[str], seed: int):
    """Endless seeded sequence of circuit orders, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(names)
        rng.shuffle(order)
        yield order


def per_pass_seconds(loop: Loop, layers: Dict[str, str]) -> Dict[str, float]:
    """Traced self time of each layer, per pass over the input set."""
    spent = loop.spans.layer_seconds()
    return {metric: spent.get(span, 0.0) / max(1, loop.passes)
            for metric, span in layers.items()}


class Figure8Minimize:
    name = "figure8-minimize"
    clock = "cpu"

    #: per-layer time metric -> span name
    LAYERS = {
        "pla.parse_s": "pla.parse",
        "hazards.validate_s": "hazards.validate",
        "hazards.derive_s": "hazards.derive",
        "hf.minimize_s": "hf.minimize",
        "hazards.verify_s": "hazards.verify",
    }

    #: test seam: rewrites each emitted cover before it is recorded
    cover_fault = None

    def setup(self, seed: int, timed_s: float) -> Dict[str, Any]:
        import_cold(["repro.pla", "repro.hazards.verify", "repro.hf"])
        golden = json.loads(GOLDEN_PIPELINE.read_text())["circuits"]
        return {"texts": _load_inputs(), "golden": golden, "seed": seed}

    def teardown(self, state) -> None:
        pass

    def loop(self, state, seconds: float, loop: Loop) -> Loop:
        from repro.hazards.instance import HazardFreeInstance
        from repro.hazards.verify import verify_hazard_free_cover
        from repro.hf import espresso_hf
        from repro.pla import parse_pla

        texts = state["texts"]
        spans = loop.spans
        orders = _pass_orders(sorted(texts), state["seed"])
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            loop.begin_pass()
            for name in next(orders):
                trace_id = f"{loop.passes}:{name}"
                loop.calibrate()
                t0 = loop.clock()
                try:
                    with spans.layer("instance", trace_id=trace_id, circuit=name):
                        with spans.layer("pla.parse", trace_id=trace_id):
                            pla = parse_pla(texts[name], name=name)
                        with spans.layer("hazards.validate", trace_id=trace_id):
                            inst = HazardFreeInstance(
                                pla.on, pla.off, pla.transitions, name=name
                            )
                        with spans.layer("hazards.derive", trace_id=trace_id):
                            inst.required_cubes()
                            inst.privileged_cubes()
                        with spans.layer("hf.minimize", trace_id=trace_id):
                            result = espresso_hf(inst)
                        cover = result.cover
                        if self.cover_fault is not None:
                            cover = self.cover_fault(cover)
                        with spans.layer("hazards.verify", trace_id=trace_id):
                            violations = verify_hazard_free_cover(inst, cover)
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    loop.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                loop.latencies_s.append(loop.clock() - t0)
                loop.outputs.append({
                    "pass": loop.passes,
                    "name": name,
                    "status": result.status,
                    "cover": cover,
                    "violations": len(violations),
                    "counters": result.counters,
                })
            loop.end_pass()
        loop.elapsed_s = time.perf_counter() - t_start
        return loop

    def check(self, state, loop: Loop) -> List[str]:
        golden = state["golden"]
        failures = []
        first: Dict[str, tuple] = {}

        def counts(out):
            return tuple(getattr(out["counters"], k) for k in HF_COUNTERS)

        for out in loop.outputs:
            name = out["name"]
            if out["violations"]:
                failures.append(f"{name}: {out['violations']} Theorem 2.11 violations")
            elif out["status"] != golden[name]["status"]:
                failures.append(f"{name}: status {out['status']}")
            elif cover_key(out["cover"]) != golden[name]["cover"]:
                failures.append(f"{name}: cover differs from golden_pipeline.json")
            elif first.setdefault(name, counts(out)) != counts(out):
                failures.append(f"{name}: HF counters differ between passes")
        return failures

    def metrics(self, state, loops: List[Loop]):
        untraced = loops[0]
        one_pass = [o for o in untraced.outputs if o["pass"] == 0]
        end_to_end = {
            "cover_cubes": sum(len(o["cover"]) for o in one_pass),
            "cover_literals": sum(o["cover"].num_literals() for o in one_pass),
            "peak_rss_mb": peak_rss_mb("self"),
        }
        per_layer = hf_layer_counts([o["counters"] for o in one_pass])
        if len(loops) > 1:
            per_layer.update(per_pass_seconds(loops[1], self.LAYERS))
        return end_to_end, per_layer


def detect_summary(report) -> Dict[str, Any]:
    """A detection report in data/golden_detect.json's summary form."""
    by_status: Dict[str, int] = {}
    for v in report.verdicts:
        by_status[v.status] = by_status.get(v.status, 0) + 1
    return {
        "hazard_free": report.hazard_free,
        "verdicts": len(report.verdicts),
        "by_status": dict(sorted(by_status.items())),
        "points_checked": sum(v.points_checked for v in report.verdicts),
    }


class Figure8Detect:
    name = "figure8-detect"
    clock = "cpu"

    LAYERS = {
        "pla.parse_s": "pla.parse",
        "hazards.validate_s": "hazards.validate",
        "detect.busy_s": "detect.detect_cover",
        "transform.busy_s": "transform.transform_instance",
    }

    #: registry counters reported per pass, under their own names
    COUNTERS = (
        "detect.points_checked",
        "detect.transitions_checked",
        "detect.transitions_skipped",
        "transform.cubes_out",
    )

    def setup(self, seed: int, timed_s: float) -> Dict[str, Any]:
        from repro.cubes.cover import Cover
        from repro.cubes.cube import Cube
        from repro.pla import parse_pla

        import_cold(["repro.pla", "repro.detect.detector", "repro.transform.uf"])
        texts = _load_inputs()
        golden_covers = json.loads(GOLDEN_PIPELINE.read_text())["circuits"]
        covers = {}
        for name, text in texts.items():
            pla = parse_pla(text, name=name)
            n_in, n_out = pla.n_inputs, pla.n_outputs
            covers[name] = Cover(
                n_in,
                [Cube(n_in, int(i, 16), int(o, 16), n_out)
                 for i, o in golden_covers[name]["cover"]],
                n_out,
            )
        golden = json.loads(GOLDEN_DETECT.read_text())
        return {"texts": texts, "covers": covers, "golden": golden, "seed": seed}

    def teardown(self, state) -> None:
        pass

    def loop(self, state, seconds: float, loop: Loop) -> Loop:
        from repro.detect.detector import DetectOptions, detect_cover
        from repro.detect.golden import GOLDEN_MAX_POINTS, GOLDEN_SEED
        from repro.hazards.instance import HazardFreeInstance
        from repro.obs import MetricsRegistry
        from repro.pla import parse_pla
        from repro.transform.uf import transform_instance

        texts, covers = state["texts"], state["covers"]
        spans = loop.spans
        orders = _pass_orders(sorted(texts), state["seed"])
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            loop.begin_pass()
            registry = MetricsRegistry()
            options = DetectOptions(
                max_points=GOLDEN_MAX_POINTS, seed=GOLDEN_SEED, registry=registry
            )
            for name in next(orders):
                trace_id = f"{loop.passes}:{name}"
                loop.calibrate()
                t0 = loop.clock()
                try:
                    with spans.layer("instance", trace_id=trace_id, circuit=name):
                        with spans.layer("pla.parse", trace_id=trace_id):
                            pla = parse_pla(texts[name], name=name)
                        with spans.layer("hazards.validate", trace_id=trace_id):
                            inst = HazardFreeInstance(
                                pla.on, pla.off, pla.transitions, name=name
                            )
                        with spans.layer("detect.detect_cover", trace_id=trace_id):
                            hf_report = detect_cover(inst, covers[name], options)
                        with spans.layer(
                            "transform.transform_instance", trace_id=trace_id
                        ):
                            uf = transform_instance(inst, registry=registry)
                        with spans.layer("detect.detect_cover", trace_id=trace_id):
                            uf_report = detect_cover(
                                inst, uf.cover, options, name=uf.netlist.name
                            )
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    loop.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                loop.latencies_s.append(loop.clock() - t0)
                loop.outputs.append({
                    "pass": loop.passes,
                    "name": name,
                    "espresso_hf": detect_summary(hf_report),
                    "uf": detect_summary(uf_report),
                    "uf_cubes": uf.num_cubes,
                    "uf_depth": uf.depth,
                    "uf_literals": uf.cover.num_literals(),
                })
            snap = registry.snapshot()
            loop.extra.setdefault("pass_counters", []).append(
                {k: snap.get(k, {}).get("value", 0) for k in self.COUNTERS}
            )
            loop.end_pass()
        loop.elapsed_s = time.perf_counter() - t_start
        return loop

    def check(self, state, loop: Loop) -> List[str]:
        golden = state["golden"]["circuits"]
        failures = []
        for out in loop.outputs:
            name, want = out["name"], golden[out["name"]]
            for field in ("espresso_hf", "uf", "uf_cubes", "uf_depth"):
                if out[field] != want[field]:
                    failures.append(f"{name}: {field} differs from golden_detect.json")
                    break
            else:
                if not out["uf"]["hazard_free"]:
                    failures.append(f"{name}: u(f) cover is not hazard-free")
        counts = loop.extra.get("pass_counters", [])
        if any(c != counts[0] for c in counts):
            failures.append("detect/transform counters differ between passes")
        return failures

    def metrics(self, state, loops: List[Loop]):
        untraced = loops[0]
        one_pass = [o for o in untraced.outputs if o["pass"] == 0]
        end_to_end = {
            "cover_cubes": sum(o["uf_cubes"] for o in one_pass),
            "cover_literals": sum(o["uf_literals"] for o in one_pass),
            "peak_rss_mb": peak_rss_mb("self"),
        }
        per_layer: Dict[str, float] = dict(untraced.extra["pass_counters"][0])
        if len(loops) > 1:
            per_layer.update(per_pass_seconds(loops[1], self.LAYERS))
        return end_to_end, per_layer

