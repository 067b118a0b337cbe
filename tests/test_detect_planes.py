"""The bit-plane detection engine against the frozen per-point reference.

:mod:`repro.detect.detector` judges all ternary points of a transition at
once, as integer bit-planes.  ``tests/detect_ref.py`` keeps the engine it
replaced: one point at a time, cofactor + tautology for the
specification, a scalar netlist sweep per point.  Everything observable
must be identical between the two — the report's ``as_dict()``, the
``detect.*`` registry counters, the sequence of budget calls, where a
tripped budget turns verdicts into ``skipped``, and how far each verdict
advances the shared sampling RNG.
"""

import json
import random
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.bench.figure1 import figure1_instance, minimum_plain_cover
from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.cubes.cover import Cover
from repro.cubes.cube import Cube
from repro.detect import (
    NETLIST_DEFECTS,
    STATUS_HAZARD,
    STATUS_SKIPPED,
    DetectOptions,
    Netlist,
    defect_decorator,
    detect_netlist,
)
from repro.detect.detector import (
    TABLE_K,
    TRUTH_TABLE_K,
    _Counters,
    _detect_one,
    _digits,
    _point_table,
    _TransitionState,
)
from repro.espresso.complement import complement
from repro.detect.golden import GOLDEN_MAX_POINTS, GOLDEN_SEED
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.transitions import Transition
from repro.hf import espresso_hf
from repro.obs.metrics import MetricsRegistry
from repro.proptest.strategies import covers, instances
from repro.transform.uf import transform_instance
from tests.detect_ref import (
    detect_netlist_reference,
    detect_one_reference,
    eval_gates_reference,
    eval_gates_ternary_reference,
    transition_points,
)
from tests.test_detect_differential import netlists

GOLDEN = dict(max_points=GOLDEN_MAX_POINTS, seed=GOLDEN_SEED)

#: Small Figure 8 circuits for the wider option matrix (the full suite
#: runs under the golden options only, to keep the reference affordable).
SMALL = ("dram-ctrl", "pscsi-ircv", "sscsi-trcv-bm", "stetson-p3")


def _run(engine, netlist, on, off, transitions, options):
    registry = MetricsRegistry()
    options.registry = registry
    report = engine(netlist, on, off, transitions, options)
    return json.dumps(report.as_dict(), sort_keys=True), registry.snapshot()


def assert_same(netlist, on, off, transitions, budget=None, **opts):
    """Both engines, fresh options (and budget) each: identical reports
    and identical ``detect.*`` counters."""
    runs = []
    for engine in (detect_netlist, detect_netlist_reference):
        options = DetectOptions(**opts)
        if budget is not None:
            options.budget = budget()
        runs.append(_run(engine, netlist, on, off, transitions, options))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    return json.loads(runs[0][0])


def _covers_of(name):
    inst = build_benchmark(name)
    return inst, {
        "hf": espresso_hf(inst).cover,
        "uf": transform_instance(inst).cover,
        "on": inst.on,  # unminimized: hazardous, exercises witnesses
    }


def _random_cube(rng, n, n_out, dc=0.6):
    lits = [3 if rng.random() < dc else rng.choice((1, 2)) for _ in range(n)]
    return Cube.from_literals(lits, rng.randrange(1, 1 << n_out), n_out)


def random_problem(seed, n, k, n_out=2, n_on=6, n_extra_off=1, dc=0.6):
    """Random ON covers with their complements as OFF plus a few stray
    OFF cubes (so ON and OFF overlap), a netlist realizing the
    unminimized ON cover, and one ``k``-input transition plus its
    reverse."""
    rng = random.Random(seed)
    on = Cover(n, [], n_out)
    off = Cover(n, [], n_out)
    for j in range(n_out):
        on_j = Cover(n, [_random_cube(rng, n, 1, dc) for _ in range(n_on)])
        off_j = complement(on_j).cubes + [
            _random_cube(rng, n, 1, dc) for _ in range(n_extra_off)
        ]
        for dest, cubes in ((on, on_j.cubes), (off, off_j)):
            for c in cubes:
                dest.append(Cube(n, c.inbits, 1 << j, n_out))
    start = tuple(rng.randrange(2) for _ in range(n))
    flip = set(rng.sample(range(n), k))
    end = tuple(1 - v if i in flip else v for i, v in enumerate(start))
    t = Transition(start, end)
    return Netlist.from_cover(on, name=f"rand{seed}"), on, off, [t, t.reversed()]


class CountingBudget(RunBudget):
    """Logs every budget call; raises on checkpoint number ``trip_at``."""

    def __init__(self, trip_at=None):
        super().__init__()
        self.calls = []
        self.trip_at = trip_at

    def charge_iteration(self, phase="loop"):
        self.calls.append(("iteration", phase))
        super().charge_iteration(phase)

    def checkpoint(self, phase=""):
        self.calls.append(("checkpoint", phase))
        super().checkpoint(phase)
        if self.trip_at is not None and self.checkpoints >= self.trip_at:
            self._exhaust(f"tripped at checkpoint {self.trip_at}", phase)


class TestPlaneEvaluator:
    @given(netlists(), st.data())
    def test_planes_equal_per_point_kleene(self, netlist, data):
        """One sweep over a batch of ternary points equals per-point
        Kleene evaluation, wire for wire."""
        n = netlist.n_inputs
        points = data.draw(
            st.lists(
                st.lists(st.sampled_from([0, 1, None]), min_size=n, max_size=n),
                min_size=1,
                max_size=40,
            )
        )
        ones = (1 << len(points)) - 1
        inputs = []
        for i in range(n):
            may0 = may1 = 0
            for b, p in enumerate(points):
                if p[i] != 1:
                    may0 |= 1 << b
                if p[i] != 0:
                    may1 |= 1 << b
            inputs.append((may0, may1))
        planes = netlist.eval_planes(inputs, ones)
        for b, p in enumerate(points):
            for (may0, may1), want in zip(
                planes, eval_gates_ternary_reference(netlist, p)
            ):
                got = (may0 >> b & 1, may1 >> b & 1)
                assert got == {0: (1, 0), 1: (0, 1), None: (1, 1)}[want]

    @given(netlists(), st.data())
    def test_one_point_calls_match_scalar_sweeps(self, netlist, data):
        n = netlist.n_inputs
        point = data.draw(
            st.lists(st.sampled_from([0, 1, None]), min_size=n, max_size=n)
        )
        vec = [0 if v is None else v for v in point]
        assert netlist.eval_gates_ternary(point) == (
            eval_gates_ternary_reference(netlist, point)
        )
        assert netlist.eval_gates(vec) == eval_gates_reference(netlist, vec)

    @pytest.mark.parametrize("k", range(6))
    def test_point_table_follows_enumeration_order(self, k):
        """Bit ``i`` of the table is the ``i``-th point of the per-point
        odometer order; ``cover[m]`` marks exactly the points resolving
        to minterm ``m``."""
        table = _point_table(k)
        t = Transition((0,) * k, (1,) * k)
        order, _, _ = transition_points(t, "exhaustive", 1, random.Random(0))
        for i, trits in enumerate(order):
            assert _digits(i, k) == trits
            for j, (lo, hi) in enumerate(table.planes):
                assert (lo >> i & 1, hi >> i & 1) == (
                    trits[j] != 1,
                    trits[j] != 0,
                )
            for m in range(1 << k):
                resolves = all(
                    t_ == 2 or t_ == (m >> j & 1) for j, t_ in enumerate(trits)
                )
                assert (table.cover[m] >> i & 1) == resolves


class TestGoldenDifferential:
    @pytest.mark.parametrize("name", [spec.name for spec in BENCHMARKS])
    def test_golden_options(self, name):
        inst, covers_ = _covers_of(name)
        for label in ("hf", "uf"):
            net = Netlist.from_cover(covers_[label], name=f"{name}-{label}")
            assert_same(net, inst.on, inst.off, inst.transitions, **GOLDEN)

    @pytest.mark.parametrize("name", SMALL)
    def test_option_matrix(self, name):
        inst, covers_ = _covers_of(name)
        matrix = [
            dict(mode="exhaustive"),
            dict(mode="exhaustive", algebra=True),
        ] + [dict(mode="sampled", max_points=8, seed=s) for s in range(5)]
        for label, cover in covers_.items():
            net = Netlist.from_cover(cover, name=f"{name}-{label}")
            for opts in matrix:
                assert_same(net, inst.on, inst.off, inst.transitions, **opts)

    @pytest.mark.parametrize("defect", sorted(NETLIST_DEFECTS))
    def test_every_netlist_defect(self, defect):
        for name in SMALL:
            inst, covers_ = _covers_of(name)
            net = Netlist.from_cover(covers_["hf"], name=name)
            for seed in range(3):
                assert_same(
                    net,
                    inst.on,
                    inst.off,
                    inst.transitions,
                    netlist_decorator=defect_decorator(defect, seed=seed),
                    **GOLDEN,
                )

    def test_figure1_witnesses(self):
        inst = figure1_instance()
        for cover in (minimum_plain_cover(inst), espresso_hf(inst).cover):
            net = Netlist.from_cover(cover, name="figure1")
            for opts in (GOLDEN, dict(mode="exhaustive", algebra=True)):
                assert_same(net, inst.on, inst.off, inst.transitions, **opts)


class TestHypothesisDifferential:
    @given(
        instances(),
        st.sampled_from(["exhaustive", "sampled", "auto"]),
        st.integers(1, 30),
        st.integers(0, 2**16),
        st.booleans(),
    )
    def test_instances(self, inst, mode, max_points, seed, algebra):
        net = Netlist.from_cover(inst.on, name="hyp")
        assert_same(
            net,
            inst.on,
            inst.off,
            inst.transitions,
            mode=mode,
            max_points=max_points,
            seed=seed,
            algebra=algebra,
        )

    @given(netlists(max_inputs=5, max_gates=8), st.data())
    def test_netlists_with_overlapping_specs(self, netlist, data):
        """Arbitrary multi-level netlists against ON/OFF covers drawn
        independently, so they overlap and leave don't-cares."""
        n = netlist.n_inputs
        on = data.draw(covers(n, max_cubes=4))
        off = data.draw(covers(n, max_cubes=4))
        starts = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n),
                min_size=1,
                max_size=3,
            )
        )
        ts = [Transition(tuple(v[:n]), tuple(v[n:])) for v in starts]
        for opts in (
            dict(mode="exhaustive"),
            dict(mode="sampled", max_points=5, seed=data.draw(st.integers(0, 99))),
        ):
            assert_same(netlist, on, off, ts, **opts)


class TestSpecification:
    def test_on_takes_precedence_over_off(self):
        """Where ON and OFF overlap the function reads 1, at vertices and
        at X points alike (``spec_value``/``stable_value`` order)."""
        on = Cover.from_strings(["1-", "-1"])
        off = Cover.from_strings(["--"])
        net = Netlist.from_cover(Cover.from_strings(["1-"]), name="overlap")
        ts = [Transition((1, 0), (1, 1)), Transition((0, 1), (1, 1))]
        payload = assert_same(net, on, off, ts, mode="exhaustive")
        assert [v["status"] for v in payload["verdicts"]] == [
            "clean",
            "functional_mismatch",
        ]
        witness = payload["verdicts"][1]["witness"]
        assert (witness["point"], witness["expected"]) == ("01", 1)

    def test_multi_batch_exhaustive(self):
        """``k > TABLE_K`` exhaustive runs in ``3^TABLE_K``-point batches
        (the high trits fixed per batch)."""
        k = TABLE_K + 1
        # clean verdicts, and failures in the batch whose high trit is X
        for seed, n_on, dc in ((0, 8, 0.75), (0, 6, 0.6), (1, 6, 0.6)):
            net, on, off, ts = random_problem(seed, k + 1, k, n_on=n_on, dc=dc)
            assert_same(net, on, off, ts, mode="exhaustive")

    def test_wide_transition_beyond_truth_table(self):
        """Past ``TRUTH_TABLE_K`` the specification is checked cube by
        cube; verdicts still match."""
        k = TRUTH_TABLE_K + 2
        for seed in range(3):
            net, on, off, ts = random_problem(seed, k + 2, k, n_on=10, dc=0.8)
            for opts in (dict(max_points=60, seed=seed), dict(max_points=3)):
                assert_same(net, on, off, ts, **opts)

    def test_sampled_k16_is_fast(self):
        net, on, off, ts = random_problem(7, 18, 16, n_out=3, n_on=12, dc=0.8)
        t0 = time.perf_counter()
        report = detect_netlist(
            net, on, off, ts, DetectOptions(max_points=243, seed=1)
        )
        assert time.perf_counter() - t0 < 2.0
        assert len(report.verdicts) == 6
        assert_same(net, on, off, ts, max_points=243, seed=1)


def _hazardous_problems():
    """Problems with transitions of 81-243 points and early, late and
    absent failures."""
    for seed in range(4):
        yield random_problem(seed, 7, 5, n_out=3, n_on=7, dc=0.5)


class TestBudgetAndRng:
    @pytest.mark.parametrize(
        "opts",
        [
            dict(mode="exhaustive"),
            dict(mode="sampled", max_points=150, seed=4),
            # clean verdicts end exactly on a checkpoint
            dict(mode="sampled", max_points=128, seed=4),
        ],
    )
    def test_budget_call_sequences_match(self, opts):
        checkpoints = 0
        for net, on, off, ts in _hazardous_problems():
            logs = []
            for engine in (detect_netlist, detect_netlist_reference):
                budget = CountingBudget()
                engine(net, on, off, ts, DetectOptions(budget=budget, **opts))
                logs.append(budget.calls)
            assert logs[0] == logs[1]
            checkpoints += sum(call[0] == "checkpoint" for call in logs[0])
        assert checkpoints

    @pytest.mark.parametrize(
        "opts",
        [dict(mode="exhaustive"), dict(mode="sampled", max_points=150, seed=4)],
    )
    def test_budget_trip_positions_match(self, opts):
        tripped = 0
        for net, on, off, ts in _hazardous_problems():
            for trip_at in (1, 2, 3, 5):
                payload = assert_same(
                    net,
                    on,
                    off,
                    ts,
                    budget=lambda: CountingBudget(trip_at),
                    **opts,
                )
                statuses = [v["status"] for v in payload["verdicts"]]
                if payload["budget_exhausted"]:
                    tripped += 1
                    assert STATUS_SKIPPED in statuses
        assert tripped

    def test_rng_state_after_every_verdict(self):
        """Sampled mode draws nothing past a verdict's first failing point
        (nor past a tripped checkpoint), so the shared RNG is in the
        reference's state after every verdict."""
        seen_failure = False
        for net, on, off, ts in _hazardous_problems():
            for trip_at in (None, 2):
                options = DetectOptions(mode="sampled", max_points=150, seed=9)
                on_rows = [(c.inbits, c.outbits) for c in on.cubes]
                off_rows = [(c.inbits, c.outbits) for c in off.cubes]
                rngs = [random.Random(9), random.Random(9)]
                budgets = [CountingBudget(trip_at), CountingBudget(trip_at)]
                counters = _Counters(None)
                for t in ts:
                    state = _TransitionState(net, on_rows, off_rows, t, False)
                    for j in range(net.n_outputs):
                        support = net.support(j)
                        outcomes = []
                        for run, call in enumerate((
                            lambda: _detect_one(
                                state, j, support, options, rngs[0],
                                counters, budgets[0],
                            ),
                            lambda: detect_one_reference(
                                net,
                                on.restrict_to_output(j),
                                off.restrict_to_output(j),
                                t, j, support, options, rngs[1],
                                counters, budgets[1],
                            ),
                        )):
                            try:
                                outcomes.append(call().as_dict())
                            except BudgetExceeded:
                                outcomes.append("skipped")
                        assert outcomes[0] == outcomes[1]
                        assert rngs[0].getstate() == rngs[1].getstate()
                        if isinstance(outcomes[0], dict):
                            seen_failure |= outcomes[0]["status"] == STATUS_HAZARD
        assert seen_failure
