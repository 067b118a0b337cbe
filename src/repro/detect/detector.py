"""The gate-level hazard detector: per-transition verdicts with witnesses.

Semantics (see ``docs/DETECTION.md``): for a specified transition
``[A, B]`` the detector examines the transition's **ternary points** —
stable inputs pinned to their ``A`` value, each changing input set to its
start value, its end value, or ``X``.  At every point where the function
is provably stable (every resolution in ON, or every one in OFF) the
netlist must produce that stable value under Kleene evaluation; an ``X``
output is a hazard, a wrong definite value is a functional mismatch.
Vertex points (no ``X``) double as functional endpoint checks.

The engine judges a transition's points together, as integer
bit-planes: one :meth:`~repro.detect.netlist.Netlist.eval_planes` sweep
for the netlist, a ``2^k``-bit truth table per output for the
specification, and the first failing point as the lowest set bit of the
failure plane.  Counters, budget checkpoints and sampled-mode RNG draws
are exactly those of visiting the points one by one, in order, up to
that point (``docs/DETECTION.md``, "Bit-plane engine").

Two modes:

* **exhaustive** — all ``3^k`` points of a ``k``-variable transition;
* **sampled** — a seeded random subset capped by
  :attr:`DetectOptions.max_points`, automatically exhaustive whenever
  ``3^k`` fits the cap, cooperating with :class:`repro.guard.RunBudget`
  checkpoints and degrading gracefully to a partial report
  (``budget_exhausted=True``) when a cap blows.

Every hazard verdict carries a concrete witness: the ternary point, the
resolved sub-transition endpoints (an input pair exhibiting the glitch),
and the unstable-gate trace through the netlist.

The model judges *logic* hazards visible to unstable-input (ternary)
analysis.  It is exact for static transitions; for dynamic transitions
the Theorem 2.11 conditions additionally police monotone multi-input-
change interleavings (privileged cubes) that no ternary point can see —
the optional 8-valued ``algebra`` advisory covers that side,
conservatively for multi-level netlists.  ``docs/DETECTION.md`` spells
out the triage rules the differential suite enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cubes.cover import Cover
from repro.cubes.masks import covered, project
from repro.detect.netlist import Netlist
from repro.detect.ternary import point_string
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import current_tracer
from repro.simulate.algebra import W, input_class, wand, wnot, wor

#: Verdict statuses, from best to worst.
STATUS_CLEAN = "clean"
STATUS_UNCONSTRAINED = "unconstrained"
STATUS_SKIPPED = "skipped"
STATUS_MISMATCH = "functional_mismatch"
STATUS_HAZARD = "hazard"

#: How many unstable gates a witness trace records at most.
TRACE_LIMIT = 16

#: Budget checkpoints run every this many examined points.
CHECK_EVERY = 64


@dataclass(frozen=True)
class HazardWitness:
    """A concrete exhibit for one hazard or mismatch verdict."""

    output: int
    point: str  # ternary point, e.g. "1X0X"
    start: Tuple[int, ...]  # resolved sub-transition endpoints
    end: Tuple[int, ...]
    expected: int  # the stable function value at the point
    observed: str  # "X" for a hazard, "0"/"1" for a mismatch
    unstable_gates: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "output": self.output,
            "point": self.point,
            "start": "".join(map(str, self.start)),
            "end": "".join(map(str, self.end)),
            "expected": self.expected,
            "observed": self.observed,
            "unstable_gates": list(self.unstable_gates),
        }


@dataclass(frozen=True)
class TransitionVerdict:
    """The detector's answer for one (transition, output) pair."""

    transition: Transition
    output: int
    status: str
    points_total: int
    points_checked: int
    exhaustive: bool
    witness: Optional[HazardWitness] = None
    algebra: Optional[str] = None  # advisory 8-valued class name

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "start": "".join(map(str, self.transition.start)),
            "end": "".join(map(str, self.transition.end)),
            "output": self.output,
            "status": self.status,
            "points_total": self.points_total,
            "points_checked": self.points_checked,
            "exhaustive": self.exhaustive,
        }
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        if self.algebra is not None:
            d["algebra"] = self.algebra
        return d


@dataclass
class DetectionReport:
    """All verdicts for one netlist plus aggregate outcome."""

    name: str
    verdicts: List[TransitionVerdict] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def hazards(self) -> List[TransitionVerdict]:
        return [v for v in self.verdicts if v.status == STATUS_HAZARD]

    @property
    def mismatches(self) -> List[TransitionVerdict]:
        return [v for v in self.verdicts if v.status == STATUS_MISMATCH]

    @property
    def hazard_free(self) -> bool:
        """No hazard and no mismatch among the checked verdicts."""
        return not self.hazards and not self.mismatches

    @property
    def complete(self) -> bool:
        """Every verdict exhaustive and none skipped."""
        return not self.budget_exhausted and all(
            v.exhaustive and v.status != STATUS_SKIPPED for v in self.verdicts
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hazard_free": self.hazard_free,
            "complete": self.complete,
            "budget_exhausted": self.budget_exhausted,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


@dataclass
class DetectOptions:
    """Knobs for :func:`detect_netlist`.

    ``mode`` is ``"exhaustive"`` (always enumerate all ``3^k`` points;
    may be slow for wide transitions), ``"sampled"`` (seeded random
    subset of at most ``max_points`` points, exhaustive when the
    transition fits), or ``"auto"`` (alias for ``"sampled"``).
    ``netlist_decorator`` is the fault-injection seam mirroring
    :func:`repro.proptest.faults.fault_decorator`: it rewrites the
    netlist before detection and exists so mutation suites can prove the
    oracles notice.
    """

    mode: str = "auto"
    max_points: int = 2187  # 3^7
    seed: int = 0
    algebra: bool = False
    budget: Optional[RunBudget] = None
    registry: Optional[MetricsRegistry] = None
    netlist_decorator: Optional[Callable[[Netlist], Netlist]] = None

    def __post_init__(self):
        if self.mode not in ("auto", "exhaustive", "sampled"):
            raise ValueError(f"unknown detect mode {self.mode!r}")
        if self.max_points < 1:
            raise ValueError("max_points must be positive")


class _Counters:
    """Thin veneer so the hot loop never branches on registry presence."""

    def __init__(self, registry: Optional[MetricsRegistry]):
        if registry is None:
            self.points = self.hazards = self.mismatches = None
            self.transitions = self.skipped = None
        else:
            self.points = registry.counter("detect.points_checked")
            self.hazards = registry.counter("detect.hazards_found")
            self.mismatches = registry.counter("detect.mismatches_found")
            self.transitions = registry.counter("detect.transitions_checked")
            self.skipped = registry.counter("detect.transitions_skipped")

    @staticmethod
    def bump(counter, n: int = 1) -> None:
        if counter is not None:
            counter.inc(n)


#: Widest transition whose point tables are memoized: ``3^7`` points, the
#: auto cap.  Wider exhaustive transitions run in batches of ``3^7``
#: points over this table and never materialize a ``3^k`` table.
TABLE_K = 7

#: Widest transition whose specification becomes a ``2^k``-bit truth
#: table per output; wider ones test each point's cube against the
#: specification cubes directly.
TRUTH_TABLE_K = 16


class _PointTable:
    """Bit-planes of all ``3^k`` ternary points of a ``k``-variable transition.

    Point ``i`` gives changing variable ``j`` the trit ``(i // 3^j) % 3``
    (0 = start value, 1 = end value, 2 = X): the odometer order, variable
    0 fastest.  ``planes[j]`` is variable ``j``'s pair ``(admits_start,
    admits_end)``.  ``cover[m]`` marks the points that have minterm ``m``
    of the transition cube among their resolutions (bit ``j`` of ``m`` set
    = variable ``j`` at its end value).
    """

    __slots__ = ("k", "width", "ones", "planes", "cover")

    def __init__(self, k: int):
        width = 3 ** k
        ones = (1 << width) - 1
        planes: List[Tuple[int, int]] = []
        for j in range(k):
            step = 3 ** j
            block = (1 << step) - 1
            x = block << (2 * step)
            # one set bit at the start of every period of 3 * step points
            repeat = ones // ((1 << (3 * step)) - 1)
            planes.append(((block | x) * repeat, ((block << step) | x) * repeat))
        cover: List[int] = []
        for m in range(1 << k):
            plane = ones
            for j, (lo, hi) in enumerate(planes):
                plane &= hi if (m >> j) & 1 else lo
            cover.append(plane)
        self.k, self.width, self.ones = k, width, ones
        self.planes, self.cover = planes, cover


_TABLES: Dict[int, _PointTable] = {}


def _point_table(k: int) -> _PointTable:
    """The memoized table of ``k <= TABLE_K`` changing variables."""
    table = _TABLES.get(k)
    if table is None:
        table = _TABLES[k] = _PointTable(k)
    return table


def _digits(i: int, k: int) -> Tuple[int, ...]:
    """Point ``i``'s trits, variable 0 first."""
    out = []
    for _ in range(k):
        i, t = divmod(i, 3)
        out.append(t)
    return tuple(out)


def _resolutions(trits: Sequence[int]) -> int:
    """The minterms of the transition cube a point resolves to, as bits."""
    res = 1
    for j, t in enumerate(trits):
        if t == 1:
            res <<= 1 << j
        elif t == 2:
            res |= res << (1 << j)
    return res


def _unstable_plane(table: _PointTable, tt: int) -> int:
    """Points with a resolution outside the ``2^k``-bit truth table ``tt``."""
    miss = ~tt & ((1 << (1 << table.k)) - 1)
    plane = 0
    cover = table.cover
    while miss:
        low = miss & -miss
        plane |= cover[low.bit_length() - 1]
        miss ^= low
    return plane


def _sample_points(
    k: int, max_points: int, rng: random.Random, limit: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """The sampled-mode point sequence, drawing from ``rng``.

    The endpoints and the all-X point come first, then distinct random
    points until ``max_points`` (or ``8 * max_points`` draws).  With
    ``limit`` the draw stops as soon as that many points exist, so
    re-drawing from a saved state leaves ``rng`` exactly where a
    point-by-point enumeration that stopped there would.
    """
    points = [(0,) * k, (1,) * k, (2,) * k]
    if limit is not None and limit <= len(points):
        return points[:limit]
    seen = set(points)
    budget = max_points - len(seen)
    attempts = 0
    randrange = rng.randrange
    while budget > 0 and attempts < 8 * max_points:
        attempts += 1
        cand = tuple([randrange(3) for _ in range(k)])
        if cand in seen:
            continue
        seen.add(cand)
        budget -= 1
        points.append(cand)
        if len(points) == limit:
            break
    return points


def _spec_side(
    rows: Sequence[Tuple[int, int]],
    transition: Transition,
    n_outputs: int,
    tabulated: bool,
) -> list:
    """Every output's specification over the transition cube, in one
    pass over the multi-output cubes.

    Tabulated: a ``2^k``-bit truth table per output (bit ``m`` = minterm
    ``m``, see :class:`_PointTable`).  Otherwise: per output, the cubes
    meeting the transition cube projected onto the changing variables
    (:func:`repro.cubes.masks.project`).
    """
    if not tabulated:
        return project(rows, transition, n_outputs)
    start = transition.start
    changing = transition.changing
    t_inbits = transition.cube.inbits
    m01 = ((1 << (2 * len(start))) - 1) // 3
    out = [0] * n_outputs
    for inbits, outbits in rows:
        meet = inbits & t_inbits
        if not outbits or ~(meet | meet >> 1) & m01:
            continue  # no output, or disjoint from the transition cube
        v = 1
        for j, p in enumerate(changing):
            lit = inbits >> (2 * p) & 3
            if lit == 3:
                v |= v << (1 << j)
            elif lit != 1 << start[p]:
                v <<= 1 << j
        while outbits:
            low = outbits & -outbits
            out[low.bit_length() - 1] |= v
            outbits ^= low
    return out


class _TransitionState:
    """What every output of one transition shares: the specification over
    the transition cube and, under full enumeration, one netlist sweep."""

    def __init__(
        self,
        netlist: Netlist,
        on_rows: Sequence[Tuple[int, int]],
        off_rows: Sequence[Tuple[int, int]],
        transition: Transition,
        full: bool,
    ):
        self.netlist = netlist
        self.transition = transition
        self.changing = transition.changing
        self.k = k = len(self.changing)
        self.full = full
        self.tabulated = k <= TRUTH_TABLE_K
        n_out = netlist.n_outputs
        self.on = _spec_side(on_rows, transition, n_out, self.tabulated)
        self.off = _spec_side(off_rows, transition, n_out, self.tabulated)
        self._m01 = ((1 << (2 * k)) - 1) // 3
        self._full_planes: Optional[List[Tuple[int, int]]] = None
        self._start_planes: Optional[List[Tuple[int, int]]] = None

    def point_value(self, output: int, trits: Sequence[int]) -> Optional[int]:
        """The specified function's value at a ternary point: 1 or 0 when
        every resolution has it (ON taking precedence), else None."""
        if self.tabulated:
            res = _resolutions(trits)
            if not res & ~self.on[output]:
                return 1
            if not res & ~self.off[output]:
                return 0
            return None
        cube = 0
        for j, t in enumerate(trits):
            cube |= (t + 1) << (2 * j)
        if covered(cube, self.on[output], self._m01):
            return 1
        if covered(cube, self.off[output], self._m01):
            return 0
        return None

    def points_stable(
        self, output: int, points: Sequence[Sequence[int]]
    ) -> Tuple[int, int]:
        """``(stable1, stable0)`` planes over an explicit point list."""
        s1 = s0 = 0
        for i, trits in enumerate(points):
            value = self.point_value(output, trits)
            if value == 1:
                s1 |= 1 << i
            elif value == 0:
                s0 |= 1 << i
        return s1, s0

    def batch_stable(
        self, output: int, table: _PointTable, high: Sequence[int]
    ) -> Tuple[int, int]:
        """``(stable1, stable0)`` planes of a full-enumeration batch: every
        point of ``table`` with the higher variables fixed to ``high``."""
        if not self.tabulated:
            return self.points_stable(
                output, [_digits(i, table.k) + high for i in range(table.width)]
            )
        on, off = self.on[output], self.off[output]
        if high:
            # A point is stable iff it is stable in every slice of the
            # truth table its high trits resolve to.
            slices = [0]
            for j, t in enumerate(high):
                if t == 1:
                    slices = [s | 1 << j for s in slices]
                elif t == 2:
                    slices += [s | 1 << j for s in slices]
            low_all = (1 << (1 << table.k)) - 1
            on_tt = off_tt = low_all
            for s in slices:
                on_tt &= on >> (s << table.k)
                off_tt &= off >> (s << table.k)
            on, off = on_tt & low_all, off_tt & low_all
        s1 = table.ones & ~_unstable_plane(table, on)
        s0 = table.ones & ~_unstable_plane(table, off) & ~s1
        return s1, s0

    def sweep(
        self, var_planes: Sequence[Sequence[int]], ones: int
    ) -> List[Tuple[int, int]]:
        """One netlist sweep; ``var_planes[j]`` is changing variable
        ``j``'s ``(admits_start, admits_end)`` pair."""
        start = self.transition.start
        inputs = [(0, ones) if v else (ones, 0) for v in start]
        for p, (a, b) in zip(self.changing, var_planes):
            inputs[p] = (b, a) if start[p] else (a, b)
        return self.netlist.eval_planes(inputs, ones)

    def full_planes(self) -> List[Tuple[int, int]]:
        """The sweep over all ``3^k`` points (``k <= TABLE_K``), shared
        by every output."""
        if self._full_planes is None:
            table = _point_table(self.k)
            self._full_planes = self.sweep(table.planes, table.ones)
        return self._full_planes

    def start_value(self, gate: int) -> int:
        """A gate's binary value at the transition's start vector."""
        if self.full and self.k <= TABLE_K:
            return self.full_planes()[gate][1] & 1
        if self._start_planes is None:
            self._start_planes = self.sweep((), 1)
        return self._start_planes[gate][1]


def _algebra_class(netlist: Netlist, transition: Transition, output: int) -> str:
    """Advisory 8-valued (Eichelberger/BDN) class of one output.

    Exact for fan-out-free netlists and two-level covers; conservative
    (may overflag) under reconvergent fan-out.
    """
    values: List[W] = []
    for i, g in enumerate(netlist.gates):
        if g.op == "input":
            values.append(input_class(transition.start[i], transition.end[i]))
        elif g.op == "const0":
            values.append(W.S0)
        elif g.op == "const1":
            values.append(W.S1)
        elif g.op == "not":
            values.append(wnot(values[g.fanin[0]]))
        elif g.op == "and":
            v = W.S1
            for f in g.fanin:
                v = wand(v, values[f])
            values.append(v)
        else:
            v = W.S0
            for f in g.fanin:
                v = wor(v, values[f])
            values.append(v)
    return values[netlist.outputs[output]].name


def _witness(
    netlist: Netlist,
    transition: Transition,
    point: Sequence[Optional[int]],
    output: int,
    expected: int,
    observed: Optional[int],
) -> HazardWitness:
    start = tuple(
        transition.start[i] if v is None else v for i, v in enumerate(point)
    )
    end = tuple(
        transition.end[i] if v is None else v for i, v in enumerate(point)
    )
    trace: List[str] = []
    if observed is None:
        gate_values = netlist.eval_gates_ternary(point)
        for idx, val in enumerate(gate_values):
            if val is None and netlist.gates[idx].op != "input":
                trace.append(netlist.gates[idx].name)
                if len(trace) >= TRACE_LIMIT:
                    break
    return HazardWitness(
        output=output,
        point=point_string(point),
        start=start,
        end=end,
        expected=expected,
        observed="X" if observed is None else str(observed),
        unstable_gates=tuple(trace),
    )


def detect_netlist(
    netlist: Netlist,
    on: Cover,
    off: Cover,
    transitions: Sequence[Transition],
    options: Optional[DetectOptions] = None,
) -> DetectionReport:
    """Judge a netlist against its specification over given transitions.

    ``on``/``off`` are the multi-output specification covers defining the
    intended function (don't-care where neither holds); the netlist's
    outputs are matched positionally against the covers' outputs.
    """
    options = options or DetectOptions()
    if options.netlist_decorator is not None:
        netlist = options.netlist_decorator(netlist)
    if on.n_outputs != netlist.n_outputs or off.n_outputs != netlist.n_outputs:
        raise ValueError(
            f"specification has {on.n_outputs} outputs but netlist "
            f"{netlist.name!r} has {netlist.n_outputs}"
        )
    counters = _Counters(options.registry)
    report = DetectionReport(name=netlist.name)
    tracer = current_tracer()
    span = tracer.start("detect", netlist=netlist.name) if tracer else None
    supports = [netlist.support(j) for j in range(netlist.n_outputs)]
    on_rows = [(c.inbits, c.outbits) for c in on.cubes]
    off_rows = [(c.inbits, c.outbits) for c in off.cubes]
    rng = random.Random(options.seed)
    budget = options.budget
    exhausted = False
    try:
        for t_index, t in enumerate(transitions):
            if len(t.start) != netlist.n_inputs:
                raise ValueError(
                    f"transition {t_index} has {len(t.start)} inputs, "
                    f"netlist {netlist.name!r} has {netlist.n_inputs}"
                )
            state: Optional[_TransitionState] = None
            for j in range(netlist.n_outputs):
                if exhausted:
                    report.verdicts.append(
                        TransitionVerdict(
                            t, j, STATUS_SKIPPED, 3 ** len(t.changing), 0, False
                        )
                    )
                    _Counters.bump(counters.skipped)
                    continue
                if state is None:
                    full = (
                        options.mode == "exhaustive"
                        or 3 ** len(t.changing) <= options.max_points
                    )
                    state = _TransitionState(netlist, on_rows, off_rows, t, full)
                try:
                    verdict = _detect_one(
                        state, j, supports[j], options, rng, counters, budget
                    )
                except BudgetExceeded:
                    exhausted = True
                    report.budget_exhausted = True
                    verdict = TransitionVerdict(
                        t, j, STATUS_SKIPPED, 3 ** len(t.changing), 0, False
                    )
                    _Counters.bump(counters.skipped)
                report.verdicts.append(verdict)
    finally:
        if tracer and span:
            tracer.finish(
                span,
                verdicts=len(report.verdicts),
                hazards=len(report.hazards),
                hazard_free=report.hazard_free,
            )
    return report


def _full_batches(state: _TransitionState, output: int, gate: int):
    """Full enumeration in fixed-width batches of at most ``3^TABLE_K``
    points: the low variables run through the memoized table, the rest
    are fixed per batch (batch ``b`` holds points ``b * width ...``)."""
    k = state.k
    low_k = min(k, TABLE_K)
    table = _point_table(low_k)
    ones = table.ones
    const = ((ones, 0), (0, ones), (ones, ones))
    for b in range(3 ** (k - low_k)):
        high = _digits(b, k - low_k)
        if high:
            planes = state.sweep(
                table.planes + [const[t] for t in high], ones
            )
        else:
            planes = state.full_planes()
        s1, s0 = state.batch_stable(output, table, high)
        yield table.width, planes[gate], s1, s0


def _sampled_batch(state: _TransitionState, output: int, gate: int, points):
    """The sampled points of one verdict as a single batch."""
    var_planes = [[0, 0] for _ in range(state.k)]
    for i, trits in enumerate(points):
        bit = 1 << i
        for j, t in enumerate(trits):
            if t != 1:
                var_planes[j][0] |= bit
            if t != 0:
                var_planes[j][1] |= bit
    planes = state.sweep(var_planes, (1 << len(points)) - 1)
    s1, s0 = state.points_stable(output, points)
    return [(len(points), planes[gate], s1, s0)]


def _detect_one(
    state: _TransitionState,
    output: int,
    support: frozenset,
    options: DetectOptions,
    rng: random.Random,
    counters: _Counters,
    budget: Optional[RunBudget],
) -> TransitionVerdict:
    """Judge one output over one transition, all points at once.

    Points are visited in batches of integer bit-planes.  In each batch
    the lowest set bit of ``(stable1 & ~def1) | (stable0 & ~def0)`` is
    the first failing point; everything the point-by-point order would
    do up to that point — ``points_checked``, a budget checkpoint before
    every ``CHECK_EVERY``-th point, the sampled-mode draws from ``rng``
    — is reproduced exactly, and nothing after it.
    """
    transition = state.transition
    k = state.k
    total = 3 ** k
    _Counters.bump(counters.transitions)
    if budget is not None:
        budget.charge_iteration("detect")

    # A transition whose endpoint value is don't-care for this output has
    # no TransitionKind: the specification places no hazard requirement on
    # it (Theorem 2.11 derives required cubes only for defined kinds), so
    # the detector must not assert either.
    start_value = state.point_value(output, (0,) * k)
    end_value = state.point_value(output, (1,) * k)
    if start_value is None or end_value is None:
        return TransitionVerdict(
            transition, output, STATUS_UNCONSTRAINED, total, 0, True
        )

    gate = state.netlist.outputs[output]
    rewind = None
    if support.isdisjoint(state.changing):
        # Fast path: the output cone does not see any changing variable,
        # so only the two endpoints need a functional check.
        got = state.start_value(gate)
        batches = [(
            2,
            (3 * (1 - got), 3 * got),
            (start_value == 1) | (end_value == 1) << 1,
            (start_value == 0) | (end_value == 0) << 1,
        )]
        trits_at = ((0,) * k, (1,) * k).__getitem__
        exhaustive = True
    elif state.full:
        batches = _full_batches(state, output, gate)

        def trits_at(i: int) -> Tuple[int, ...]:
            return _digits(i, k)

        exhaustive = True
    else:
        saved = rng.getstate()
        points = _sample_points(k, options.max_points, rng)

        def rewind(n: int) -> None:
            """Leave ``rng`` as if only ``n`` points had been drawn."""
            rng.setstate(saved)
            _sample_points(k, options.max_points, rng, limit=n)

        batches = _sampled_batch(state, output, gate, points)
        trits_at = points.__getitem__
        exhaustive = False

    checked = 0
    checkpoints = 0
    failure = None
    for width, (may0, may1), s1, s0 in batches:
        fail = (s1 & ~(may1 & ~may0)) | (s0 & ~(may0 & ~may1))
        index = (fail & -fail).bit_length() - 1
        reached = checked + (index + 1 if fail else width)
        if budget is not None:
            while (checkpoints + 1) * CHECK_EVERY <= reached:
                checkpoints += 1
                try:
                    budget.checkpoint("detect")
                except BudgetExceeded:
                    if rewind is not None:
                        rewind(checkpoints * CHECK_EVERY)
                    raise
        checked = reached
        if fail:
            expected = (s1 >> index) & 1
            observed = None if (may0 & may1) >> index & 1 else (may1 >> index) & 1
            failure = (trits_at(checked - 1), expected, observed)
            break
    if failure is not None and rewind is not None:
        rewind(checked)
    _Counters.bump(counters.points, checked)

    if failure is None:
        outcome = TransitionVerdict(
            transition, output, STATUS_CLEAN, total, checked, exhaustive
        )
    else:
        trits, expected, observed = failure
        start, end = transition.start, transition.end
        point: List[Optional[int]] = list(start)
        for pos, t in zip(state.changing, trits):
            point[pos] = end[pos] if t == 1 else None if t == 2 else start[pos]
        if observed is None:
            status = STATUS_HAZARD
            _Counters.bump(counters.hazards)
        else:
            status = STATUS_MISMATCH
            _Counters.bump(counters.mismatches)
        outcome = TransitionVerdict(
            transition,
            output,
            status,
            total,
            checked,
            exhaustive,
            _witness(
                state.netlist, transition, tuple(point), output, expected,
                observed,
            ),
        )
    if options.algebra:
        outcome = replace(
            outcome, algebra=_algebra_class(state.netlist, transition, output)
        )
    return outcome


def detect_cover(
    instance: HazardFreeInstance,
    cover: Cover,
    options: Optional[DetectOptions] = None,
    name: Optional[str] = None,
) -> DetectionReport:
    """Detect hazards in the two-level realization of ``cover`` against
    ``instance``'s function and specified transitions."""
    netlist = Netlist.from_cover(cover, name=name or instance.name)
    return detect_netlist(
        netlist, instance.on, instance.off, instance.transitions, options
    )
