"""Specified input transitions and function-hazard analysis.

A *multiple-input change* is a transition from input minterm ``A`` to ``B``;
during the transition the inputs may change monotonically in any order, so
the circuit can observe any minterm of the transition cube ``[A, B]``
(Definition 2.1).  A function must change monotonically over a specified
transition (no function hazard, Definitions 2.2/2.3) for any implementation
to be glitch-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from repro.cubes.cube import Cube, mask01
from repro.cubes.cover import Cover
from repro.cubes.masks import project
from repro.cubes.operations import transition_cube, changing_vars


class TransitionKind(enum.Enum):
    """The four monotonic transition types of an output over ``[A, B]``."""

    STATIC_ZERO = "0->0"
    STATIC_ONE = "1->1"
    FALLING = "1->0"
    RISING = "0->1"


@dataclass(frozen=True)
class Transition:
    """A specified multiple-input change from minterm ``start`` to ``end``."""

    start: Tuple[int, ...]
    end: Tuple[int, ...]

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ValueError("start and end must have equal width")
        if any(v not in (0, 1) for v in self.start + self.end):
            raise ValueError("transition endpoints must be 0/1 vectors")

    @property
    def n_inputs(self) -> int:
        return len(self.start)

    @cached_property
    def cube(self) -> Cube:
        """The transition cube ``[start, end]`` (input part only)."""
        return transition_cube(self.start, self.end)

    @cached_property
    def changing(self) -> Tuple[int, ...]:
        """Indices of the input variables that change."""
        return changing_vars(self.start, self.end)

    def __getstate__(self) -> Dict[str, Tuple[int, ...]]:
        # Pickle the fields only, never the memoized ``cube``/``changing``.
        return {"start": self.start, "end": self.end}

    def reversed(self) -> "Transition":
        """The transition traversed in the opposite direction."""
        return Transition(self.end, self.start)

    def start_cube(self) -> Cube:
        return Cube.minterm(self.start)

    def end_cube(self) -> Cube:
        return Cube.minterm(self.end)

    def __str__(self) -> str:
        return f"{''.join(map(str, self.start))}->{''.join(map(str, self.end))}"


def classify_transition(
    transition: Transition, start_value: bool, end_value: bool
) -> TransitionKind:
    """Classify an output's behaviour over a transition by its endpoint values."""
    if start_value and end_value:
        return TransitionKind.STATIC_ONE
    if start_value and not end_value:
        return TransitionKind.FALLING
    if not start_value and end_value:
        return TransitionKind.RISING
    return TransitionKind.STATIC_ZERO


def hazard_free_rows(
    kind: TransitionKind, on_rows: Sequence[int], off_rows: Sequence[int], m01: int
) -> bool:
    """The function-hazard test on one output's projected rows.

    ``on_rows``/``off_rows`` are the ON and OFF cubes meeting the transition
    cube, projected start-relative onto its changing variables (see
    :func:`repro.cubes.masks.project`); ``m01`` marks the low bit of each
    changing variable.  Static transitions: no opposite-set row may meet
    the cube.  Falling: no OFF row ``o`` and ON row ``n`` with
    ``D_o ⊆ E_n``, where ``D_o`` is the set of changing variables whose
    start value ``o`` excludes (they *must* have flipped to reach ``o``) and
    ``E_n`` those whose end value ``n`` admits (they *may* have flipped
    inside ``n``).  Rising: the same with the endpoints swapped.
    """
    if kind is TransitionKind.STATIC_ONE:
        return not off_rows
    if kind is TransitionKind.STATIC_ZERO:
        return not on_rows
    if kind is TransitionKind.FALLING:
        must = [~v & m01 for v in off_rows]
        may = [v >> 1 & m01 for v in on_rows]
    else:
        must = [~(v >> 1) & m01 for v in off_rows]
        may = [v & m01 for v in on_rows]
    return not any(d & ~e == 0 for d in must for e in may)


def function_hazard_free(
    transition: Transition,
    on: Cover,
    off: Cover,
    kind: Optional[TransitionKind] = None,
) -> bool:
    """True iff the (single-output) function is function-hazard-free over the
    transition.

    ``on`` and ``off`` are the single-output ON and OFF covers.  The function
    must be fully defined on the transition cube (checked by
    :meth:`repro.hazards.instance.HazardFreeInstance.validate`, not here).
    Without ``kind`` the transition is classified by ON membership of its
    endpoints.

    * static transitions: the transition cube must lie entirely in the
      ON-set (1→1) or OFF-set (0→0);
    * dynamic transitions (1→0 after normalization): the function must fall
      monotonically — no OFF point of the transition cube may be reachable
      *before* an ON point (the pair condition of :func:`hazard_free_rows`).
    """
    on_rows = project([(c.inbits, 1) for c in on if c.outbits], transition, 1)[0]
    off_rows = project([(c.inbits, 1) for c in off if c.outbits], transition, 1)[0]
    m01 = mask01(len(transition.changing))
    if kind is None:
        sv = any(v & m01 == m01 for v in on_rows)
        ev = any(v >> 1 & m01 == m01 for v in on_rows)
        kind = classify_transition(transition, sv, ev)
    return hazard_free_rows(kind, on_rows, off_rows, m01)


def function_hazard_free_brute(
    transition: Transition, on: Cover, off: Cover
) -> bool:
    """Exhaustive function-hazard check (test oracle, exponential).

    Walks every pair of points in the transition cube and applies
    Definitions 2.2/2.3 directly.
    """
    start, end = transition.start, transition.end
    sv, ev = on.evaluate(start), on.evaluate(end)

    def value(vec):
        return on.evaluate(vec)

    def reachable_between(a, b):
        """Minterms of [a, b]."""
        return list(transition_cube(a, b).minterm_vectors())

    points = reachable_between(start, end)
    if sv == ev:
        return all(value(p) == sv for p in points)
    # dynamic: hazard iff some p with f(p)=f(end) can still reach q with
    # f(q)=f(start)
    for p in points:
        if value(p) != ev:
            continue
        for q in reachable_between(p, end):
            if value(q) == sv:
                return False
    return True
