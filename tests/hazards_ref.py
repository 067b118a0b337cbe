"""Reference validation and derivation: the ``Cube``/``Cover`` algebra the
int-mask table replaced.

:class:`repro.hazards.instance.HazardFreeInstance` classifies, checks and
derives every (transition, output) pair from one projection of the
multi-output rows per transition (:mod:`repro.cubes.masks`).  Before
that it ran the per-pair algebra kept here verbatim: single-output
``Cover`` copies, cofactor + tautology for definedness, frozenset
changed-variable sets for the hazard test, ``Cover.evaluate`` for the
endpoint values, and Berge's algorithm on frozensets for the required
cubes.  It is a differential oracle only — the mask table must produce
identical verdicts, exception types and messages, transition kinds and
derived lists (``tests/test_instance_masks.py``).  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.cubes.cover import Cover
from repro.cubes.cube import Cube, LITERAL_DC
from repro.cubes.operations import changing_vars
from repro.espresso.tautology import tautology
from repro.hazards.instance import InstanceError, PrivilegedCube, RequiredCube
from repro.hazards.transitions import (
    Transition,
    TransitionKind,
    classify_transition,
)


def _blocker_sets(
    start: Sequence[int],
    end: Sequence[int],
    cover: Cover,
    t_cube: Cube,
) -> list:
    """For each cover cube meeting ``[start, end]``: the changed-variable sets.

    Returns ``(D, E)`` pairs where ``D`` is the set of changing variables that
    *must* have flipped for a point of the cube to be reached
    (``{i : start_i ∉ cube_i}``) and ``E`` those that *may* have flipped
    (``{i : end_i ∈ cube_i}``).  Points of the cube inside the transition
    cube correspond exactly to changed-sets ``S`` with ``D ⊆ S ⊆ E``.
    """
    changing = changing_vars(start, end)
    result = []
    for c in cover:
        if c.is_empty or not c.intersects_input(t_cube):
            continue
        d = frozenset(
            i for i in changing if not (c.literal(i) >> (1 if start[i] else 0)) & 1
        )
        e = frozenset(
            i for i in changing if (c.literal(i) >> (1 if end[i] else 0)) & 1
        )
        result.append((d, e))
    return result


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

    * static transitions: the transition cube must lie entirely in the
      ON-set (1→1) or OFF-set (0→0);
    * dynamic transitions (1→0 after normalization): the function must fall
      monotonically — no OFF point of the transition cube may be reachable
      *before* an ON point.  Using changed-variable sets this is the pair
      condition: there must be no ON cube ``n`` and OFF cube ``o`` meeting
      the transition cube with ``D_o ⊆ E_n``.
    """
    t_cube = transition.cube
    if kind is None:
        sv = on.evaluate(transition.start)
        ev = on.evaluate(transition.end)
        kind = classify_transition(transition, sv, ev)
    if kind is TransitionKind.STATIC_ONE:
        return not any(o.intersects_input(t_cube) for o in off if not o.is_empty)
    if kind is TransitionKind.STATIC_ZERO:
        return not any(c.intersects_input(t_cube) for c in on if not c.is_empty)
    if kind is TransitionKind.RISING:
        return function_hazard_free(
            transition.reversed(), on, off, TransitionKind.FALLING
        )
    # FALLING: f(start)=1, f(end)=0.
    off_sets = _blocker_sets(transition.start, transition.end, off, t_cube)
    on_sets = _blocker_sets(transition.start, transition.end, on, t_cube)
    for d_o, _ in off_sets:
        for _, e_n in on_sets:
            if d_o <= e_n:
                return False
    return True


def minimal_hitting_sets(sets: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """All minimal hitting sets of a family of non-empty sets.

    Berge's incremental construction: maintain the minimal hitting sets of a
    prefix of the family; to add a set ``D``, extend each current hitting set
    that misses ``D`` by every element of ``D`` and re-minimize.
    """
    for d in sets:
        if not d:
            raise ValueError("cannot hit an empty set")
    current: List[FrozenSet[int]] = [frozenset()]
    # Process only the minimal sets: a hitting set of D' ⊆ D also hits D.
    pruned = _minimal_sets(sets)
    for d in pruned:
        extended: Set[FrozenSet[int]] = set()
        for h in current:
            if h & d:
                extended.add(h)
            else:
                for x in d:
                    extended.add(h | {x})
        current = _minimal_sets(list(extended))
    return current


def _minimal_sets(sets: Iterable[FrozenSet[int]]) -> List[FrozenSet[int]]:
    unique = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    kept: List[FrozenSet[int]] = []
    for s in unique:
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def maximal_on_subcubes(
    transition: Transition, off: Cover
) -> List[Cube]:
    """The required cubes of a 1→0 transition: maximal ON subcubes ``[A, X]``.

    ``off`` is the single-output OFF cover.  The transition is assumed
    function-hazard-free with ``f(A)=1`` and ``f(B)=0``.
    """
    start, end = transition.start, transition.end
    changing = transition.changing
    t_cube = transition.cube
    start_cube = Cube.minterm(start)
    blockers: List[FrozenSet[int]] = []
    for o in off:
        if o.is_empty or not o.intersects_input(t_cube):
            continue
        d = frozenset(
            i for i in changing if not (o.literal(i) >> (1 if start[i] else 0)) & 1
        )
        if not d:
            raise ValueError(
                "OFF cube contains the start point of a 1->0 transition; "
                "the instance is ill-formed (f(A) must be 1)"
            )
        blockers.append(d)
    if not blockers:
        raise ValueError(
            "no OFF cube meets the transition cube of a 1->0 transition; "
            "the end point must be OFF"
        )
    hitting = minimal_hitting_sets(blockers)
    cubes: List[Cube] = []
    changing_set = set(changing)
    for h in hitting:
        freed = changing_set - h
        cube = start_cube
        for i in freed:
            cube = cube.with_literal(i, LITERAL_DC)
        cubes.append(cube)
    return sorted(cubes)


class HazardFreeInstanceRef:
    """``HazardFreeInstance`` as it was: a function plus specified
    transitions, ready for minimization.

    Parameters
    ----------
    on, off:
        Multi-output covers of the ON and OFF sets.  Points in neither cover
        are don't-cares; a specified transition cube must be fully defined
        (every point ON or OFF for every output).
    transitions:
        The specified multiple-input changes (shared by all outputs).
    validate:
        When true (default) the constructor checks well-formedness:
        ON/OFF disjointness, full definedness on transition cubes, and
        function-hazard freedom of every (transition, output) pair.
    """

    def __init__(
        self,
        on: Cover,
        off: Cover,
        transitions: Sequence[Transition],
        name: str = "instance",
        validate: bool = True,
    ):
        if on.n_inputs != off.n_inputs or on.n_outputs != off.n_outputs:
            raise InstanceError("ON and OFF covers must share a shape")
        self.on = on
        self.off = off
        self.transitions = list(transitions)
        self.name = name
        self.n_inputs = on.n_inputs
        self.n_outputs = on.n_outputs
        self._on_by_output = [on.restrict_to_output(j) for j in range(self.n_outputs)]
        self._off_by_output = [off.restrict_to_output(j) for j in range(self.n_outputs)]
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Function access
    # ------------------------------------------------------------------

    def on_for_output(self, j: int) -> Cover:
        """Single-output ON cover of output ``j``."""
        return self._on_by_output[j]

    def off_for_output(self, j: int) -> Cover:
        """Single-output OFF cover of output ``j``."""
        return self._off_by_output[j]

    def value(self, vec: Sequence[int], j: int) -> Optional[bool]:
        """Output ``j``'s value on an input vector (None = don't-care)."""
        if self._on_by_output[j].evaluate(vec):
            return True
        if self._off_by_output[j].evaluate(vec):
            return False
        return None

    def kind(self, transition: Transition, j: int) -> TransitionKind:
        """The transition type of output ``j`` over ``transition``."""
        sv = self.value(transition.start, j)
        ev = self.value(transition.end, j)
        if sv is None or ev is None:
            raise InstanceError(
                f"transition {transition} endpoint undefined for output {j}"
            )
        return classify_transition(transition, sv, ev)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the preconditions of the hazard-free minimization model."""
        for j in range(self.n_outputs):
            on_j, off_j = self._on_by_output[j], self._off_by_output[j]
            for c in on_j:
                for o in off_j:
                    if c.intersects_input(o):
                        raise InstanceError(
                            f"ON and OFF sets of output {j} intersect: "
                            f"{c.input_string()} ∩ {o.input_string()}"
                        )
        for t in self.transitions:
            if len(t.start) != self.n_inputs:
                raise InstanceError(f"transition {t} has wrong width")
            t_cube = Cube(self.n_inputs, t.cube.inbits, 1, 1)
            for j in range(self.n_outputs):
                on_j, off_j = self._on_by_output[j], self._off_by_output[j]
                union = Cover(self.n_inputs, (), 1)
                union.cubes = list(on_j.cubes) + list(off_j.cubes)
                if not tautology(union.cofactor(t_cube)):
                    raise InstanceError(
                        f"function not fully defined on {t} for output {j}"
                    )
                if not function_hazard_free(t, on_j, off_j):
                    raise InstanceError(
                        f"transition {t} has a function hazard on output {j}"
                    )

    # ------------------------------------------------------------------
    # Derived sets (memoized)
    # ------------------------------------------------------------------

    def required_cubes(self) -> List[RequiredCube]:
        """The set ``Q`` of required cubes over all outputs (Definition 2.9)."""
        if not hasattr(self, "_required"):
            required: List[RequiredCube] = []
            seen = set()
            for t in self.transitions:
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.STATIC_ONE:
                        cubes = [t.cube]
                    elif kind is TransitionKind.FALLING:
                        cubes = maximal_on_subcubes(t, self._off_by_output[j])
                    elif kind is TransitionKind.RISING:
                        cubes = maximal_on_subcubes(
                            t.reversed(), self._off_by_output[j]
                        )
                    else:
                        continue
                    for c in cubes:
                        key = (c.inbits, j)
                        if key not in seen:
                            seen.add(key)
                            required.append(RequiredCube(c, j, t))
            self._required = required
        return list(self._required)

    def privileged_cubes(self) -> List[PrivilegedCube]:
        """The set ``P`` of privileged cubes over all outputs (Definition 2.10)."""
        if not hasattr(self, "_privileged"):
            privileged: List[PrivilegedCube] = []
            seen = set()
            for t in self.transitions:
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.FALLING:
                        norm = t
                    elif kind is TransitionKind.RISING:
                        norm = t.reversed()
                    else:
                        continue
                    key = (norm.cube.inbits, norm.start_cube().inbits, j)
                    if key not in seen:
                        seen.add(key)
                        privileged.append(
                            PrivilegedCube(norm.cube, norm.start_cube(), j, norm)
                        )
            self._privileged = privileged
        return list(self._privileged)

    def restrict_to_output(self, j: int) -> "HazardFreeInstanceRef":
        """A single-output instance for output ``j`` (shared transitions)."""
        return HazardFreeInstanceRef(
            self._on_by_output[j],
            self._off_by_output[j],
            self.transitions,
            name=f"{self.name}.out{j}",
            validate=False,
        )
